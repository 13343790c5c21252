#include "media/pipeline.hpp"

#include <algorithm>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "media/database.hpp"

namespace symbad::media {

namespace {

using verif::BitFault;
using verif::PortDirection;

/// Whether `fault` targets `stage_name`/`port`. Throws for a bit outside a
/// 32-bit port word, whatever the fault targets.
bool targets(const BitFault* fault, const char* stage_name, PortDirection port) {
  if (fault == nullptr) return false;
  if (fault->bit < 0 || fault->bit > 31) {
    throw std::invalid_argument{"bit fault: bit must be in [0, 31]"};
  }
  return fault->stage == stage_name && fault->port == port;
}

/// Applies a bit fault to an image if it targets `stage_name`/`port`;
/// returns whether the patched pixel changed. Words index modulo the pixel
/// count; bits 16..31 lie above a 16-bit pixel and leave it unchanged. A
/// const image is only tested, never written.
template <class ImageT>
bool maybe_fault_image(ImageT& image, const char* stage_name, PortDirection port,
                       const BitFault* fault) {
  if (!targets(fault, stage_name, port)) return false;
  const auto n = image.pixel_count();
  if (n == 0) return false;
  const auto idx = static_cast<std::size_t>(fault->word_index) % n;
  auto& pixel = image.data()[idx];
  const auto patched = static_cast<std::uint16_t>(verif::apply_bit_fault(
      pixel, static_cast<int>(idx),
      BitFault{fault->stage, fault->port, static_cast<int>(idx), fault->bit, fault->stuck_to}));
  const bool changed = patched != pixel;
  if constexpr (!std::is_const_v<ImageT>) pixel = patched;
  return changed;
}

/// The feature-vector counterpart of maybe_fault_image (bits modulo 16).
template <class FeatureVecT>
bool maybe_fault_features(FeatureVecT& f, const char* stage_name, PortDirection port,
                          const BitFault* fault) {
  if (!targets(fault, stage_name, port)) return false;
  if (f.v.empty()) return false;
  const auto idx = static_cast<std::size_t>(fault->word_index) % f.v.size();
  const std::uint32_t raw = static_cast<std::uint16_t>(f.v[idx]);
  const std::uint32_t patched = verif::apply_bit_fault(
      raw, static_cast<int>(idx),
      BitFault{fault->stage, fault->port, static_cast<int>(idx), fault->bit % 16,
               fault->stuck_to});
  if constexpr (!std::is_const_v<FeatureVecT>) {
    f.v[idx] = static_cast<std::int16_t>(static_cast<std::uint16_t>(patched));
  }
  return patched != raw;
}

/// Patches `fault` into the value at `boundary` if it targets that
/// boundary's stage and port; returns whether the word changed. On const
/// values it only tests whether the word would change.
template <class Values>
bool patch(Values& values, Boundary boundary, const BitFault* fault) {
  const auto out = PortDirection::output;
  switch (boundary) {
    case Boundary::frame:
      return maybe_fault_image(values.bayer, stage::bay, PortDirection::input, fault);
    case Boundary::bay: return maybe_fault_image(values.luma, stage::bay, out, fault);
    case Boundary::erosion: return maybe_fault_image(values.eroded, stage::erosion, out, fault);
    case Boundary::root: return maybe_fault_image(values.rooted, stage::root, out, fault);
    case Boundary::edge: return maybe_fault_image(values.edges, stage::edge, out, fault);
    case Boundary::crtbord: return maybe_fault_image(values.window, stage::crtbord, out, fault);
    case Boundary::calcline:
      return maybe_fault_features(values.features, stage::calcline, out, fault);
  }
  return false;
}

constexpr Boundary kBoundaries[] = {Boundary::frame, Boundary::bay,     Boundary::erosion,
                                    Boundary::root,  Boundary::edge,    Boundary::crtbord,
                                    Boundary::calcline};

/// The front end as the stages that compute each boundary below the frame.
struct Segment {
  Boundary to;
  std::initializer_list<const char*> stages;
};
const Segment kFrontEnd[] = {
    {Boundary::bay, {stage::bay}},
    {Boundary::erosion, {stage::erosion}},
    {Boundary::root, {stage::root}},
    {Boundary::edge, {stage::edge}},
    {Boundary::crtbord, {stage::ellipse, stage::crtbord}},
    {Boundary::calcline, {stage::crtline, stage::calcline}},
};

/// The back end: DISTANCE of the features against every template of `db`,
/// then WINNER.
void match(PipelineValues& values, const FaceDatabase& db, const PipelineConfig& config,
           PipelineProfile* profile) {
  for (const char* stage_name : {stage::distance, stage::winner}) {
    const std::uint64_t ops = run_stage(stage_name, values, config, &db);
    if (profile != nullptr) profile->add(stage_name, ops);
  }
}

}  // namespace

std::vector<std::string> PipelineProfile::ranking() const {
  std::vector<std::string> names;
  names.reserve(ops_.size());
  for (const auto& [s, n] : ops_) names.push_back(s);
  std::sort(names.begin(), names.end(), [this](const std::string& a, const std::string& b) {
    const auto oa = ops_.at(a);
    const auto ob = ops_.at(b);
    if (oa != ob) return oa > ob;
    return a < b;
  });
  return names;
}

std::uint64_t run_stage(std::string_view stage_name, PipelineValues& values,
                        const PipelineConfig& config, const FaceDatabase* db,
                        FrontEndState* state) {
  std::uint64_t ops = 0;
  auto ctx = [&ops](const char* name) {
    return Ctx{verif::CoverageDb::active_module(name), &ops};
  };
  auto database = [db](const char* name) -> const FaceDatabase& {
    if (db == nullptr) {
      throw std::invalid_argument{std::string{"run_stage: "} + name + " needs a database"};
    }
    return *db;
  };
  if (stage_name == stage::bay) {
    values.luma = bay_demosaic_luma(values.bayer, ctx(stage::bay));
  } else if (stage_name == stage::erosion) {
    values.eroded = erode3x3(values.luma, ctx(stage::erosion));
  } else if (stage_name == stage::root) {
    values.rooted = root_transform(values.eroded, ctx(stage::root));
  } else if (stage_name == stage::edge) {
    values.edges = sobel_edge(values.rooted, config.edge_threshold, ctx(stage::edge)).binary;
  } else if (stage_name == stage::ellipse) {
    values.fit = fit_ellipse(values.edges, ctx(stage::ellipse));
  } else if (stage_name == stage::crtbord) {
    values.window = crop_border(values.luma, values.fit, config.window_size, ctx(stage::crtbord));
    if (config.seeded_memory_bug && state != nullptr) {
      // BUG (seeded, see PipelineConfig): the window buffer is recycled from
      // the previous frame without re-initialisation; its first row leaks.
      Image& stale = state->stale_window();
      if (!stale.empty() && stale.width() == values.window.width() &&
          stale.height() == values.window.height()) {
        const int mid = stale.height() / 2;
        for (int x = 0; x < values.window.width(); ++x) {
          values.window.px(x, 0) = stale.px(x, mid);
        }
      }
      stale = values.window;
    }
  } else if (stage_name == stage::crtline) {
    values.lines = create_lines(values.window, ctx(stage::crtline));
  } else if (stage_name == stage::calcline) {
    values.features = calc_line_features(values.lines, ctx(stage::calcline));
  } else if (stage_name == stage::distance) {
    const FaceDatabase& templates = database(stage::distance);
    const Ctx dist_ctx = ctx(stage::distance);
    values.distances.clear();
    values.distances.reserve(templates.size());
    for (const auto& entry : templates.entries()) {
      values.distances.push_back(calc_distance(values.features, entry.features, dist_ctx));
    }
  } else if (stage_name == stage::winner) {
    const FaceDatabase& templates = database(stage::winner);
    values.winner = pick_winner(values.distances, ctx(stage::winner));
    values.identity = values.winner.index >= 0
                          ? templates.identity_of(static_cast<std::size_t>(values.winner.index))
                          : -1;
  } else {
    throw std::out_of_range{"run_stage: unknown stage '" + std::string{stage_name} + "'"};
  }
  return ops;
}

void run_front_end(PipelineValues& values, Boundary from, const PipelineConfig& config,
                   PipelineProfile* profile, const verif::BitFault* fault,
                   FrontEndState* state) {
  patch(values, from, fault);
  for (const auto& [to, stages] : kFrontEnd) {
    if (to <= from) continue;
    for (const char* stage_name : stages) {
      const std::uint64_t ops = run_stage(stage_name, values, config, nullptr, state);
      if (profile != nullptr) profile->add(stage_name, ops);
    }
    patch(values, to, fault);
  }
}

FeatureVec extract_features(const Image& bayer, const PipelineConfig& config,
                            PipelineProfile* profile, const verif::BitFault* fault,
                            FrontEndState* state) {
  PipelineValues values;
  values.bayer = bayer;
  run_front_end(values, Boundary::frame, config, profile, fault, state);
  return std::move(values.features);
}

PipelineValues recognize(const Image& bayer, const FaceDatabase& db,
                         const PipelineConfig& config, PipelineProfile* profile,
                         const verif::BitFault* fault, FrontEndState* state) {
  PipelineValues values;
  values.bayer = bayer;
  run_front_end(values, Boundary::frame, config, profile, fault, state);
  match(values, db, config, profile);
  return values;
}

PipelineValues golden_run(const Image& bayer, const FaceDatabase& db,
                          const PipelineConfig& config) {
  return recognize(bayer, db, config);
}

std::optional<PipelineValues> simulate_fault(const PipelineValues& golden,
                                             const FaceDatabase& db,
                                             const PipelineConfig& config,
                                             const verif::BitFault& fault) {
  // The kernels are pure and grading runs without a FrontEndState, so the
  // stages above the faulted boundary would recompute their golden values,
  // and an unchanged word leaves every stage below it golden too. A fault
  // targets one stage port, so at most one boundary can excite it: the word
  // is tested on the golden values, which are copied only when it changes.
  for (const Boundary at : kBoundaries) {
    if (patch(golden, at, &fault)) {
      PipelineValues values = golden;
      run_front_end(values, at, config, nullptr, &fault);
      match(values, db, config, nullptr);
      return values;
    }
  }
  return std::nullopt;  // not excited
}

}  // namespace symbad::media
