#include "media/pipeline.hpp"

#include <algorithm>
#include <stdexcept>
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
/// count; bits 16..31 lie above a 16-bit pixel and leave it unchanged.
bool maybe_fault_image(Image& image, const char* stage_name, PortDirection port,
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
  pixel = patched;
  return changed;
}

/// The feature-vector counterpart of maybe_fault_image (bits modulo 16).
bool maybe_fault_features(FeatureVec& f, const char* stage_name, PortDirection port,
                          const BitFault* fault) {
  if (!targets(fault, stage_name, port)) return false;
  if (f.v.empty()) return false;
  const auto idx = static_cast<std::size_t>(fault->word_index) % f.v.size();
  const std::uint32_t raw = static_cast<std::uint16_t>(f.v[idx]);
  const std::uint32_t patched = verif::apply_bit_fault(
      raw, static_cast<int>(idx),
      BitFault{fault->stage, fault->port, static_cast<int>(idx), fault->bit % 16,
               fault->stuck_to});
  f.v[idx] = static_cast<std::int16_t>(static_cast<std::uint16_t>(patched));
  return patched != raw;
}

media::Ctx stage_ctx(const char* stage_name, PipelineProfile* profile,
                     std::uint64_t* ops_slot) {
  media::Ctx ctx;
  ctx.cov = verif::CoverageDb::active_module(stage_name);
  if (profile != nullptr) ctx.ops = ops_slot;
  return ctx;
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

void run_front_end(FrontEndValues& values, Boundary from, const PipelineConfig& config,
                   PipelineProfile* profile, StageTraces* traces,
                   const verif::BitFault* fault, FrontEndState* state) {
  std::uint64_t ops = 0;
  auto commit_ops = [&](const char* stage_name) {
    if (profile != nullptr) profile->add(stage_name, ops);
    ops = 0;
  };

  if (from == Boundary::frame) {
    maybe_fault_image(values.bayer, stage::bay, PortDirection::input, fault);
    values.luma = bay_demosaic_luma(values.bayer, stage_ctx(stage::bay, profile, &ops));
    commit_ops(stage::bay);
  }
  if (from <= Boundary::bay) {
    maybe_fault_image(values.luma, stage::bay, PortDirection::output, fault);
    if (traces != nullptr) traces->bay = values.luma.checksum();
  }

  if (from < Boundary::erosion) {
    values.eroded = erode3x3(values.luma, stage_ctx(stage::erosion, profile, &ops));
    commit_ops(stage::erosion);
  }
  if (from <= Boundary::erosion) {
    maybe_fault_image(values.eroded, stage::erosion, PortDirection::output, fault);
    if (traces != nullptr) traces->erosion = values.eroded.checksum();
  }

  if (from < Boundary::root) {
    values.rooted = root_transform(values.eroded, stage_ctx(stage::root, profile, &ops));
    commit_ops(stage::root);
  }
  if (from <= Boundary::root) {
    maybe_fault_image(values.rooted, stage::root, PortDirection::output, fault);
    if (traces != nullptr) traces->root = values.rooted.checksum();
  }

  if (from < Boundary::edge) {
    values.edges = sobel_edge(values.rooted, config.edge_threshold,
                              stage_ctx(stage::edge, profile, &ops))
                       .binary;
    commit_ops(stage::edge);
  }
  if (from <= Boundary::edge) {
    maybe_fault_image(values.edges, stage::edge, PortDirection::output, fault);
    if (traces != nullptr) traces->edge = values.edges.checksum();
  }

  if (from < Boundary::crtbord) {
    values.fit = fit_ellipse(values.edges, stage_ctx(stage::ellipse, profile, &ops));
    commit_ops(stage::ellipse);
    values.window = crop_border(values.luma, values.fit, config.window_size,
                                stage_ctx(stage::crtbord, profile, &ops));
    commit_ops(stage::crtbord);
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
  }
  if (from <= Boundary::crtbord) {
    maybe_fault_image(values.window, stage::crtbord, PortDirection::output, fault);
    if (traces != nullptr) traces->window = values.window.checksum();
  }

  if (from < Boundary::calcline) {
    const LineProfiles lines =
        create_lines(values.window, stage_ctx(stage::crtline, profile, &ops));
    commit_ops(stage::crtline);
    values.features = calc_line_features(lines, stage_ctx(stage::calcline, profile, &ops));
    commit_ops(stage::calcline);
  }
  maybe_fault_features(values.features, stage::calcline, PortDirection::output, fault);
  if (traces != nullptr) traces->features = values.features.checksum();
}

RecognitionResult match(FeatureVec features, const FaceDatabase& db, PipelineProfile* profile) {
  RecognitionResult result;
  result.features = std::move(features);
  std::uint64_t ops = 0;
  media::Ctx dist_ctx = stage_ctx(stage::distance, profile, &ops);
  result.distances.reserve(db.size());
  for (std::size_t i = 0; i < db.size(); ++i) {
    result.distances.push_back(
        calc_distance(result.features, db.entry(i).features, dist_ctx));
  }
  if (profile != nullptr) profile->add(stage::distance, ops);
  ops = 0;

  media::Ctx win_ctx = stage_ctx(stage::winner, profile, &ops);
  result.winner = pick_winner(result.distances, win_ctx);
  if (profile != nullptr) profile->add(stage::winner, ops);

  if (result.winner.index >= 0) {
    result.identity = db.identity_of(static_cast<std::size_t>(result.winner.index));
  }
  return result;
}

FeatureVec extract_features(const Image& bayer, const PipelineConfig& config,
                            PipelineProfile* profile, StageTraces* traces,
                            const verif::BitFault* fault, FrontEndState* state) {
  FrontEndValues values;
  values.bayer = bayer;
  run_front_end(values, Boundary::frame, config, profile, traces, fault, state);
  return std::move(values.features);
}

RecognitionResult recognize(const Image& bayer, const FaceDatabase& db,
                            const PipelineConfig& config, PipelineProfile* profile,
                            const verif::BitFault* fault, FrontEndState* state) {
  StageTraces traces;
  RecognitionResult result =
      match(extract_features(bayer, config, profile, &traces, fault, state), db, profile);
  result.traces = traces;
  return result;
}

GoldenRun golden_run(Image bayer, const FaceDatabase& db, const PipelineConfig& config) {
  GoldenRun golden;
  golden.values.bayer = std::move(bayer);
  StageTraces traces;
  run_front_end(golden.values, Boundary::frame, config, nullptr, &traces);
  golden.result = match(golden.values.features, db);
  golden.result.traces = traces;
  return golden;
}

std::optional<RecognitionResult> simulate_fault(const GoldenRun& golden,
                                                const FaceDatabase& db,
                                                const PipelineConfig& config,
                                                const verif::BitFault& fault) {
  // The kernels are pure and grading runs without a FrontEndState, so the
  // stages above the faulted boundary would recompute their golden values,
  // and an unchanged word leaves every stage below it golden too.
  FrontEndValues values = golden.values;
  const BitFault* f = &fault;
  const auto out = PortDirection::output;
  Boundary from{};
  if (maybe_fault_image(values.bayer, stage::bay, PortDirection::input, f)) {
    from = Boundary::frame;
  } else if (maybe_fault_image(values.luma, stage::bay, out, f)) {
    from = Boundary::bay;
  } else if (maybe_fault_image(values.eroded, stage::erosion, out, f)) {
    from = Boundary::erosion;
  } else if (maybe_fault_image(values.rooted, stage::root, out, f)) {
    from = Boundary::root;
  } else if (maybe_fault_image(values.edges, stage::edge, out, f)) {
    from = Boundary::edge;
  } else if (maybe_fault_image(values.window, stage::crtbord, out, f)) {
    from = Boundary::crtbord;
  } else if (maybe_fault_features(values.features, stage::calcline, out, f)) {
    from = Boundary::calcline;
  } else {
    return std::nullopt;  // not excited
  }
  StageTraces traces = golden.result.traces;
  run_front_end(values, from, config, nullptr, &traces);
  RecognitionResult result = match(std::move(values.features), db);
  result.traces = traces;
  return result;
}

}  // namespace symbad::media
