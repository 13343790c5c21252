#include "media/kernels.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace symbad::media {

namespace {

/// The coverage hits of one kernel call, counted in locals and added to the
/// kernel's module once, when the call ends. Every kernel with a coverage
/// point inside a pixel or element loop has one body templated on `Cov`,
/// and its public entry picks the instantiation from `ctx.cov`. With `Cov`
/// false the tally holds no counts and every hit method only returns its
/// outcome, so that instantiation contains no coverage code. With `Cov`
/// true the body evaluates the same outcomes the per-hit instrumentation
/// did, so the module ends with the same hit counts.
template <bool Cov, int Stmts, int Branches, int Conds>
class Tally {
public:
  /// Declares the kernel's points up front, so unexecuted ones count
  /// against coverage.
  explicit Tally(verif::CovModule* module) : module_{module} {
    if constexpr (Cov) {
      module_->declare_statements(Stmts);
      module_->declare_branches(Branches);
      module_->declare_conditions(Conds);
    }
  }
  ~Tally() {
    if constexpr (Cov) {
      for (int i = 0; i < Stmts; ++i) module_->add_statement(i, stmt_[slot(i)]);
      for (int i = 0; i < Branches; ++i) {
        module_->add_branch(i, branch_true_[slot(i)], branch_[slot(i)] - branch_true_[slot(i)]);
      }
      for (int i = 0; i < Conds; ++i) {
        module_->add_condition(i, cond_true_[slot(i)], cond_[slot(i)] - cond_true_[slot(i)]);
      }
    }
  }
  Tally(const Tally&) = delete;
  Tally& operator=(const Tally&) = delete;

  void stmt(int id) noexcept {
    if constexpr (Cov) ++stmt_[slot(id)];
  }
  // Outcomes count as (evaluations, true ones), so a data-dependent
  // outcome adds without a branch.
  bool branch(int id, bool taken) noexcept {
    if constexpr (Cov) {
      ++branch_[slot(id)];
      branch_true_[slot(id)] += static_cast<std::uint64_t>(taken);
    }
    return taken;
  }
  bool cond(int id, bool value) noexcept {
    if constexpr (Cov) {
      ++cond_[slot(id)];
      cond_true_[slot(id)] += static_cast<std::uint64_t>(value);
    }
    return value;
  }

private:
  template <int N>
  using Counts = std::array<std::uint64_t, Cov ? N : 0>;
  static constexpr std::size_t slot(int id) noexcept { return static_cast<std::size_t>(id); }

  verif::CovModule* module_;
  Counts<Stmts> stmt_{};
  Counts<Branches> branch_{};
  Counts<Branches> branch_true_{};
  Counts<Conds> cond_{};
  Counts<Conds> cond_true_{};
};

/// Calls `pixel(x, y, at)` for every pixel of `img` in row-major order;
/// `at(dx, dy)` reads the neighbour (x + dx, y + dy) for |dx|, |dy| <= 1.
/// On the one-pixel border ring `at` reads through Image::clamped (the 2D
/// kernels' border policy); inside the ring no neighbour leaves the image,
/// so `at` reads three row pointers directly.
template <typename Pixel>
void for_each_3x3(const Image& img, Pixel&& pixel) {
  const int w = img.width();
  const int h = img.height();
  const std::uint16_t* const base = img.data().data();
  const auto clamped = [&img](int x, int y) {
    return [&img, x, y](int dx, int dy) { return img.clamped(x + dx, y + dy); };
  };
  for (int y = 0; y < h; ++y) {
    if (y == 0 || y == h - 1 || w < 3) {
      for (int x = 0; x < w; ++x) pixel(x, y, clamped(x, y));
      continue;
    }
    const std::uint16_t* const mid = base + static_cast<std::ptrdiff_t>(y) * w;
    const std::uint16_t* const rows[3] = {mid - w, mid, mid + w};
    pixel(0, y, clamped(0, y));
    for (int x = 1; x < w - 1; ++x) {
      pixel(x, y, [&rows, x](int dx, int dy) { return rows[dy + 1][x + dx]; });
    }
    pixel(w - 1, y, clamped(w - 1, y));
  }
}

/// ROOT's output for every 8-bit input, from isqrt32. Wider inputs (only
/// a bit fault upstream produces them) call isqrt32 directly.
const std::array<std::uint16_t, 256>& root_table() {
  static const std::array<std::uint16_t, 256> table = [] {
    std::array<std::uint16_t, 256> t{};
    for (std::uint32_t v = 0; v < t.size(); ++v) t[v] = isqrt32(v << 8);
    return t;
  }();
  return table;
}

// ------------------------------------------------------------------ BAY

template <bool Cov>
Image bay_body(const Image& bayer, Ctx ctx) {
  Tally<Cov, 5, 4, 2> cov{ctx.cov};
  cov.stmt(0);
  const int w = bayer.width();
  const int h = bayer.height();
  Image luma{w, h};

  for_each_3x3(bayer, [&](int x, int y, auto at) {
    const bool even_row = (y & 1) == 0;
    const bool even_col = (x & 1) == 0;
    int r = 0;
    int g = 0;
    int b = 0;
    // RGGB pattern reconstruction (bilinear from clamped neighbours).
    if (cov.branch(0, even_row && even_col)) {
      // red site
      cov.stmt(1);
      r = at(0, 0);
      g = (at(-1, 0) + at(1, 0) + at(0, -1) + at(0, 1)) / 4;
      b = (at(-1, -1) + at(1, -1) + at(-1, 1) + at(1, 1)) / 4;
    } else if (cov.branch(1, !even_row && !even_col)) {
      // blue site
      cov.stmt(2);
      b = at(0, 0);
      g = (at(-1, 0) + at(1, 0) + at(0, -1) + at(0, 1)) / 4;
      r = (at(-1, -1) + at(1, -1) + at(-1, 1) + at(1, 1)) / 4;
    } else {
      // green site; red/blue neighbours depend on the row parity.
      cov.stmt(3);
      g = at(0, 0);
      if (cov.branch(2, even_row)) {
        r = (at(-1, 0) + at(1, 0)) / 2;
        b = (at(0, -1) + at(0, 1)) / 2;
      } else {
        b = (at(-1, 0) + at(1, 0)) / 2;
        r = (at(0, -1) + at(0, 1)) / 2;
      }
    }
    // ITU-601-ish integer luma.
    int value = (77 * r + 150 * g + 29 * b) >> 8;
    if (cov.cond(0, value > 255)) value = 255;
    if (cov.cond(1, value < 0)) value = 0;
    (void)cov.branch(3, (x == 0 || y == 0 || x == w - 1 || y == h - 1));
    luma.px(x, y) = static_cast<std::uint16_t>(value);
  });
  cov.stmt(4);
  ctx.add_ops(static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(h) * 12);
  return luma;
}

// -------------------------------------------------------------- EROSION

template <bool Cov>
Image erode_body(const Image& in, Ctx ctx) {
  Tally<Cov, 3, 1, 1> cov{ctx.cov};
  cov.stmt(0);
  const int w = in.width();
  const int h = in.height();
  Image out{w, h};
  for_each_3x3(in, [&](int x, int y, auto at) {
    // Row by row from the top-left neighbour: the order fixes how many
    // `v < m` outcomes come out true.
    std::uint16_t m = 0xFFFF;
    const auto scan = [&m, &cov](std::uint16_t v) {
      if (cov.cond(0, v < m)) m = v;
    };
    scan(at(-1, -1));
    scan(at(0, -1));
    scan(at(1, -1));
    scan(at(-1, 0));
    scan(at(0, 0));
    scan(at(1, 0));
    scan(at(-1, 1));
    scan(at(0, 1));
    scan(at(1, 1));
    (void)cov.branch(0, m == at(0, 0));
    out.px(x, y) = m;
    cov.stmt(1);
  });
  cov.stmt(2);
  ctx.add_ops(static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(h) * 18);
  return out;
}

// ----------------------------------------------------------------- ROOT

template <bool Cov>
Image root_body(const Image& in, Ctx ctx) {
  Tally<Cov, 3, 1, 1> cov{ctx.cov};
  cov.stmt(0);
  const int w = in.width();
  const int h = in.height();
  Image out{w, h};
  const auto& table = root_table();
  const auto src = in.data();
  const auto dst = out.data();
  for (std::size_t i = 0; i < src.size(); ++i) {
    const std::uint32_t v = src[i];
    (void)cov.cond(0, v == 0);
    dst[i] = cov.branch(0, v > 255) ? isqrt32(v << 8) : table[v];
    cov.stmt(1);
  }
  cov.stmt(2);
  // The op count models the restoring sqrt (~16 iterations per pixel), the
  // heaviest stage; the table only speeds up the host.
  ctx.add_ops(static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(h) * 52);
  return out;
}

// ----------------------------------------------------------------- EDGE

template <bool Cov>
EdgeResult sobel_body(const Image& in, std::uint16_t threshold, Ctx ctx) {
  Tally<Cov, 3, 1, 2> cov{ctx.cov};
  cov.stmt(0);
  const int w = in.width();
  const int h = in.height();
  EdgeResult r{Image{w, h}, Image{w, h}};
  for_each_3x3(in, [&](int x, int y, auto at) {
    const int p00 = at(-1, -1);
    const int p10 = at(0, -1);
    const int p20 = at(1, -1);
    const int p01 = at(-1, 0);
    const int p21 = at(1, 0);
    const int p02 = at(-1, 1);
    const int p12 = at(0, 1);
    const int p22 = at(1, 1);
    const int gx = (p20 + 2 * p21 + p22) - (p00 + 2 * p01 + p02);
    const int gy = (p02 + 2 * p12 + p22) - (p00 + 2 * p10 + p20);
    int mag = (cov.cond(0, gx < 0) ? -gx : gx) + (cov.cond(1, gy < 0) ? -gy : gy);
    if (mag > 0xFFFF) mag = 0xFFFF;
    r.magnitude.px(x, y) = static_cast<std::uint16_t>(mag);
    const bool is_edge = cov.branch(0, mag >= threshold);
    r.binary.px(x, y) = is_edge ? 1 : 0;
    cov.stmt(1);
  });
  cov.stmt(2);
  ctx.add_ops(static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(h) * 22);
  return r;
}

// -------------------------------------------------------------- ELLIPSE

template <bool Cov>
EllipseFit ellipse_body(const Image& binary, Ctx ctx) {
  Tally<Cov, 4, 2, 1> cov{ctx.cov};
  cov.stmt(0);
  const int w = binary.width();
  const int h = binary.height();
  std::int64_t m00 = 0;
  std::int64_t m10 = 0;
  std::int64_t m01 = 0;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (cov.cond(0, binary.px(x, y) != 0)) {
        ++m00;
        m10 += x;
        m01 += y;
      }
    }
  }
  EllipseFit fit;
  fit.m00 = m00;
  if (!cov.branch(0, m00 >= 16)) {
    cov.stmt(1);
    ctx.add_ops(static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(h) * 3);
    return fit;  // not found: too few edge pixels
  }
  fit.found = true;
  fit.cx = static_cast<int>(m10 / m00);
  fit.cy = static_cast<int>(m01 / m00);

  // Central second moments -> axis estimates.
  std::int64_t mu20 = 0;
  std::int64_t mu02 = 0;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (binary.px(x, y) != 0) {
        const std::int64_t dx = x - fit.cx;
        const std::int64_t dy = y - fit.cy;
        mu20 += dx * dx;
        mu02 += dy * dy;
      }
    }
  }
  // For an elliptical ring, sigma ~ a/sqrt(2): a = 2*sigma is a usable
  // half-axis estimate for cropping purposes.
  fit.axis_a = static_cast<int>(2 * isqrt32(static_cast<std::uint32_t>(mu20 / m00)));
  fit.axis_b = static_cast<int>(2 * isqrt32(static_cast<std::uint32_t>(mu02 / m00)));
  (void)cov.branch(1, fit.axis_a >= fit.axis_b);
  cov.stmt(2);
  cov.stmt(3);
  ctx.add_ops(static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(h) * 6 + 64);
  return fit;
}

// -------------------------------------------------------------- CRTBORD

template <bool Cov>
Image crop_body(const Image& src, const EllipseFit& fit, int out_size, Ctx ctx) {
  Tally<Cov, 4, 2, 2> cov{ctx.cov};
  if (out_size <= 0) throw std::invalid_argument{"crop_border: bad output size"};
  cov.stmt(0);
  Image window{out_size, out_size};

  if (!cov.branch(0, fit.found)) {
    // No face found: centred fallback crop of the whole frame.
    cov.stmt(1);
    for (int y = 0; y < out_size; ++y) {
      for (int x = 0; x < out_size; ++x) {
        const int sx = x * src.width() / out_size;
        const int sy = y * src.height() / out_size;
        window.px(x, y) = src.clamped(sx, sy);
      }
    }
    ctx.add_ops(static_cast<std::uint64_t>(out_size) * static_cast<std::uint64_t>(out_size) * 4);
    return window;
  }

  // Window = ellipse bounding box with 20% margin.
  const int half_w = std::max(4, fit.axis_a + fit.axis_a / 5);
  const int half_h = std::max(4, fit.axis_b + fit.axis_b / 5);
  (void)cov.cond(0, fit.cx - half_w < 0 || fit.cx + half_w >= src.width());
  (void)cov.cond(1, fit.cy - half_h < 0 || fit.cy + half_h >= src.height());
  for (int y = 0; y < out_size; ++y) {
    for (int x = 0; x < out_size; ++x) {
      const int sx = fit.cx - half_w + (2 * half_w * x) / out_size;
      const int sy = fit.cy - half_h + (2 * half_h * y) / out_size;
      window.px(x, y) = src.clamped(sx, sy);
      cov.stmt(2);
    }
  }
  (void)cov.branch(1, half_w > half_h);
  cov.stmt(3);
  ctx.add_ops(static_cast<std::uint64_t>(out_size) * static_cast<std::uint64_t>(out_size) * 6);
  return window;
}

// -------------------------------------------------------------- CRTLINE

template <bool Cov>
LineProfiles lines_body(const Image& window, Ctx ctx) {
  Tally<Cov, 3, 1, 0> cov{ctx.cov};
  cov.stmt(0);
  const int w = window.width();
  const int h = window.height();
  LineProfiles p;
  p.rows.assign(static_cast<std::size_t>(h), 0);
  p.cols.assign(static_cast<std::size_t>(w), 0);
  const int diag_bins = w + h - 1;
  p.diag_main.assign(static_cast<std::size_t>(diag_bins), 0);
  p.diag_anti.assign(static_cast<std::size_t>(diag_bins), 0);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const std::uint32_t v = window.px(x, y);
      p.rows[static_cast<std::size_t>(y)] += v;
      p.cols[static_cast<std::size_t>(x)] += v;
      p.diag_main[static_cast<std::size_t>(x + y)] += v;
      p.diag_anti[static_cast<std::size_t>(x - y + h - 1)] += v;
      cov.stmt(1);
    }
  }
  (void)cov.branch(0, w == h);
  cov.stmt(2);
  ctx.add_ops(static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(h) * 8);
  return p;
}

// ------------------------------------------------------------- CALCLINE

template <bool Cov>
FeatureVec features_body(const LineProfiles& profiles, Ctx ctx) {
  Tally<Cov, 3, 1, 1> cov{ctx.cov};
  cov.stmt(0);
  FeatureVec f;
  auto append = [&f, &ctx, &cov](const std::vector<std::uint32_t>& profile) {
    if (profile.empty()) return;
    // Mean removal.
    std::uint64_t sum = 0;
    for (const auto v : profile) sum += v;
    const std::int64_t mean = static_cast<std::int64_t>(sum / profile.size());
    // Energy normalisation to a Q7 scale.
    std::uint64_t energy = 0;
    for (const auto v : profile) {
      const std::int64_t d = static_cast<std::int64_t>(v) - mean;
      energy += static_cast<std::uint64_t>(d * d);
    }
    const std::uint32_t rms =
        std::max<std::uint32_t>(1, isqrt32(static_cast<std::uint32_t>(
                                       std::min<std::uint64_t>(energy / profile.size(),
                                                               0xFFFFFFFFull))));
    for (const auto v : profile) {
      const std::int64_t d = static_cast<std::int64_t>(v) - mean;
      std::int64_t q = d * 128 / rms;
      if (cov.cond(0, q > 32767 || q < -32768)) {
        q = q > 0 ? 32767 : -32768;
      }
      f.v.push_back(static_cast<std::int16_t>(q));
    }
    ctx.add_ops(profile.size() * 6);
  };
  append(profiles.rows);
  append(profiles.cols);
  append(profiles.diag_main);
  append(profiles.diag_anti);
  (void)cov.branch(0, f.v.empty());
  cov.stmt(1);
  cov.stmt(2);
  return f;
}

// ------------------------------------------------------------- CALCDIST

template <bool Cov>
std::uint32_t distance_body(const FeatureVec& a, const FeatureVec& b, Ctx ctx) {
  Tally<Cov, 2, 0, 1> cov{ctx.cov};
  if (a.v.size() != b.v.size()) {
    throw std::invalid_argument{"calc_distance: feature length mismatch"};
  }
  cov.stmt(0);
  // Hybrid L1 + scaled-L2 metric: the quadratic term sharpens separation
  // between identities and (with its multiply) makes DISTANCE one of the
  // heaviest stages — the profiling fact behind the paper's decision to
  // map DISTANCE into the FPGA.
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < a.v.size(); ++i) {
    const std::int64_t d = static_cast<int>(a.v[i]) - static_cast<int>(b.v[i]);
    const std::uint64_t mag = static_cast<std::uint64_t>(cov.cond(0, d < 0) ? -d : d);
    acc += mag + (static_cast<std::uint64_t>(d * d) >> 6);
  }
  cov.stmt(1);
  ctx.add_ops(a.v.size() * 8);
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(acc, 0xFFFFFFFFull));
}

// --------------------------------------------------------------- MOTION

template <bool Cov>
MotionResult motion_body(const Image& current, const Image& previous,
                         std::uint16_t threshold, Ctx ctx) {
  Tally<Cov, 3, 1, 1> cov{ctx.cov};
  if (current.width() != previous.width() || current.height() != previous.height()) {
    throw std::invalid_argument{"frame_difference: frame size mismatch"};
  }
  cov.stmt(0);
  const int w = current.width();
  const int h = current.height();
  MotionResult r{Image{w, h}, Image{w, h}, 0};
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const int d = static_cast<int>(current.px(x, y)) - static_cast<int>(previous.px(x, y));
      const int mag = cov.cond(0, d < 0) ? -d : d;
      r.difference.px(x, y) = static_cast<std::uint16_t>(mag);
      const bool moved = cov.branch(0, mag >= threshold);
      r.mask.px(x, y) = moved ? 1 : 0;
      if (moved) ++r.active_pixels;
      cov.stmt(1);
    }
  }
  cov.stmt(2);
  ctx.add_ops(static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(h) * 6);
  return r;
}

// --------------------------------------------------------------- WINNER

template <bool Cov>
Winner winner_body(const std::vector<std::uint32_t>& distances, Ctx ctx) {
  Tally<Cov, 2, 2, 1> cov{ctx.cov};
  cov.stmt(0);
  Winner win;
  if (!cov.branch(0, !distances.empty())) return win;
  win.index = 0;
  win.best = distances[0];
  win.second = 0xFFFFFFFFu;
  for (std::size_t i = 1; i < distances.size(); ++i) {
    if (cov.cond(0, distances[i] < win.best)) {
      win.second = win.best;
      win.best = distances[i];
      win.index = static_cast<int>(i);
    } else if (distances[i] < win.second) {
      win.second = distances[i];
    }
  }
  // Confident when the runner-up is at least 12.5% worse.
  win.confident =
      cov.branch(1, win.second == 0xFFFFFFFFu ||
                        static_cast<std::uint64_t>(win.second) * 8 >=
                            static_cast<std::uint64_t>(win.best) * 9);
  cov.stmt(1);
  ctx.add_ops(distances.size() * 3);
  return win;
}

}  // namespace

const std::vector<std::string>& pipeline_stage_names() {
  static const std::vector<std::string> names{
      stage::bay,     stage::erosion,  stage::root,     stage::edge,
      stage::ellipse, stage::crtbord,  stage::crtline,  stage::calcline,
      stage::distance, stage::winner,
  };
  return names;
}

std::uint16_t isqrt32(std::uint32_t v) noexcept {
  // Binary restoring integer square root.
  std::uint32_t result = 0;
  std::uint32_t bit = 1u << 30;
  while (bit > v) bit >>= 2;
  while (bit != 0) {
    if (v >= result + bit) {
      v -= result + bit;
      result = (result >> 1) + bit;
    } else {
      result >>= 1;
    }
    bit >>= 2;
  }
  return static_cast<std::uint16_t>(result);
}

// Each entry runs the instrumented body only when a coverage module is set.

Image bay_demosaic_luma(const Image& bayer, Ctx ctx) {
  return ctx.cov != nullptr ? bay_body<true>(bayer, ctx) : bay_body<false>(bayer, ctx);
}

Image erode3x3(const Image& in, Ctx ctx) {
  return ctx.cov != nullptr ? erode_body<true>(in, ctx) : erode_body<false>(in, ctx);
}

Image root_transform(const Image& in, Ctx ctx) {
  return ctx.cov != nullptr ? root_body<true>(in, ctx) : root_body<false>(in, ctx);
}

EdgeResult sobel_edge(const Image& in, std::uint16_t threshold, Ctx ctx) {
  return ctx.cov != nullptr ? sobel_body<true>(in, threshold, ctx)
                            : sobel_body<false>(in, threshold, ctx);
}

EllipseFit fit_ellipse(const Image& binary, Ctx ctx) {
  return ctx.cov != nullptr ? ellipse_body<true>(binary, ctx)
                            : ellipse_body<false>(binary, ctx);
}

Image crop_border(const Image& src, const EllipseFit& fit, int out_size, Ctx ctx) {
  return ctx.cov != nullptr ? crop_body<true>(src, fit, out_size, ctx)
                            : crop_body<false>(src, fit, out_size, ctx);
}

LineProfiles create_lines(const Image& window, Ctx ctx) {
  return ctx.cov != nullptr ? lines_body<true>(window, ctx) : lines_body<false>(window, ctx);
}

FeatureVec calc_line_features(const LineProfiles& profiles, Ctx ctx) {
  return ctx.cov != nullptr ? features_body<true>(profiles, ctx)
                            : features_body<false>(profiles, ctx);
}

std::uint32_t calc_distance(const FeatureVec& a, const FeatureVec& b, Ctx ctx) {
  return ctx.cov != nullptr ? distance_body<true>(a, b, ctx) : distance_body<false>(a, b, ctx);
}

MotionResult frame_difference(const Image& current, const Image& previous,
                              std::uint16_t threshold, Ctx ctx) {
  return ctx.cov != nullptr ? motion_body<true>(current, previous, threshold, ctx)
                            : motion_body<false>(current, previous, threshold, ctx);
}

Winner pick_winner(const std::vector<std::uint32_t>& distances, Ctx ctx) {
  return ctx.cov != nullptr ? winner_body<true>(distances, ctx)
                            : winner_body<false>(distances, ctx);
}

}  // namespace symbad::media
