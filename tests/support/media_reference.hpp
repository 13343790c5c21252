#pragma once
// The media kernels and face generator as they were before their bodies
// were templated on coverage instrumentation: per-hit cov_* calls inside
// every pixel loop, Image::clamped on every neighbour read, ROOT through
// isqrt32 per pixel, face_intensity's constants per pixel. Kept verbatim
// (only `inline` added, and calls qualified where ADL would also find the
// library's overloads) as the reference the library must match bit for
// bit: outputs, `ops` counts and every coverage hit count
// (test_media's KernelReference.* and FaceReference.* suites).

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "media/face_gen.hpp"
#include "media/image.hpp"
#include "media/kernels.hpp"
#include "verif/coverage.hpp"

namespace symbad::test::reference {

using media::Ctx;
using media::EdgeResult;
using media::EllipseFit;
using media::FaceParams;
using media::FeatureVec;
using media::Image;
using media::LineProfiles;
using media::MotionResult;
using media::Pose;
using media::Winner;
using verif::cov_branch;
using verif::cov_cond;
using verif::cov_stmt;

// ------------------------------------------------------------------ BAY

inline Image bay_demosaic_luma(const Image& bayer, Ctx ctx) {
  if (ctx.cov != nullptr) {
    ctx.cov->declare_statements(5);
    ctx.cov->declare_branches(4);
    ctx.cov->declare_conditions(2);
  }
  cov_stmt(ctx.cov, 0);
  const int w = bayer.width();
  const int h = bayer.height();
  Image luma{w, h};

  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const bool even_row = (y & 1) == 0;
      const bool even_col = (x & 1) == 0;
      int r = 0;
      int g = 0;
      int b = 0;
      // RGGB pattern reconstruction (bilinear from clamped neighbours).
      if (cov_branch(ctx.cov, 0, even_row && even_col)) {
        // red site
        cov_stmt(ctx.cov, 1);
        r = bayer.clamped(x, y);
        g = (bayer.clamped(x - 1, y) + bayer.clamped(x + 1, y) +
             bayer.clamped(x, y - 1) + bayer.clamped(x, y + 1)) /
            4;
        b = (bayer.clamped(x - 1, y - 1) + bayer.clamped(x + 1, y - 1) +
             bayer.clamped(x - 1, y + 1) + bayer.clamped(x + 1, y + 1)) /
            4;
      } else if (cov_branch(ctx.cov, 1, !even_row && !even_col)) {
        // blue site
        cov_stmt(ctx.cov, 2);
        b = bayer.clamped(x, y);
        g = (bayer.clamped(x - 1, y) + bayer.clamped(x + 1, y) +
             bayer.clamped(x, y - 1) + bayer.clamped(x, y + 1)) /
            4;
        r = (bayer.clamped(x - 1, y - 1) + bayer.clamped(x + 1, y - 1) +
             bayer.clamped(x - 1, y + 1) + bayer.clamped(x + 1, y + 1)) /
            4;
      } else {
        // green site; red/blue neighbours depend on the row parity.
        cov_stmt(ctx.cov, 3);
        g = bayer.clamped(x, y);
        if (cov_branch(ctx.cov, 2, even_row)) {
          r = (bayer.clamped(x - 1, y) + bayer.clamped(x + 1, y)) / 2;
          b = (bayer.clamped(x, y - 1) + bayer.clamped(x, y + 1)) / 2;
        } else {
          b = (bayer.clamped(x - 1, y) + bayer.clamped(x + 1, y)) / 2;
          r = (bayer.clamped(x, y - 1) + bayer.clamped(x, y + 1)) / 2;
        }
      }
      // ITU-601-ish integer luma.
      int value = (77 * r + 150 * g + 29 * b) >> 8;
      if (cov_cond(ctx.cov, 0, value > 255)) value = 255;
      if (cov_cond(ctx.cov, 1, value < 0)) value = 0;
      (void)cov_branch(ctx.cov, 3, (x == 0 || y == 0 || x == w - 1 || y == h - 1));
      luma.px(x, y) = static_cast<std::uint16_t>(value);
    }
  }
  cov_stmt(ctx.cov, 4);
  ctx.add_ops(static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(h) * 12);
  return luma;
}

// -------------------------------------------------------------- EROSION

inline Image erode3x3(const Image& in, Ctx ctx) {
  if (ctx.cov != nullptr) {
    ctx.cov->declare_statements(3);
    ctx.cov->declare_branches(1);
    ctx.cov->declare_conditions(1);
  }
  cov_stmt(ctx.cov, 0);
  const int w = in.width();
  const int h = in.height();
  Image out{w, h};
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      std::uint16_t m = 0xFFFF;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const std::uint16_t v = in.clamped(x + dx, y + dy);
          if (cov_cond(ctx.cov, 0, v < m)) m = v;
        }
      }
      (void)cov_branch(ctx.cov, 0, m == in.px(x, y));
      out.px(x, y) = m;
      cov_stmt(ctx.cov, 1);
    }
  }
  cov_stmt(ctx.cov, 2);
  ctx.add_ops(static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(h) * 18);
  return out;
}

// ----------------------------------------------------------------- ROOT

inline std::uint16_t isqrt32(std::uint32_t v) noexcept {
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

inline Image root_transform(const Image& in, Ctx ctx) {
  if (ctx.cov != nullptr) {
    ctx.cov->declare_statements(3);
    ctx.cov->declare_branches(1);
    ctx.cov->declare_conditions(1);
  }
  cov_stmt(ctx.cov, 0);
  const int w = in.width();
  const int h = in.height();
  Image out{w, h};
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const std::uint32_t v = in.px(x, y);
      (void)cov_cond(ctx.cov, 0, v == 0);
      (void)cov_branch(ctx.cov, 0, v > 255);
      out.px(x, y) = isqrt32(v << 8);
      cov_stmt(ctx.cov, 1);
    }
  }
  cov_stmt(ctx.cov, 2);
  // The restoring sqrt iterates ~16 times per pixel: the heaviest stage.
  ctx.add_ops(static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(h) * 52);
  return out;
}

// ----------------------------------------------------------------- EDGE

inline EdgeResult sobel_edge(const Image& in, std::uint16_t threshold, Ctx ctx) {
  if (ctx.cov != nullptr) {
    ctx.cov->declare_statements(3);
    ctx.cov->declare_branches(1);
    ctx.cov->declare_conditions(2);
  }
  cov_stmt(ctx.cov, 0);
  const int w = in.width();
  const int h = in.height();
  EdgeResult r{Image{w, h}, Image{w, h}};
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const int p00 = in.clamped(x - 1, y - 1);
      const int p10 = in.clamped(x, y - 1);
      const int p20 = in.clamped(x + 1, y - 1);
      const int p01 = in.clamped(x - 1, y);
      const int p21 = in.clamped(x + 1, y);
      const int p02 = in.clamped(x - 1, y + 1);
      const int p12 = in.clamped(x, y + 1);
      const int p22 = in.clamped(x + 1, y + 1);
      const int gx = (p20 + 2 * p21 + p22) - (p00 + 2 * p01 + p02);
      const int gy = (p02 + 2 * p12 + p22) - (p00 + 2 * p10 + p20);
      int mag = (cov_cond(ctx.cov, 0, gx < 0) ? -gx : gx) +
                (cov_cond(ctx.cov, 1, gy < 0) ? -gy : gy);
      if (mag > 0xFFFF) mag = 0xFFFF;
      r.magnitude.px(x, y) = static_cast<std::uint16_t>(mag);
      const bool is_edge = cov_branch(ctx.cov, 0, mag >= threshold);
      r.binary.px(x, y) = is_edge ? 1 : 0;
      cov_stmt(ctx.cov, 1);
    }
  }
  cov_stmt(ctx.cov, 2);
  ctx.add_ops(static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(h) * 22);
  return r;
}

// -------------------------------------------------------------- ELLIPSE

inline EllipseFit fit_ellipse(const Image& binary, Ctx ctx) {
  if (ctx.cov != nullptr) {
    ctx.cov->declare_statements(4);
    ctx.cov->declare_branches(2);
    ctx.cov->declare_conditions(1);
  }
  cov_stmt(ctx.cov, 0);
  const int w = binary.width();
  const int h = binary.height();
  std::int64_t m00 = 0;
  std::int64_t m10 = 0;
  std::int64_t m01 = 0;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (cov_cond(ctx.cov, 0, binary.px(x, y) != 0)) {
        ++m00;
        m10 += x;
        m01 += y;
      }
    }
  }
  EllipseFit fit;
  fit.m00 = m00;
  if (!cov_branch(ctx.cov, 0, m00 >= 16)) {
    cov_stmt(ctx.cov, 1);
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
  (void)cov_branch(ctx.cov, 1, fit.axis_a >= fit.axis_b);
  cov_stmt(ctx.cov, 2);
  cov_stmt(ctx.cov, 3);
  ctx.add_ops(static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(h) * 6 + 64);
  return fit;
}

// -------------------------------------------------------------- CRTBORD

inline Image crop_border(const Image& src, const EllipseFit& fit, int out_size, Ctx ctx) {
  if (ctx.cov != nullptr) {
    ctx.cov->declare_statements(4);
    ctx.cov->declare_branches(2);
    ctx.cov->declare_conditions(2);
  }
  if (out_size <= 0) throw std::invalid_argument{"crop_border: bad output size"};
  cov_stmt(ctx.cov, 0);
  Image window{out_size, out_size};

  if (!cov_branch(ctx.cov, 0, fit.found)) {
    // No face found: centred fallback crop of the whole frame.
    cov_stmt(ctx.cov, 1);
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
  (void)cov_cond(ctx.cov, 0, fit.cx - half_w < 0 || fit.cx + half_w >= src.width());
  (void)cov_cond(ctx.cov, 1, fit.cy - half_h < 0 || fit.cy + half_h >= src.height());
  for (int y = 0; y < out_size; ++y) {
    for (int x = 0; x < out_size; ++x) {
      const int sx = fit.cx - half_w + (2 * half_w * x) / out_size;
      const int sy = fit.cy - half_h + (2 * half_h * y) / out_size;
      window.px(x, y) = src.clamped(sx, sy);
      cov_stmt(ctx.cov, 2);
    }
  }
  (void)cov_branch(ctx.cov, 1, half_w > half_h);
  cov_stmt(ctx.cov, 3);
  ctx.add_ops(static_cast<std::uint64_t>(out_size) * static_cast<std::uint64_t>(out_size) * 6);
  return window;
}

// -------------------------------------------------------------- CRTLINE

inline LineProfiles create_lines(const Image& window, Ctx ctx) {
  if (ctx.cov != nullptr) {
    ctx.cov->declare_statements(3);
    ctx.cov->declare_branches(1);
  }
  cov_stmt(ctx.cov, 0);
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
      cov_stmt(ctx.cov, 1);
    }
  }
  (void)cov_branch(ctx.cov, 0, w == h);
  cov_stmt(ctx.cov, 2);
  ctx.add_ops(static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(h) * 8);
  return p;
}

// ------------------------------------------------------------- CALCLINE

inline FeatureVec calc_line_features(const LineProfiles& profiles, Ctx ctx) {
  if (ctx.cov != nullptr) {
    ctx.cov->declare_statements(3);
    ctx.cov->declare_branches(1);
    ctx.cov->declare_conditions(1);
  }
  cov_stmt(ctx.cov, 0);
  FeatureVec f;
  auto append = [&f, &ctx](const std::vector<std::uint32_t>& profile) {
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
      if (cov_cond(ctx.cov, 0, q > 32767 || q < -32768)) {
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
  (void)cov_branch(ctx.cov, 0, f.v.empty());
  cov_stmt(ctx.cov, 1);
  cov_stmt(ctx.cov, 2);
  return f;
}

// ------------------------------------------------------------- CALCDIST

inline std::uint32_t calc_distance(const FeatureVec& a, const FeatureVec& b, Ctx ctx) {
  if (ctx.cov != nullptr) {
    ctx.cov->declare_statements(2);
    ctx.cov->declare_conditions(1);
  }
  if (a.v.size() != b.v.size()) {
    throw std::invalid_argument{"calc_distance: feature length mismatch"};
  }
  cov_stmt(ctx.cov, 0);
  // Hybrid L1 + scaled-L2 metric: the quadratic term sharpens separation
  // between identities and (with its multiply) makes DISTANCE one of the
  // heaviest stages — the profiling fact behind the paper's decision to
  // map DISTANCE into the FPGA.
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < a.v.size(); ++i) {
    const std::int64_t d = static_cast<int>(a.v[i]) - static_cast<int>(b.v[i]);
    const std::uint64_t mag = static_cast<std::uint64_t>(cov_cond(ctx.cov, 0, d < 0) ? -d : d);
    acc += mag + (static_cast<std::uint64_t>(d * d) >> 6);
  }
  cov_stmt(ctx.cov, 1);
  ctx.add_ops(a.v.size() * 8);
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(acc, 0xFFFFFFFFull));
}

// --------------------------------------------------------------- MOTION

inline MotionResult frame_difference(const Image& current, const Image& previous,
                              std::uint16_t threshold, Ctx ctx) {
  if (ctx.cov != nullptr) {
    ctx.cov->declare_statements(3);
    ctx.cov->declare_branches(1);
    ctx.cov->declare_conditions(1);
  }
  if (current.width() != previous.width() || current.height() != previous.height()) {
    throw std::invalid_argument{"frame_difference: frame size mismatch"};
  }
  cov_stmt(ctx.cov, 0);
  const int w = current.width();
  const int h = current.height();
  MotionResult r{Image{w, h}, Image{w, h}, 0};
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const int d = static_cast<int>(current.px(x, y)) - static_cast<int>(previous.px(x, y));
      const int mag = cov_cond(ctx.cov, 0, d < 0) ? -d : d;
      r.difference.px(x, y) = static_cast<std::uint16_t>(mag);
      const bool moved = cov_branch(ctx.cov, 0, mag >= threshold);
      r.mask.px(x, y) = moved ? 1 : 0;
      if (moved) ++r.active_pixels;
      cov_stmt(ctx.cov, 1);
    }
  }
  cov_stmt(ctx.cov, 2);
  ctx.add_ops(static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(h) * 6);
  return r;
}

// --------------------------------------------------------------- WINNER

inline Winner pick_winner(const std::vector<std::uint32_t>& distances, Ctx ctx) {
  if (ctx.cov != nullptr) {
    ctx.cov->declare_statements(2);
    ctx.cov->declare_branches(2);
    ctx.cov->declare_conditions(1);
  }
  cov_stmt(ctx.cov, 0);
  Winner win;
  if (!cov_branch(ctx.cov, 0, !distances.empty())) return win;
  win.index = 0;
  win.best = distances[0];
  win.second = 0xFFFFFFFFu;
  for (std::size_t i = 1; i < distances.size(); ++i) {
    if (cov_cond(ctx.cov, 0, distances[i] < win.best)) {
      win.second = win.best;
      win.best = distances[i];
      win.index = static_cast<int>(i);
    } else if (distances[i] < win.second) {
      win.second = distances[i];
    }
  }
  // Confident when the runner-up is at least 12.5% worse.
  win.confident =
      cov_branch(ctx.cov, 1, win.second == 0xFFFFFFFFu ||
                                 static_cast<std::uint64_t>(win.second) * 8 >=
                                     static_cast<std::uint64_t>(win.best) * 9);
  cov_stmt(ctx.cov, 1);
  ctx.add_ops(distances.size() * 3);
  return win;
}

// ------------------------------------------------------------- face gen

namespace face_detail {

/// Q15 sine table at 1-degree resolution, built once. Trigonometric values
/// are quantised so that rendering is bit-exact across platforms.
inline const std::array<int, 360>& sin_q15_table() {
  static const std::array<int, 360> table = [] {
    std::array<int, 360> t{};
    for (int d = 0; d < 360; ++d) {
      t[static_cast<std::size_t>(d)] =
          static_cast<int>(std::lround(std::sin(d * 3.14159265358979323846 / 180.0) * 32768.0));
    }
    return t;
  }();
  return table;
}

inline int sin_q15(int deg) {
  deg %= 360;
  if (deg < 0) deg += 360;
  return sin_q15_table()[static_cast<std::size_t>(deg)];
}

inline int cos_q15(int deg) { return sin_q15(deg + 90); }

/// Integer test for point inside an axis-aligned ellipse (Q8 coords).
constexpr bool in_ellipse_q8(std::int64_t x_q8, std::int64_t y_q8, std::int64_t a,
                             std::int64_t b) noexcept {
  // (x/a)^2 + (y/b)^2 <= 1, scaled: (x*b)^2 + (y*a)^2 <= (a*b*256)^2
  const std::int64_t lhs = x_q8 * b * x_q8 * b + y_q8 * a * y_q8 * a;
  const std::int64_t rhs = a * b * 256;
  return lhs <= rhs * rhs;
}

constexpr int clamp255(int v) noexcept { return v < 0 ? 0 : (v > 255 ? 255 : v); }

}  // namespace face_detail

using face_detail::clamp255;
using face_detail::cos_q15;
using face_detail::in_ellipse_q8;
using face_detail::sin_q15;
inline int face_intensity(const FaceParams& p, int fx_q8, int fy_q8) {
  // Background: soft vertical gradient.
  int value = 210 - (fy_q8 >> 6);

  if (in_ellipse_q8(fx_q8, fy_q8, p.head_a, p.head_b)) {
    value = p.skin;
    // Hair: upper part of the head.
    if (fy_q8 < p.hair_line * 256) value = p.hair;

    const int ax = fx_q8 < 0 ? -fx_q8 : fx_q8;  // |x|
    // Eyes (mirrored left/right).
    const std::int64_t ex = ax - p.eye_dx * 256;
    const std::int64_t ey = fy_q8 - p.eye_y * 256;
    if (in_ellipse_q8(ex, ey, p.eye_r + 1, p.eye_r)) value = 200;  // sclera
    if (in_ellipse_q8(ex, ey, p.pupil_r + 1, p.pupil_r)) value = 25;  // pupil
    // Eyebrows.
    const int brow_y = (p.eye_y - p.brow_dy) * 256;
    if (fy_q8 >= brow_y - 128 && fy_q8 <= brow_y + 128 &&
        ax >= (p.eye_dx - p.brow_len) * 256 && ax <= (p.eye_dx + p.brow_len / 2) * 256) {
      value = 50;
    }
    // Glasses: ring around each eye.
    if (p.glasses) {
      const bool outer = in_ellipse_q8(ex, ey, p.eye_r + 3, p.eye_r + 2);
      const bool inner = in_ellipse_q8(ex, ey, p.eye_r + 2, p.eye_r + 1);
      if (outer && !inner) value = 35;
      // Bridge between lenses.
      if (fy_q8 >= (p.eye_y - 1) * 256 && fy_q8 <= (p.eye_y + 1) * 256 &&
          ax <= (p.eye_dx - p.eye_r - 2) * 256) {
        value = 35;
      }
    }
    // Nose: vertical stroke from eye line downward.
    if (ax <= 192 && fy_q8 >= p.eye_y * 256 && fy_q8 <= (p.eye_y + p.nose_len) * 256) {
      value = p.skin - 30;
    }
    // Mouth.
    if (ax <= p.mouth_w * 256 && fy_q8 >= (p.mouth_y - p.mouth_h) * 256 &&
        fy_q8 <= (p.mouth_y + p.mouth_h) * 256) {
      value = 70;
    }
  }
  return clamp255(value);
}

inline Image render_face(const FaceParams& params, const Pose& pose, int size) {
  Image out{size, size};
  const int half = size / 2;
  const int c = cos_q15(-pose.rot_deg);
  const int s = sin_q15(-pose.rot_deg);
  // Canonical geometry is defined for a 64x64 frame; scale accordingly.
  const std::int64_t frame_scale_q8 = (64 * 256) / size;
  const std::int64_t inv_zoom_q8 = (256 * 256) / pose.scale_q8;

  for (int y = 0; y < size; ++y) {
    for (int x = 0; x < size; ++x) {
      // Target pixel -> centred coords, undo translation.
      const std::int64_t tx = (x - half - pose.dx);
      const std::int64_t ty = (y - half - pose.dy);
      // Undo rotation (Q15 trig -> Q8 coordinates).
      std::int64_t rx_q8 = (tx * c - ty * s) >> 7;  // *256/32768
      std::int64_t ry_q8 = (tx * s + ty * c) >> 7;
      // Undo zoom and frame scaling.
      rx_q8 = rx_q8 * inv_zoom_q8 / 256;
      ry_q8 = ry_q8 * inv_zoom_q8 / 256;
      rx_q8 = rx_q8 * frame_scale_q8 / 256;
      ry_q8 = ry_q8 * frame_scale_q8 / 256;
      out.px(x, y) = static_cast<std::uint16_t>(
          reference::face_intensity(params, static_cast<int>(rx_q8), static_cast<int>(ry_q8)));
    }
  }
  return out;
}

inline Image camera_capture(const FaceParams& params, const Pose& pose, int size) {
  const Image scene = reference::render_face(params, pose, size);
  Image bayer{size, size};
  verif::Rng noise{pose.noise_seed};
  // Spectral response per RGGB site relative to the gray scene
  // (Q8 gains: R=0.85, G=1.0, B=0.75).
  for (int y = 0; y < size; ++y) {
    for (int x = 0; x < size; ++x) {
      const bool even_row = (y & 1) == 0;
      const bool even_col = (x & 1) == 0;
      int gain_q8 = 256;  // green
      if (even_row && even_col) gain_q8 = 218;       // red site
      else if (!even_row && !even_col) gain_q8 = 192; // blue site
      int v = static_cast<int>(scene.px(x, y)) * gain_q8 / 256;
      v += pose.light_offset;
      if (pose.noise_amp > 0) {
        v += static_cast<int>(noise.range(-pose.noise_amp, pose.noise_amp));
      }
      bayer.px(x, y) = static_cast<std::uint16_t>(clamp255(v));
    }
  }
  return bayer;
}

}  // namespace symbad::test::reference
