#pragma once
// The image-processing kernels of the face recognition pipeline
// (paper Figure 2): BAY, EROSION, ROOT, EDGE, ELLIPSE, CRTBORD, CRTLINE,
// CALCLINE, CALCDIST, WINNER.
//
// Every kernel is a pure function over images/feature data plus an optional
// `Ctx` that carries (a) a coverage-module handle for the Laerte++-style
// instrumentation and (b) an operation counter used by the flow's profiling
// step (level 1 -> level 2 HW/SW partitioning is driven by these counts).
// See docs/ARCHITECTURE.md, "Media kernels", for how the kernels keep
// coverage off their pixel loops.

#include <cstdint>
#include <vector>

#include "media/image.hpp"
#include "verif/coverage.hpp"

namespace symbad::media {

/// Instrumentation context threaded through kernels. A kernel picks its
/// instrumented body once per call, when `cov` is set: that body counts
/// statement, branch and condition outcomes in locals and adds them to
/// `cov` when the call returns, and the other body has no coverage code.
/// `ops`, when set, receives the call's operation count. A
/// default-constructed context disables both.
struct Ctx {
  verif::CovModule* cov = nullptr;
  std::uint64_t* ops = nullptr;

  void add_ops(std::uint64_t n) const noexcept {
    if (ops != nullptr) *ops += n;
  }
};

/// Canonical stage names (shared by profiling, partitioning and traces).
namespace stage {
inline constexpr const char* camera = "CAMERA";
inline constexpr const char* bay = "BAY";
inline constexpr const char* erosion = "EROSION";
inline constexpr const char* root = "ROOT";
inline constexpr const char* edge = "EDGE";
inline constexpr const char* ellipse = "ELLIPSE";
inline constexpr const char* crtbord = "CRTBORD";
inline constexpr const char* crtline = "CRTLINE";
inline constexpr const char* calcline = "CALCLINE";
inline constexpr const char* distance = "DISTANCE";
inline constexpr const char* winner = "WINNER";
inline constexpr const char* database = "DATABASE";
}  // namespace stage

// --------------------------------------------------------------- stages

/// BAY: bilinear RGGB demosaic followed by luma extraction.
[[nodiscard]] Image bay_demosaic_luma(const Image& bayer, Ctx ctx = {});

/// EROSION: 3x3 grayscale erosion (min filter).
[[nodiscard]] Image erode3x3(const Image& in, Ctx ctx = {});

/// ROOT: per-pixel integer square root contrast transform
/// out = floor(sqrt(in << 8)).
[[nodiscard]] Image root_transform(const Image& in, Ctx ctx = {});

/// Integer sqrt (binary restoring method) — exposed because the level-4 RTL
/// implementation of ROOT is verified against it.
[[nodiscard]] std::uint16_t isqrt32(std::uint32_t v) noexcept;

/// EDGE: Sobel gradient magnitude + threshold.
struct EdgeResult {
  Image magnitude;
  Image binary;  ///< 0 / 1 edge map
};
[[nodiscard]] EdgeResult sobel_edge(const Image& in, std::uint16_t threshold,
                                    Ctx ctx = {});

/// ELLIPSE: moment-based fit of the dominant blob of a binary edge map.
struct EllipseFit {
  bool found = false;
  int cx = 0;       ///< centroid x
  int cy = 0;       ///< centroid y
  int axis_a = 0;   ///< major half-axis estimate
  int axis_b = 0;   ///< minor half-axis estimate
  std::int64_t m00 = 0;  ///< blob mass (edge pixel count)
};
[[nodiscard]] EllipseFit fit_ellipse(const Image& binary, Ctx ctx = {});

/// CRTBORD: crops a window around the fitted ellipse and rescales it to
/// `out_size` x `out_size` (nearest neighbour).
[[nodiscard]] Image crop_border(const Image& src, const EllipseFit& fit, int out_size,
                                Ctx ctx = {});

/// CRTLINE: projection profiles (row sums, column sums, two diagonals).
struct LineProfiles {
  std::vector<std::uint32_t> rows;
  std::vector<std::uint32_t> cols;
  std::vector<std::uint32_t> diag_main;
  std::vector<std::uint32_t> diag_anti;

  [[nodiscard]] std::size_t total_elements() const noexcept {
    return rows.size() + cols.size() + diag_main.size() + diag_anti.size();
  }
};
[[nodiscard]] LineProfiles create_lines(const Image& window, Ctx ctx = {});

/// CALCLINE: converts profiles into a normalised feature vector
/// (mean removal + energy normalisation, Q7 fixed point).
struct FeatureVec {
  std::vector<std::int16_t> v;

  bool operator==(const FeatureVec&) const = default;
  [[nodiscard]] std::uint64_t checksum() const noexcept {
    std::uint64_t h = 1469598103934665603ULL;
    for (const auto x : v) {
      h ^= static_cast<std::uint16_t>(x);
      h *= 1099511628211ULL;
    }
    return h;
  }
};
[[nodiscard]] FeatureVec calc_line_features(const LineProfiles& profiles, Ctx ctx = {});

/// CALCDIST: L1 distance between two feature vectors.
[[nodiscard]] std::uint32_t calc_distance(const FeatureVec& a, const FeatureVec& b,
                                          Ctx ctx = {});

/// MOTION: absolute frame difference + threshold. Not part of the face
/// recognition pipeline — it is the core kernel of the *same-family*
/// surveillance/webcam application the reconfigurable platform also hosts
/// (paper §4: "leaving flexibility to possibly implement other applications
/// of the same family").
struct MotionResult {
  Image difference;
  Image mask;  ///< 0/1 changed-pixel map
  std::uint32_t active_pixels = 0;
};
[[nodiscard]] MotionResult frame_difference(const Image& current, const Image& previous,
                                            std::uint16_t threshold, Ctx ctx = {});

/// WINNER: index of the smallest distance + separation confidence.
struct Winner {
  int index = -1;            ///< winning database entry
  std::uint32_t best = 0;    ///< winning distance
  std::uint32_t second = 0;  ///< runner-up distance
  bool confident = false;    ///< best is clearly separated from runner-up
};
[[nodiscard]] Winner pick_winner(const std::vector<std::uint32_t>& distances,
                                 Ctx ctx = {});

}  // namespace symbad::media
