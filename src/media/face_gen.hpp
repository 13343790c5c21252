#pragma once
// Synthetic parametric face generator + CMOS camera model.
//
// Substitution note (see DESIGN.md §2): the paper's system recognises faces
// "previously acquired by a low-resolution CMOS camera" against "a database
// of twenty different faces under multiple poses" — data we do not have.
// This module generates deterministic parametric faces: each identity is a
// vector of facial-geometry parameters derived from its index, rendered
// under a pose (translation / rotation / scale / illumination / sensor
// noise) and sampled through an RGGB Bayer mosaic, which is exactly the
// input format the BAY stage expects. The pipeline code path is identical
// to what real camera data would exercise, and recognition accuracy is
// measurable because ground truth is known.

#include <cstdint>

#include "media/image.hpp"
#include "verif/rng.hpp"

namespace symbad::media {

/// Facial geometry for one identity, in canonical 64x64 coordinates
/// (scaled at render time for other frame sizes).
struct FaceParams {
  int head_a = 22;      ///< head half-width
  int head_b = 28;      ///< head half-height
  int eye_dx = 9;       ///< eye offset from centre
  int eye_y = -6;       ///< eye row offset from centre
  int eye_r = 3;        ///< eye radius
  int pupil_r = 1;      ///< pupil radius
  int brow_dy = 6;      ///< eyebrow height above eyes
  int brow_len = 7;     ///< eyebrow half-length
  int nose_len = 8;     ///< nose length below eye line
  int mouth_y = 12;     ///< mouth row offset from centre
  int mouth_w = 8;      ///< mouth half-width
  int mouth_h = 2;      ///< mouth half-height
  int skin = 150;       ///< skin gray level
  int hair = 60;        ///< hair gray level
  int hair_line = -14;  ///< hair boundary row offset
  bool glasses = false;

  /// Deterministic parameters for identity `id` (0-based).
  [[nodiscard]] static FaceParams for_identity(int id);
};

/// Acquisition conditions for one captured frame.
struct Pose {
  int dx = 0;             ///< horizontal translation, pixels
  int dy = 0;             ///< vertical translation, pixels
  int rot_deg = 0;        ///< in-plane rotation, degrees
  int scale_q8 = 256;     ///< fixed-point zoom (256 = 1.0)
  int light_offset = 0;   ///< additive illumination change
  int noise_amp = 2;      ///< sensor noise amplitude (gray levels)
  std::uint64_t noise_seed = 1;

  [[nodiscard]] static Pose frontal() noexcept { return Pose{}; }
};

/// One recognition query: which identity is shown and under what
/// acquisition conditions. A schedule of these (e.g. from gen's seeded
/// workload generator) can replace the default round-robin query stream of
/// the application runtime.
struct QueryRequest {
  int identity = 0;
  Pose pose{};
};

/// Intensity of the canonical face at canonical coordinates (fx, fy) given
/// in Q8 fixed point relative to the face centre. Exposed for testing.
[[nodiscard]] int face_intensity(const FaceParams& params, int fx_q8, int fy_q8);

/// Renders the face as a grayscale scene image (no sensor effects).
/// Throws std::invalid_argument for a zoom (`pose.scale_q8`) <= 0.
[[nodiscard]] Image render_face(const FaceParams& params, const Pose& pose, int size = 64);

/// Full CMOS camera model: renders the scene, applies the RGGB colour
/// response per Bayer site, illumination and sensor noise. The result is a
/// raw Bayer-mosaic frame, the input of the BAY stage.
[[nodiscard]] Image camera_capture(const FaceParams& params, const Pose& pose,
                                   int size = 64);

}  // namespace symbad::media
