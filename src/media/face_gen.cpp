#include "media/face_gen.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace symbad::media {

namespace {

/// Q15 sine table at 1-degree resolution, built once. Trigonometric values
/// are quantised so that rendering is bit-exact across platforms.
const std::array<int, 360>& sin_q15_table() {
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

int sin_q15(int deg) {
  deg %= 360;
  if (deg < 0) deg += 360;
  return sin_q15_table()[static_cast<std::size_t>(deg)];
}

int cos_q15(int deg) { return sin_q15(deg + 90); }

/// Integer test for a point inside an axis-aligned ellipse with half-axes
/// a and b (Q8 coordinates): (x/a)^2 + (y/b)^2 <= 1, scaled to
/// (x*b)^2 + (y*a)^2 <= (a*b*256)^2, with the axis terms squared once.
/// With both axes positive that implies |x| <= a*256 and |y| <= b*256: the
/// ellipse's bounding box.
struct EllipseQ8 {
  std::int64_t a2;
  std::int64_t b2;
  std::int64_t r2;
  std::int64_t box_x;  ///< a*256, or -1 when an axis is not positive
  std::int64_t box_y;  ///< b*256 likewise

  EllipseQ8(std::int64_t a, std::int64_t b) noexcept
      : a2{a * a},
        b2{b * b},
        r2{(a * b * 256) * (a * b * 256)},
        box_x{a > 0 && b > 0 ? a * 256 : -1},
        box_y{a > 0 && b > 0 ? b * 256 : -1} {}
  [[nodiscard]] bool contains(std::int64_t x_q8, std::int64_t y_q8) const noexcept {
    return x_q8 * x_q8 * b2 + y_q8 * y_q8 * a2 <= r2;
  }
};

constexpr int clamp255(int v) noexcept { return v < 0 ? 0 : (v > 255 ? 255 : v); }

/// One identity's face in Q8 canonical coordinates: every per-face
/// constant of face_intensity, computed once per render rather than once
/// per pixel.
class FaceQ8 {
public:
  explicit FaceQ8(const FaceParams& p)
      : skin_{p.skin},
        hair_{p.hair},
        glasses_{p.glasses},
        head_{p.head_a, p.head_b},
        sclera_{p.eye_r + 1, p.eye_r},
        pupil_{p.pupil_r + 1, p.pupil_r},
        glasses_outer_{p.eye_r + 3, p.eye_r + 2},
        glasses_inner_{p.eye_r + 2, p.eye_r + 1},
        hair_line_{p.hair_line * 256},
        eye_dx_{p.eye_dx * 256},
        eye_y_{p.eye_y * 256},
        brow_y_{(p.eye_y - p.brow_dy) * 256},
        brow_x0_{(p.eye_dx - p.brow_len) * 256},
        brow_x1_{(p.eye_dx + p.brow_len / 2) * 256},
        bridge_y0_{(p.eye_y - 1) * 256},
        bridge_y1_{(p.eye_y + 1) * 256},
        bridge_x_{(p.eye_dx - p.eye_r - 2) * 256},
        nose_y1_{(p.eye_y + p.nose_len) * 256},
        mouth_x_{p.mouth_w * 256},
        mouth_y0_{(p.mouth_y - p.mouth_h) * 256},
        mouth_y1_{(p.mouth_y + p.mouth_h) * 256} {
    // One box around every eye ellipse, when each has one.
    for (const EllipseQ8* e : {&sclera_, &pupil_, &glasses_outer_, &glasses_inner_}) {
      if (e->box_x < 0) {
        eye_box_x_ = -1;
        break;
      }
      eye_box_x_ = std::max(eye_box_x_, e->box_x);
      eye_box_y_ = std::max(eye_box_y_, e->box_y);
    }
  }

  [[nodiscard]] int intensity(int fx_q8, int fy_q8) const {
    // Background: soft vertical gradient.
    int value = 210 - (fy_q8 >> 6);

    if (head_.contains(fx_q8, fy_q8)) {
      value = skin_;
      // Hair: upper part of the head.
      if (fy_q8 < hair_line_) value = hair_;

      const int ax = fx_q8 < 0 ? -fx_q8 : fx_q8;  // |x|
      // Eyes (mirrored left/right), tested only near an eye.
      const std::int64_t ex = ax - eye_dx_;
      const std::int64_t ey = fy_q8 - eye_y_;
      const bool near_eye = eye_box_x_ < 0 || (ex <= eye_box_x_ && -ex <= eye_box_x_ &&
                                               ey <= eye_box_y_ && -ey <= eye_box_y_);
      if (near_eye) {
        if (sclera_.contains(ex, ey)) value = 200;
        if (pupil_.contains(ex, ey)) value = 25;
      }
      // Eyebrows.
      if (fy_q8 >= brow_y_ - 128 && fy_q8 <= brow_y_ + 128 && ax >= brow_x0_ &&
          ax <= brow_x1_) {
        value = 50;
      }
      // Glasses: ring around each eye.
      if (glasses_) {
        if (near_eye && glasses_outer_.contains(ex, ey) && !glasses_inner_.contains(ex, ey)) {
          value = 35;
        }
        // Bridge between lenses.
        if (fy_q8 >= bridge_y0_ && fy_q8 <= bridge_y1_ && ax <= bridge_x_) value = 35;
      }
      // Nose: vertical stroke from eye line downward.
      if (ax <= 192 && fy_q8 >= eye_y_ && fy_q8 <= nose_y1_) value = skin_ - 30;
      // Mouth.
      if (ax <= mouth_x_ && fy_q8 >= mouth_y0_ && fy_q8 <= mouth_y1_) value = 70;
    }
    return clamp255(value);
  }

private:
  int skin_;
  int hair_;
  bool glasses_;
  EllipseQ8 head_;
  EllipseQ8 sclera_;
  EllipseQ8 pupil_;
  EllipseQ8 glasses_outer_;
  EllipseQ8 glasses_inner_;
  int hair_line_;
  int eye_dx_;
  int eye_y_;
  int brow_y_;
  int brow_x0_;
  int brow_x1_;
  int bridge_y0_;
  int bridge_y1_;
  int bridge_x_;
  int nose_y1_;
  int mouth_x_;
  int mouth_y0_;
  int mouth_y1_;
  std::int64_t eye_box_x_ = 0;  ///< the eyes' box, or -1 when one has none
  std::int64_t eye_box_y_ = 0;
};

}  // namespace

FaceParams FaceParams::for_identity(int id) {
  verif::Rng rng{0xFACE0000ULL + static_cast<std::uint64_t>(id)};
  FaceParams p;
  p.head_a = static_cast<int>(rng.range(18, 24));
  p.head_b = static_cast<int>(rng.range(24, 30));
  p.eye_dx = static_cast<int>(rng.range(7, 11));
  p.eye_y = static_cast<int>(rng.range(-9, -4));
  p.eye_r = static_cast<int>(rng.range(2, 4));
  p.pupil_r = 1;
  p.brow_dy = static_cast<int>(rng.range(4, 7));
  p.brow_len = static_cast<int>(rng.range(5, 9));
  p.nose_len = static_cast<int>(rng.range(6, 11));
  p.mouth_y = static_cast<int>(rng.range(10, 15));
  p.mouth_w = static_cast<int>(rng.range(5, 10));
  p.mouth_h = static_cast<int>(rng.range(1, 3));
  p.skin = static_cast<int>(rng.range(135, 170));
  p.hair = static_cast<int>(rng.range(40, 90));
  p.hair_line = static_cast<int>(rng.range(-18, -11));
  p.glasses = rng.chance(0.3);
  return p;
}

int face_intensity(const FaceParams& params, int fx_q8, int fy_q8) {
  return FaceQ8{params}.intensity(fx_q8, fy_q8);
}

Image render_face(const FaceParams& params, const Pose& pose, int size) {
  if (pose.scale_q8 <= 0) throw std::invalid_argument{"render_face: zoom must be positive"};
  Image out{size, size};
  const FaceQ8 face{params};
  const int half = size / 2;
  const int c = cos_q15(-pose.rot_deg);
  const int s = sin_q15(-pose.rot_deg);
  // Canonical geometry is defined for a 64x64 frame; scale accordingly.
  // At that size the frame scale is 1 (256 in Q8) and changes nothing.
  const std::int64_t frame_scale_q8 = (64 * 256) / size;
  const bool rescale = frame_scale_q8 != 256;
  const std::int64_t inv_zoom_q8 = (256 * 256) / pose.scale_q8;
  // Undo zoom and frame scaling.
  const auto unscale = [&](std::int64_t v_q8) {
    v_q8 = v_q8 * inv_zoom_q8 / 256;
    return static_cast<int>(rescale ? v_q8 * frame_scale_q8 / 256 : v_q8);
  };

  std::uint16_t* dst = out.data().data();
  for (int y = 0; y < size; ++y) {
    // Target pixel -> centred coords, undo translation, then rotation (Q15
    // trig): tx*c - ty*s and tx*s + ty*c, which grow by c and s per pixel.
    const std::int64_t ty = y - half - pose.dy;
    const std::int64_t tx0 = -half - pose.dx;
    std::int64_t rx = tx0 * c - ty * s;
    std::int64_t ry = tx0 * s + ty * c;
    for (int x = 0; x < size; ++x, rx += c, ry += s) {
      // Q15 -> Q8 coordinates: *256/32768.
      *dst++ = static_cast<std::uint16_t>(face.intensity(unscale(rx >> 7), unscale(ry >> 7)));
    }
  }
  return out;
}

Image camera_capture(const FaceParams& params, const Pose& pose, int size) {
  const Image scene = render_face(params, pose, size);
  Image bayer{size, size};
  verif::Rng noise{pose.noise_seed};
  const int light = pose.light_offset;
  const int amp = pose.noise_amp;
  const std::uint16_t* src = scene.data().data();
  std::uint16_t* dst = bayer.data().data();
  for (int y = 0; y < size; ++y) {
    // Spectral response per RGGB site relative to the gray scene (Q8
    // gains: R=0.85, G=1.0, B=0.75), for even and odd columns of the row.
    const bool even_row = (y & 1) == 0;
    const std::array<int, 2> gain_q8{even_row ? 218 : 256, even_row ? 256 : 192};
    for (int x = 0; x < size; ++x, ++src, ++dst) {
      // The scene is >= 0, so the shift is the division by 256.
      int v = ((*src * gain_q8[static_cast<std::size_t>(x & 1)]) >> 8) + light;
      if (amp > 0) v += static_cast<int>(noise.range(-amp, amp));
      *dst = static_cast<std::uint16_t>(clamp255(v));
    }
  }
  return bayer;
}

}  // namespace symbad::media
