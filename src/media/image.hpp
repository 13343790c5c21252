#pragma once
// Grayscale image container used throughout the face recognition case study.
// Pixels are 16-bit to leave headroom for intermediate results (Sobel
// magnitudes, ROOT-transformed values).

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace symbad::media {

class Image {
public:
  Image() = default;
  Image(int width, int height, std::uint16_t fill = 0)
      : width_{width}, height_{height} {
    if (width <= 0 || height <= 0) {
      throw std::invalid_argument{"media: image dimensions must be positive"};
    }
    // Zero-filled by value-initialisation (a memset): a fill loop over a
    // runtime value stores one 16-bit pixel at a time.
    pixels_.resize(static_cast<std::size_t>(width) * static_cast<std::size_t>(height));
    if (fill != 0) std::fill(pixels_.begin(), pixels_.end(), fill);
  }

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }
  [[nodiscard]] std::size_t pixel_count() const noexcept { return pixels_.size(); }
  [[nodiscard]] bool empty() const noexcept { return pixels_.empty(); }

  [[nodiscard]] std::uint16_t& at(int x, int y) {
    check(x, y);
    return pixels_[index(x, y)];
  }
  [[nodiscard]] std::uint16_t at(int x, int y) const {
    check(x, y);
    return pixels_[index(x, y)];
  }
  /// Unchecked access for hot loops.
  [[nodiscard]] std::uint16_t& px(int x, int y) noexcept { return pixels_[index(x, y)]; }
  [[nodiscard]] std::uint16_t px(int x, int y) const noexcept { return pixels_[index(x, y)]; }

  /// Clamped read: out-of-bounds coordinates are clamped to the border
  /// (the border policy of the 2D kernels).
  [[nodiscard]] std::uint16_t clamped(int x, int y) const noexcept {
    x = x < 0 ? 0 : (x >= width_ ? width_ - 1 : x);
    y = y < 0 ? 0 : (y >= height_ ? height_ - 1 : y);
    return pixels_[index(x, y)];
  }

  [[nodiscard]] bool in_bounds(int x, int y) const noexcept {
    return x >= 0 && x < width_ && y >= 0 && y < height_;
  }

  [[nodiscard]] std::span<const std::uint16_t> data() const noexcept { return pixels_; }
  [[nodiscard]] std::span<std::uint16_t> data() noexcept { return pixels_; }

  /// FNV-1a checksum over dimensions and pixels — the value recorded into
  /// cross-level traces.
  [[nodiscard]] std::uint64_t checksum() const noexcept {
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) noexcept {
      h ^= v;
      h *= 1099511628211ULL;
    };
    mix(static_cast<std::uint64_t>(width_));
    mix(static_cast<std::uint64_t>(height_));
    for (const auto p : pixels_) mix(p);
    return h;
  }

  bool operator==(const Image&) const = default;

private:
  [[nodiscard]] std::size_t index(int x, int y) const noexcept {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
           static_cast<std::size_t>(x);
  }
  void check(int x, int y) const {
    if (!in_bounds(x, y)) throw std::out_of_range{"media: pixel access out of bounds"};
  }

  int width_ = 0;
  int height_ = 0;
  std::vector<std::uint16_t> pixels_;
};

}  // namespace symbad::media
