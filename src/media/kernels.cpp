#include "media/kernels.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace symbad::media {

namespace {

// GCC vector-extension types (clang accepts them too). At the x86-64
// baseline a 16-byte vector is one SSE2 register.

/// Eight 16-bit pixels: one neighbour of eight consecutive pixels.
using Px8 = std::uint16_t __attribute__((vector_size(16)));
/// What comparing two Px8 gives: a lane mask, each lane 0 or all ones.
using I16x8 = std::int16_t __attribute__((vector_size(16)));
using I32x4 = std::int32_t __attribute__((vector_size(16)));

/// Eight 32-bit lanes in one 32-byte vector: only converted to or from.
using Wide8 = std::int32_t __attribute__((vector_size(32)));

/// Eight signed 32-bit lanes, to which EDGE and BAY widen their pixels so
/// that no sum of 16-bit pixels overflows a lane. Two 16-byte halves: GCC
/// compiles a 32-byte vector's comparisons lane by lane without AVX, and
/// passes one by value differently with and without it. An int operand
/// stands for eight equal lanes.
struct I32x8 {
  I32x4 lo;
  I32x4 hi;

  I32x8() = default;
  I32x8(const I32x4& low, const I32x4& high) noexcept : lo{low}, hi{high} {}
  I32x8(int value) noexcept : lo{I32x4{} + value}, hi{I32x4{} + value} {}
};
I32x8 operator+(const I32x8& a, const I32x8& b) noexcept { return {a.lo + b.lo, a.hi + b.hi}; }
I32x8 operator-(const I32x8& a, const I32x8& b) noexcept { return {a.lo - b.lo, a.hi - b.hi}; }
I32x8 operator*(const I32x8& a, const I32x8& b) noexcept { return {a.lo * b.lo, a.hi * b.hi}; }
I32x8 operator&(const I32x8& a, const I32x8& b) noexcept { return {a.lo & b.lo, a.hi & b.hi}; }
I32x8 operator|(const I32x8& a, const I32x8& b) noexcept { return {a.lo | b.lo, a.hi | b.hi}; }
I32x8 operator^(const I32x8& a, const I32x8& b) noexcept { return {a.lo ^ b.lo, a.hi ^ b.hi}; }
I32x8 operator==(const I32x8& a, const I32x8& b) noexcept { return {a.lo == b.lo, a.hi == b.hi}; }
I32x8 operator!=(const I32x8& a, const I32x8& b) noexcept { return {a.lo != b.lo, a.hi != b.hi}; }
I32x8 operator<(const I32x8& a, const I32x8& b) noexcept { return {a.lo < b.lo, a.hi < b.hi}; }
I32x8 operator>(const I32x8& a, const I32x8& b) noexcept { return {a.lo > b.lo, a.hi > b.hi}; }
I32x8 operator>=(const I32x8& a, const I32x8& b) noexcept { return {a.lo >= b.lo, a.hi >= b.hi}; }
I32x8 operator>>(const I32x8& a, int n) noexcept { return {a.lo >> n, a.hi >> n}; }
I32x8 operator~(const I32x8& a) noexcept { return {~a.lo, ~a.hi}; }

/// The sum of the lanes.
template <typename V>
std::int64_t lane_sum(const V& lanes) noexcept {
  if constexpr (std::is_same_v<V, I32x8>) {
    return lane_sum(lanes.lo) + lane_sum(lanes.hi);
  } else {
    std::array<std::remove_cvref_t<decltype(lanes[0])>, sizeof(V) / sizeof(lanes[0])> values{};
    std::memcpy(values.data(), &lanes, sizeof lanes);
    std::int64_t sum = 0;
    for (const auto v : values) sum += v;
    return sum;
  }
}

/// `a` where `mask` holds, else `b`: a ?: on one pixel, a blend on lanes.
template <typename M, typename V>
V select(const M& mask, const V& a, const V& b) noexcept {
  if constexpr (std::is_same_v<M, bool>) {
    return mask ? a : b;
  } else {
    const V m = (V)mask;  // same lane width: a reinterpretation
    return (a & m) | (b & ~m);
  }
}

/// `v` negated where `mask` holds. On lanes, (v ^ m) - m with m = -1 is
/// the two's complement -v, and with m = 0 is v.
template <typename M, typename V>
V negate_where(const M& mask, const V& v) noexcept {
  if constexpr (std::is_same_v<M, bool>) {
    return mask ? -v : v;
  } else {
    const V m = (V)mask;
    return (v ^ m) - m;
  }
}

/// `like`'s type holding `value` in every lane (or its one pixel).
template <typename V>
V splat(const V& /*like*/, int value) noexcept {
  return static_cast<V>(value);
}

/// A pixel as an int, or eight pixels as 32-bit lanes.
int widen(std::uint16_t pixel) noexcept { return pixel; }
I32x8 widen(const Px8& pixels) noexcept {
  const Wide8 wide = __builtin_convertvector(pixels, Wide8);
  I32x8 lanes{};
  std::memcpy(&lanes, &wide, sizeof lanes);
  return lanes;
}

/// Writes one pixel, or eight from (x, y) rightwards (32-bit lanes
/// truncate to 16 bits, as a cast of one pixel does).
void store(Image& img, int x, int y, int value) noexcept {
  img.px(x, y) = static_cast<std::uint16_t>(value);
}
void store(Image& img, int x, int y, const Px8& values) noexcept {
  std::memcpy(&img.px(x, y), &values, sizeof values);
}
void store(Image& img, int x, int y, const I32x8& values) noexcept {
  Wide8 wide{};
  std::memcpy(&wide, &values, sizeof wide);
  store(img, x, y, __builtin_convertvector(wide, Px8));
}

/// The coverage hits of one kernel call, counted in locals and added to the
/// kernel's module once, when the call ends. Every kernel with a coverage
/// point inside a pixel or element loop has one body templated on `Cov`,
/// and its public entry picks the instantiation from `ctx.cov`. With `Cov`
/// false the tally holds no counts and every hit method only returns its
/// outcome, so that instantiation contains no coverage code. With `Cov`
/// true the body evaluates the same outcomes the per-hit instrumentation
/// did, so the module ends with the same hit counts.
///
/// An outcome is a bool for one pixel, or a lane mask of type `Lanes` for
/// eight, one lane per pixel. A mask's hits add up lane by lane in a
/// `Lanes` vector (a set lane is -1, so subtracting the mask adds one),
/// which fold_lanes() sums into the counts. A body adds at most 16 outcomes
/// to a point per call, and for_each_3x3 folds at least every 1024 calls,
/// so not even a 16-bit lane overflows.
template <bool Cov, int Stmts, int Branches, int Conds, typename Lanes = I32x8>
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
      fold_lanes();
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

  /// `times` executions of statement `id`.
  void stmt(int id, std::uint64_t times = 1) noexcept {
    if constexpr (Cov) stmt_[slot(id)] += times;
  }
  /// One execution of statement `id` per pixel of `where`.
  template <typename M>
  void stmt_on(int id, const M& where) noexcept {
    if constexpr (Cov) add(stmt_[slot(id)], stmt_lanes_[slot(id)], where);
  }
  // Outcomes count as (evaluations, true ones), so a data-dependent
  // outcome adds without a branch.
  template <typename M>
  M branch(int id, const M& taken) noexcept {
    if constexpr (Cov) {
      branch_[slot(id)] += pixels<M>();
      add(branch_true_[slot(id)], branch_true_lanes_[slot(id)], taken);
    }
    return taken;
  }
  /// A branch evaluated only on the pixels of `active`, as one in an else.
  template <typename M>
  M branch(int id, const M& taken, const M& active) noexcept {
    if constexpr (Cov) {
      add(branch_[slot(id)], branch_lanes_[slot(id)], active);
      add(branch_true_[slot(id)], branch_true_lanes_[slot(id)], static_cast<M>(taken & active));
    }
    return taken;
  }
  template <typename M>
  M cond(int id, const M& value) noexcept {
    if constexpr (Cov) {
      cond_[slot(id)] += pixels<M>();
      add(cond_true_[slot(id)], cond_true_lanes_[slot(id)], value);
    }
    return value;
  }

  /// Adds the lane counts into the totals and clears them.
  void fold_lanes() noexcept {
    if constexpr (Cov) {
      fold(stmt_, stmt_lanes_);
      fold(branch_, branch_lanes_);
      fold(branch_true_, branch_true_lanes_);
      fold(cond_true_, cond_true_lanes_);
    }
  }

private:
  template <int N>
  using Counts = std::array<std::uint64_t, Cov ? N : 0>;
  template <int N>
  using LaneCounts = std::array<Lanes, Cov ? N : 0>;
  static constexpr std::size_t slot(int id) noexcept { return static_cast<std::size_t>(id); }

  /// How many pixels an outcome of type M covers.
  template <typename M>
  static constexpr std::uint64_t pixels() noexcept {
    return std::is_same_v<M, bool> ? 1 : 8;
  }
  template <typename M>
  static void add(std::uint64_t& count, Lanes& lanes, const M& outcome) noexcept {
    if constexpr (std::is_same_v<M, bool>) {
      count += outcome ? 1 : 0;
    } else {
      lanes = lanes - outcome;
    }
  }
  template <std::size_t N>
  static void fold(std::array<std::uint64_t, N>& counts, std::array<Lanes, N>& lanes) noexcept {
    for (std::size_t i = 0; i < N; ++i) {
      counts[i] += static_cast<std::uint64_t>(lane_sum(lanes[i]));
      lanes[i] = Lanes{};
    }
  }

  verif::CovModule* module_;
  Counts<Stmts> stmt_{};
  Counts<Branches> branch_{};
  Counts<Branches> branch_true_{};
  Counts<Conds> cond_{};
  Counts<Conds> cond_true_{};
  LaneCounts<Stmts> stmt_lanes_{};
  LaneCounts<Branches> branch_lanes_{};
  LaneCounts<Branches> branch_true_lanes_{};
  LaneCounts<Conds> cond_true_lanes_{};
};

// The neighbour readers of for_each_3x3. `at(dx, dy)` reads the neighbour
// (x + dx, y + dy), |dx|, |dy| <= 1, of each pixel the call covers; `lanes`
// is how many pixels that is, `column()` their x and `on_ring()` whether
// they lie on the image's one-pixel border ring.

/// The rows above, at and below one image row, from the padded copy
/// for_each_3x3 reads.
struct Rows3 {
  std::array<const std::uint16_t*, 3> row;
  int width;
  bool ring_row;  ///< the first or the last row
};

/// One pixel.
struct PixelAt {
  static constexpr std::uint64_t lanes = 1;
  Rows3 rows;
  int x;
  std::uint16_t operator()(int dx, int dy) const noexcept {
    return rows.row[static_cast<std::size_t>(dy + 1)][x + dx];
  }
  [[nodiscard]] int column() const noexcept { return x; }
  [[nodiscard]] bool on_ring() const noexcept {
    return rows.ring_row || x == 0 || x == rows.width - 1;
  }
};

/// Eight consecutive pixels from x, one per lane. Each lane runs the body's
/// scan order for its own pixel.
struct LaneAt {
  static constexpr std::uint64_t lanes = 8;
  Rows3 rows;
  int x;
  Px8 operator()(int dx, int dy) const noexcept {
    Px8 v{};
    std::memcpy(&v, rows.row[static_cast<std::size_t>(dy + 1)] + x + dx, sizeof v);
    return v;
  }
  [[nodiscard]] I32x8 column() const noexcept {
    return I32x8{I32x4{0, 1, 2, 3}, I32x4{4, 5, 6, 7}} + x;
  }
  [[nodiscard]] I32x8 on_ring() const noexcept {
    const I32x8 col = column();
    return (col == 0) | (col == rows.width - 1) | I32x8{rows.ring_row ? -1 : 0};
  }
};

/// Calls `pixel(x, y, at)` for every pixel of `img` in row-major order:
/// eight pixels per call while the row has eight left (x being the first),
/// then one at a time, and folds `cov`'s lane counts often enough that
/// they stay exact. The reads go to a copy of the image whose rows repeat
/// their first and last pixels on either side, and the row above the first
/// (below the last) is that row itself. That is the 2D kernels' border
/// policy, Image::clamped, so no read tests a bound.
template <typename Tally, typename Pixel>
void for_each_3x3(const Image& img, Tally& cov, Pixel&& pixel) {
  const int w = img.width();
  const int h = img.height();
  const auto stride = static_cast<std::size_t>(w) + 2;
  std::vector<std::uint16_t> padded(stride * static_cast<std::size_t>(h));
  const auto src = img.data();
  for (std::size_t y = 0; y < static_cast<std::size_t>(h); ++y) {
    std::uint16_t* const row = padded.data() + y * stride;
    std::copy_n(src.begin() + static_cast<std::ptrdiff_t>(y * (stride - 2)), w, row + 1);
    row[0] = row[1];
    row[w + 1] = row[w];
  }
  const auto row = [&](int y) -> const std::uint16_t* {
    return padded.data() + static_cast<std::size_t>(std::clamp(y, 0, h - 1)) * stride + 1;
  };
  constexpr int lanes = static_cast<int>(LaneAt::lanes);
  std::uint32_t lane_calls = 0;
  for (int y = 0; y < h; ++y) {
    const Rows3 rows{{row(y - 1), row(y), row(y + 1)}, w, y == 0 || y == h - 1};
    int x = 0;
    for (; x + lanes <= w; x += lanes) {
      pixel(x, y, LaneAt{rows, x});
      if (++lane_calls == 1024) {
        cov.fold_lanes();
        lane_calls = 0;
      }
    }
    for (; x < w; ++x) pixel(x, y, PixelAt{rows, x});
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

  for_each_3x3(bayer, cov, [&](int x, int y, auto at) {
    // RGGB pattern: red sites at (even, even), blue at (odd, odd), green
    // between. Each pixel takes its site's bilinear reconstruction from
    // clamped neighbours; every site's is computed and the site selects.
    const bool even_row = (y & 1) == 0;
    const auto green = ((at.column() ^ y) & 1) != 0;
    const auto colour = green == 0;  // a red site on even rows, blue on odd ones
    const auto none = splat(colour, 0);
    const auto red = cov.branch(0, even_row ? colour : none);
    const auto blue = cov.branch(1, even_row ? none : colour, red == 0);  // evaluated off red
    cov.stmt_on(1, red);
    cov.stmt_on(2, blue);
    cov.stmt_on(3, green);
    (void)cov.branch(2, splat(green, even_row ? -1 : 0), green);  // evaluated on green

    const auto centre = widen(at(0, 0));
    const auto left_right = widen(at(-1, 0)) + widen(at(1, 0));
    const auto up_down = widen(at(0, -1)) + widen(at(0, 1));
    const auto corners =
        widen(at(-1, -1)) + widen(at(1, -1)) + widen(at(-1, 1)) + widen(at(1, 1));
    // A red or blue site keeps its own colour, takes green from the cross
    // and the other colour from the corners. A green site takes the colour
    // of its row's red or blue sites from left and right, the other from
    // above and below. (Pixel sums are >= 0: the shifts are the divisions.)
    const auto own = select(green, left_right >> 1, centre);
    const auto g = select(green, centre, (left_right + up_down) >> 2);
    const auto other = select(green, up_down >> 1, corners >> 2);
    const auto& r = even_row ? own : other;
    const auto& b = even_row ? other : own;
    // ITU-601-ish integer luma.
    auto value = (77 * r + 150 * g + 29 * b) >> 8;
    value = select(cov.cond(0, value > 255), splat(value, 255), value);
    value = select(cov.cond(1, value < 0), splat(value, 0), value);
    (void)cov.branch(3, at.on_ring());
    store(luma, x, y, value);
  });
  cov.stmt(4);
  ctx.add_ops(static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(h) * 12);
  return luma;
}

// -------------------------------------------------------------- EROSION

template <bool Cov>
Image erode_body(const Image& in, Ctx ctx) {
  Tally<Cov, 3, 1, 1, I16x8> cov{ctx.cov};  // pixel comparisons: 16-bit lane masks
  cov.stmt(0);
  const int w = in.width();
  const int h = in.height();
  Image out{w, h};
  for_each_3x3(in, cov, [&](int x, int y, auto at) {
    using Px = decltype(at(0, 0));
    // Row by row from the top-left neighbour: the order fixes how many
    // `v < m` outcomes come out true.
    auto m = static_cast<Px>(~Px{});  // 0xFFFF
    const auto scan = [&m, &cov](const Px& v) { m = select(cov.cond(0, v < m), v, m); };
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
    store(out, x, y, m);
    cov.stmt(1, at.lanes);
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
    if (cov.branch(0, v > 255)) [[unlikely]] {  // only a bit fault upstream widens a pixel
      dst[i] = isqrt32(v << 8);
    } else {
      dst[i] = table[v];
    }
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
  for_each_3x3(in, cov, [&](int x, int y, auto at) {
    const auto p00 = widen(at(-1, -1));
    const auto p10 = widen(at(0, -1));
    const auto p20 = widen(at(1, -1));
    const auto p01 = widen(at(-1, 0));
    const auto p21 = widen(at(1, 0));
    const auto p02 = widen(at(-1, 1));
    const auto p12 = widen(at(0, 1));
    const auto p22 = widen(at(1, 1));
    const auto gx = (p20 + 2 * p21 + p22) - (p00 + 2 * p01 + p02);
    const auto gy = (p02 + 2 * p12 + p22) - (p00 + 2 * p10 + p20);
    auto mag = negate_where(cov.cond(0, gx < 0), gx) + negate_where(cov.cond(1, gy < 0), gy);
    mag = select(mag > 0xFFFF, splat(mag, 0xFFFF), mag);
    store(r.magnitude, x, y, mag);
    store(r.binary, x, y, cov.branch(0, mag >= threshold) & 1);
    cov.stmt(1, at.lanes);
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
  // Raw moments in one pass: the mass, first and second moments per row,
  // then the rows' sums weighted by y and y^2.
  std::int64_t m00 = 0;
  std::int64_t m10 = 0;
  std::int64_t m01 = 0;
  std::int64_t m20 = 0;
  std::int64_t m02 = 0;
  const std::uint16_t* px = binary.data().data();
  for (std::int64_t y = 0; y < h; ++y) {
    std::int64_t n = 0;
    std::int64_t sx = 0;
    std::int64_t sxx = 0;
    for (std::int64_t x = 0; x < w; ++x, ++px) {
      const std::int64_t on = cov.cond(0, *px != 0) ? 1 : 0;
      n += on;
      sx += on * x;
      sxx += on * x * x;
    }
    m00 += n;
    m10 += sx;
    m01 += n * y;
    m20 += sxx;
    m02 += n * y * y;
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

  // Central second moments -> axis estimates. Expanding the square,
  // sum (x - cx)^2 = sum x^2 - 2 cx sum x + m00 cx^2: exact in int64.
  const std::int64_t cx = fit.cx;
  const std::int64_t cy = fit.cy;
  const std::int64_t mu20 = m20 - 2 * cx * m10 + m00 * cx * cx;
  const std::int64_t mu02 = m02 - 2 * cy * m01 + m00 * cy * cy;
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
