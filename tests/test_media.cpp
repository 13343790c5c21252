// Tests for the media library: synthetic faces, pipeline kernels, database
// and the C reference model (src/media).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "media/database.hpp"
#include "media/face_gen.hpp"
#include "media/image.hpp"
#include "media/kernels.hpp"
#include "media/pipeline.hpp"
#include "verif/coverage.hpp"
#include "verif/fault.hpp"
#include "support/media_reference.hpp"
#include "support/test_util.hpp"
#include "verif/rng.hpp"

namespace media = symbad::media;
namespace verif = symbad::verif;
using media::Image;

// ----------------------------------------------------------------- Image

TEST(Image, BasicAccessAndBounds) {
  Image img{4, 3, 7};
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.at(0, 0), 7);
  img.at(2, 1) = 99;
  EXPECT_EQ(img.at(2, 1), 99);
  EXPECT_THROW((void)img.at(4, 0), std::out_of_range);
  EXPECT_THROW((void)img.at(0, 3), std::out_of_range);
  EXPECT_THROW((Image{0, 5}), std::invalid_argument);
}

TEST(Image, ClampedBorderPolicy) {
  Image img{2, 2};
  img.at(0, 0) = 1;
  img.at(1, 0) = 2;
  img.at(0, 1) = 3;
  img.at(1, 1) = 4;
  EXPECT_EQ(img.clamped(-5, -5), 1);
  EXPECT_EQ(img.clamped(7, 0), 2);
  EXPECT_EQ(img.clamped(0, 9), 3);
  EXPECT_EQ(img.clamped(9, 9), 4);
}

TEST(Image, ChecksumSensitivity) {
  Image a{8, 8, 0};
  Image b{8, 8, 0};
  EXPECT_EQ(a.checksum(), b.checksum());
  b.at(3, 3) = 1;
  EXPECT_NE(a.checksum(), b.checksum());
}

// -------------------------------------------------------------- face gen

TEST(FaceGen, DeterministicPerIdentity) {
  const auto p1 = media::FaceParams::for_identity(3);
  const auto p2 = media::FaceParams::for_identity(3);
  EXPECT_EQ(p1.head_a, p2.head_a);
  EXPECT_EQ(p1.mouth_w, p2.mouth_w);
  const Image f1 = media::render_face(p1, media::Pose::frontal());
  const Image f2 = media::render_face(p2, media::Pose::frontal());
  EXPECT_EQ(f1.checksum(), f2.checksum());
}

TEST(FaceGen, IdentitiesDiffer) {
  const Image a =
      media::render_face(media::FaceParams::for_identity(0), media::Pose::frontal());
  const Image b =
      media::render_face(media::FaceParams::for_identity(1), media::Pose::frontal());
  EXPECT_NE(a.checksum(), b.checksum());
}

TEST(FaceGen, PoseChangesImage) {
  const auto params = media::FaceParams::for_identity(0);
  media::Pose shifted;
  shifted.dx = 4;
  media::Pose rotated;
  rotated.rot_deg = 10;
  const Image frontal = media::render_face(params, media::Pose::frontal());
  EXPECT_NE(frontal.checksum(), media::render_face(params, shifted).checksum());
  EXPECT_NE(frontal.checksum(), media::render_face(params, rotated).checksum());
}

TEST(FaceGen, ZeroOrNegativeZoomIsRejected) {
  // The inverse zoom divides by scale_q8, so a zoom <= 0 is rejected
  // before any pixel is rendered.
  const auto params = media::FaceParams::for_identity(0);
  for (const int scale : {0, -1, -256}) {
    media::Pose pose;
    pose.scale_q8 = scale;
    EXPECT_THROW((void)media::render_face(params, pose), std::invalid_argument) << scale;
    EXPECT_THROW((void)media::camera_capture(params, pose), std::invalid_argument) << scale;
  }
  media::Pose smallest;
  smallest.scale_q8 = 1;
  EXPECT_EQ(media::render_face(params, smallest).width(), 64);
}

TEST(FaceGen, CameraAddsMosaicAndNoise) {
  const auto params = media::FaceParams::for_identity(0);
  const Image scene = media::render_face(params, media::Pose::frontal());
  const Image raw = media::camera_capture(params, media::Pose::frontal());
  EXPECT_NE(scene.checksum(), raw.checksum());
  // Determinism of the noise via the pose seed.
  EXPECT_EQ(raw.checksum(), media::camera_capture(params, media::Pose::frontal()).checksum());
  media::Pose other = media::Pose::frontal();
  other.noise_seed = 99;
  EXPECT_NE(raw.checksum(), media::camera_capture(params, other).checksum());
}

// --------------------------------------------------------------- kernels

TEST(Kernels, ErosionIsLowerEnvelope) {
  auto rng = symbad::test::rng(11);
  Image img{16, 16};
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) img.px(x, y) = static_cast<std::uint16_t>(rng.below(256));
  }
  const Image out = media::erode3x3(img);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) EXPECT_LE(out.px(x, y), img.px(x, y));
  }
}

TEST(Kernels, ErosionOfConstantIsConstant) {
  const Image img{8, 8, 42};
  const Image out = media::erode3x3(img);
  for (const auto p : out.data()) EXPECT_EQ(p, 42);
}

TEST(Kernels, IsqrtExact) {
  for (std::uint32_t v = 0; v < 70000; v += 7) {
    const std::uint32_t r = media::isqrt32(v);
    EXPECT_LE(static_cast<std::uint64_t>(r) * r, v);
    EXPECT_GT(static_cast<std::uint64_t>(r + 1) * (r + 1), v);
  }
  EXPECT_EQ(media::isqrt32(0), 0);
  EXPECT_EQ(media::isqrt32(1), 1);
  EXPECT_EQ(media::isqrt32(65536), 256);
}

TEST(Kernels, RootTransformMonotone) {
  Image img{4, 1};
  img.px(0, 0) = 0;
  img.px(1, 0) = 10;
  img.px(2, 0) = 100;
  img.px(3, 0) = 255;
  const Image out = media::root_transform(img);
  EXPECT_EQ(out.px(0, 0), 0);
  EXPECT_LT(out.px(0, 0), out.px(1, 0));
  EXPECT_LT(out.px(1, 0), out.px(2, 0));
  EXPECT_LT(out.px(2, 0), out.px(3, 0));
  // out = sqrt(v*256) = 16*sqrt(v): 255 -> ~255.5
  EXPECT_EQ(out.px(3, 0), 255);
}

TEST(Kernels, SobelFlatImageHasNoEdges) {
  const Image img{16, 16, 128};
  const auto r = media::sobel_edge(img, 40);
  for (const auto p : r.binary.data()) EXPECT_EQ(p, 0);
  for (const auto p : r.magnitude.data()) EXPECT_EQ(p, 0);
}

TEST(Kernels, SobelDetectsStep) {
  Image img{16, 16, 0};
  for (int y = 0; y < 16; ++y) {
    for (int x = 8; x < 16; ++x) img.px(x, y) = 200;
  }
  const auto r = media::sobel_edge(img, 100);
  int edges = 0;
  for (const auto p : r.binary.data()) edges += p;
  EXPECT_GT(edges, 10);
}

TEST(Kernels, EllipseFitFindsDrawnRing) {
  Image binary{64, 64, 0};
  const int cx = 30;
  const int cy = 34;
  for (int deg = 0; deg < 360; ++deg) {
    const double rad = deg * 3.14159265 / 180.0;
    const int x = cx + static_cast<int>(18 * std::cos(rad));
    const int y = cy + static_cast<int>(12 * std::sin(rad));
    binary.px(x, y) = 1;
  }
  const auto fit = media::fit_ellipse(binary);
  ASSERT_TRUE(fit.found);
  EXPECT_NEAR(fit.cx, cx, 2);
  EXPECT_NEAR(fit.cy, cy, 2);
  EXPECT_GT(fit.axis_a, fit.axis_b);  // wider than tall
}

TEST(Kernels, EllipseFitRejectsSparseImage) {
  Image binary{32, 32, 0};
  binary.px(5, 5) = 1;
  const auto fit = media::fit_ellipse(binary);
  EXPECT_FALSE(fit.found);
}

TEST(Kernels, CropBorderFallbackWithoutFit) {
  Image src{64, 64};
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) src.px(x, y) = static_cast<std::uint16_t>(x + y);
  }
  media::EllipseFit none;
  const Image win = media::crop_border(src, none, 16);
  EXPECT_EQ(win.width(), 16);
  EXPECT_EQ(win.height(), 16);
  EXPECT_EQ(win.px(0, 0), src.px(0, 0));
}

TEST(Kernels, CropBorderCentersOnFit) {
  Image src{64, 64, 0};
  src.px(40, 20) = 777;
  media::EllipseFit fit;
  fit.found = true;
  fit.cx = 40;
  fit.cy = 20;
  fit.axis_a = 8;
  fit.axis_b = 8;
  const Image win = media::crop_border(src, fit, 16);
  // The bright pixel sits near the window centre.
  bool found = false;
  for (int y = 6; y <= 10 && !found; ++y) {
    for (int x = 6; x <= 10 && !found; ++x) found = win.px(x, y) == 777;
  }
  EXPECT_TRUE(found);
}

TEST(Kernels, LineProfilesConserveMass) {
  auto rng = symbad::test::rng(5);
  Image win{32, 32};
  std::uint64_t total = 0;
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      win.px(x, y) = static_cast<std::uint16_t>(rng.below(256));
      total += win.px(x, y);
    }
  }
  const auto p = media::create_lines(win);
  const auto sum = [](const std::vector<std::uint32_t>& v) {
    return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
  };
  EXPECT_EQ(sum(p.rows), total);
  EXPECT_EQ(sum(p.cols), total);
  EXPECT_EQ(sum(p.diag_main), total);
  EXPECT_EQ(sum(p.diag_anti), total);
  EXPECT_EQ(p.total_elements(), 32u + 32u + 63u + 63u);
}

TEST(Kernels, FeaturesAreMeanFree) {
  auto rng = symbad::test::rng(9);
  Image win{32, 32};
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) win.px(x, y) = static_cast<std::uint16_t>(rng.below(256));
  }
  const auto features = media::calc_line_features(media::create_lines(win));
  ASSERT_FALSE(features.v.empty());
  // Each segment is mean-removed: overall mean close to zero.
  std::int64_t sum = 0;
  for (const auto v : features.v) sum += v;
  EXPECT_LT(std::abs(sum / static_cast<std::int64_t>(features.v.size())), 4);
}

TEST(Kernels, DistanceMetricProperties) {
  auto rng = symbad::test::rng(13);
  media::FeatureVec a;
  media::FeatureVec b;
  for (int i = 0; i < 64; ++i) {
    a.v.push_back(static_cast<std::int16_t>(rng.range(-100, 100)));
    b.v.push_back(static_cast<std::int16_t>(rng.range(-100, 100)));
  }
  EXPECT_EQ(media::calc_distance(a, a), 0u);
  EXPECT_EQ(media::calc_distance(a, b), media::calc_distance(b, a));
  media::FeatureVec short_vec;
  short_vec.v.resize(10);
  EXPECT_THROW((void)media::calc_distance(a, short_vec), std::invalid_argument);
}

TEST(Kernels, WinnerPicksMinimum) {
  const std::vector<std::uint32_t> d{50, 20, 90, 20, 100};
  const auto w = media::pick_winner(d);
  EXPECT_EQ(w.index, 1);
  EXPECT_EQ(w.best, 20u);
  EXPECT_EQ(w.second, 20u);
  EXPECT_FALSE(w.confident);  // tie: not separated

  const std::vector<std::uint32_t> d2{100, 20, 90};
  const auto w2 = media::pick_winner(d2);
  EXPECT_EQ(w2.index, 1);
  EXPECT_TRUE(w2.confident);

  const auto w3 = media::pick_winner({});
  EXPECT_EQ(w3.index, -1);
}

// ------------------------------------------------------------- pipeline

namespace {

media::Pose query_pose(int identity, int variant) {
  media::Pose pose;
  pose.dx = (variant % 3) - 1;
  pose.dy = ((variant + 1) % 3) - 1;
  pose.rot_deg = (variant % 2 == 0) ? 3 : -3;
  pose.light_offset = 5;
  pose.noise_seed = 0xBEEF + static_cast<std::uint64_t>(identity * 7 + variant);
  pose.noise_amp = 2;
  return pose;
}

}  // namespace

TEST(Pipeline, RecognisesUnseenPoses) {
  const auto db = media::FaceDatabase::enroll(10, 5);
  int correct = 0;
  int total = 0;
  for (int id = 0; id < 10; ++id) {
    const auto params = media::FaceParams::for_identity(id);
    for (int variant = 0; variant < 3; ++variant) {
      const Image frame = media::camera_capture(params, query_pose(id, variant));
      const auto result = media::recognize(frame, db);
      ++total;
      if (result.identity == id) ++correct;
    }
  }
  // The paper's system distinguishes 20 identities; our synthetic pipeline
  // must be comfortably above chance (10%) — demand 80%.
  EXPECT_GE(correct * 100, total * 80) << correct << "/" << total;
}

TEST(Pipeline, DeterministicResults) {
  const auto db = media::FaceDatabase::enroll(5, 3);
  const auto params = media::FaceParams::for_identity(2);
  const Image frame = media::camera_capture(params, query_pose(2, 0));
  const auto r1 = media::recognize(frame, db);
  const auto r2 = media::recognize(frame, db);
  EXPECT_EQ(r1.identity, r2.identity);
  EXPECT_EQ(r1.distances, r2.distances);
  EXPECT_EQ(r1.features, r2.features);
}

TEST(Pipeline, ProfileRanksRootAndDistanceHeaviest) {
  // The paper's configuration: 20 identities under multiple poses. With the
  // full database, profiling must rank ROOT and DISTANCE as the two
  // heaviest tasks — the designer knowledge that sends exactly those two
  // modules into the FPGA at level 3.
  const auto db = media::FaceDatabase::enroll(20, 5);
  const auto params = media::FaceParams::for_identity(0);
  const Image frame = media::camera_capture(params, media::Pose::frontal());
  media::PipelineProfile profile;
  (void)media::recognize(frame, db, {}, &profile);
  const auto ranking = profile.ranking();
  ASSERT_GE(ranking.size(), 2u);
  EXPECT_EQ(ranking[0], media::stage::root);
  EXPECT_EQ(ranking[1], media::stage::distance);
}

TEST(Pipeline, CoverageInstrumentationRecordsHits) {
  verif::CoverageDb cov;
  {
    verif::CoverageDb::Scope scope{cov};
    const auto db = media::FaceDatabase::enroll(3, 2);
    const auto params = media::FaceParams::for_identity(0);
    const Image frame = media::camera_capture(params, media::Pose::frontal());
    (void)media::recognize(frame, db);
  }
  const auto report = cov.report();
  EXPECT_GT(report.statement_total, 0);
  EXPECT_GT(report.statement_covered, 0);
  EXPECT_GT(report.branch_total, 0);
  // A single nominal frame cannot cover everything (e.g. the no-face path).
  EXPECT_LT(report.branch_covered, report.branch_total);
  EXPECT_GT(report.overall_percent(), 30.0);
}

TEST(Pipeline, SeededMemoryBugLeaksAcrossFrames) {
  const auto db = media::FaceDatabase::enroll(5, 3);
  media::PipelineConfig good;
  media::PipelineConfig buggy;
  buggy.seeded_memory_bug = true;

  const auto params0 = media::FaceParams::for_identity(0);
  const auto params1 = media::FaceParams::for_identity(1);
  const Image frame_a = media::camera_capture(params0, media::Pose::frontal());
  const Image frame_b = media::camera_capture(params1, media::Pose::frontal());

  media::FrontEndState state;
  // First frame: no stale data yet -> identical to good pipeline.
  const auto good_a = media::recognize(frame_a, db, good);
  const auto bug_a = media::recognize(frame_a, db, buggy, nullptr, nullptr, &state);
  EXPECT_EQ(good_a.window, bug_a.window);
  // Second frame: window leaks one row from the previous frame.
  const auto good_b = media::recognize(frame_b, db, good);
  const auto bug_b = media::recognize(frame_b, db, buggy, nullptr, nullptr, &state);
  EXPECT_NE(good_b.window, bug_b.window);
}

TEST(Pipeline, BitFaultChangesObservableOutput) {
  const auto db = media::FaceDatabase::enroll(5, 3);
  const auto params = media::FaceParams::for_identity(0);
  const Image frame = media::camera_capture(params, media::Pose::frontal());
  const auto golden = media::recognize(frame, db);

  verif::BitFault fault;
  fault.stage = media::stage::root;
  fault.port = verif::PortDirection::output;
  fault.word_index = 1000;
  fault.bit = 7;
  fault.stuck_to = true;
  const auto faulty = media::recognize(frame, db, {}, nullptr, &fault);
  EXPECT_NE(golden.rooted, faulty.rooted);
}

// ------------------------------------------------------ front-end resume

namespace {

/// The first field in which two recognition results differ ("" if none).
std::string first_difference(const media::PipelineValues& a,
                             const media::PipelineValues& b) {
  if (a.winner.index != b.winner.index || a.winner.best != b.winner.best ||
      a.winner.second != b.winner.second || a.winner.confident != b.winner.confident) {
    return "winner";
  }
  if (a.identity != b.identity) return "identity";
  if (a.distances != b.distances) return "distances";
  if (a.features != b.features) return "features";
  return "";
}

std::vector<media::PipelineValues> resume_goldens(const media::FaceDatabase& db) {
  std::vector<media::PipelineValues> goldens;
  for (const int id : {0, 2, 3}) {
    const auto params = media::FaceParams::for_identity(id);
    goldens.push_back(media::golden_run(media::camera_capture(params, query_pose(id, id)), db));
  }
  return goldens;
}

}  // namespace

TEST(FrontEndResume, MatchesFullRecomputeAtEveryBoundary) {
  // Fault simulation against recognize()'s full recompute: every boundary a
  // bit fault can target, the BAY input, and two stage/port pairs that name
  // no boundary (never excited). Words are drawn from four times each
  // boundary's size, so most wrap; all 16 bits, both polarities, 3 frames.
  const auto db = media::FaceDatabase::enroll(4, 2);
  const auto goldens = resume_goldens(db);
  using verif::PortDirection;
  struct Site {
    const char* stage;
    PortDirection port;
    bool has_boundary;
  };
  const Site sites[] = {
      {media::stage::bay, PortDirection::input, true},
      {media::stage::bay, PortDirection::output, true},
      {media::stage::erosion, PortDirection::output, true},
      {media::stage::root, PortDirection::output, true},
      {media::stage::edge, PortDirection::output, true},
      {media::stage::crtbord, PortDirection::output, true},
      {media::stage::calcline, PortDirection::output, true},
      {media::stage::ellipse, PortDirection::output, false},
      {media::stage::root, PortDirection::input, false},
  };
  auto rng = symbad::test::rng(0xFE5u);
  for (const auto& site : sites) {
    int excited = 0;
    int quiet = 0;
    for (const auto& golden : goldens) {
      const std::string stage_name = site.stage;
      const std::size_t words = stage_name == media::stage::crtbord
                                    ? golden.window.pixel_count()
                                : stage_name == media::stage::calcline
                                    ? golden.features.v.size()
                                    : golden.bayer.pixel_count();
      for (int bit = 0; bit < 16; ++bit) {
        for (const bool stuck : {false, true}) {
          const verif::BitFault fault{site.stage, site.port,
                                      static_cast<int>(rng.below(4 * words)), bit, stuck};
          const auto full = media::recognize(golden.bayer, db, {}, nullptr, &fault);
          const auto resumed = media::simulate_fault(golden, db, {}, fault);
          if (resumed.has_value()) {
            ++excited;
            EXPECT_EQ(first_difference(*resumed, full), "") << fault.to_string();
          } else {
            ++quiet;
            EXPECT_EQ(first_difference(golden, full), "") << fault.to_string();
          }
        }
      }
    }
    EXPECT_GT(quiet, 0) << site.stage;
    if (site.has_boundary) {
      EXPECT_GT(excited, 0) << site.stage;
    } else {
      EXPECT_EQ(excited, 0) << site.stage;
    }
  }
}

TEST(FrontEndResume, WordIndicesWrapModuloTheBoundarySize) {
  // The 32x32 window and the feature vector are smaller than the frame the
  // fault list is sampled over: word w and word w % n must be one fault.
  const auto db = media::FaceDatabase::enroll(4, 2);
  const auto goldens = resume_goldens(db);
  for (const auto& golden : goldens) {
    const std::pair<const char*, std::size_t> boundaries[] = {
        {media::stage::crtbord, golden.window.pixel_count()},
        {media::stage::calcline, golden.features.v.size()},
    };
    for (const auto& [stage_name, words] : boundaries) {
      for (const int word : {3, 17, 101}) {
        for (const bool stuck : {false, true}) {
          const int bit = word % 8;
          const verif::BitFault near{stage_name, verif::PortDirection::output, word, bit, stuck};
          const verif::BitFault far{stage_name, verif::PortDirection::output,
                                    word + 3 * static_cast<int>(words), bit, stuck};
          const auto a = media::simulate_fault(golden, db, {}, near);
          const auto b = media::simulate_fault(golden, db, {}, far);
          ASSERT_EQ(a.has_value(), b.has_value()) << far.to_string();
          if (a.has_value()) {
            EXPECT_EQ(first_difference(*a, *b), "") << far.to_string();
          }
        }
      }
    }
  }
}

TEST(FrontEndResume, RestartBelowAnyBoundaryReproducesTheRun) {
  // Without a fault, restarting at any boundary recomputes the golden
  // values below it from the values at and above it.
  const auto db = media::FaceDatabase::enroll(4, 2);
  const auto golden = resume_goldens(db).front();
  using media::Boundary;
  for (const auto from : {Boundary::frame, Boundary::bay, Boundary::erosion, Boundary::root,
                          Boundary::edge, Boundary::crtbord, Boundary::calcline}) {
    media::PipelineValues values = golden;
    if (from < Boundary::bay) values.luma = {};
    if (from < Boundary::erosion) values.eroded = {};
    if (from < Boundary::root) values.rooted = {};
    if (from < Boundary::edge) values.edges = {};
    if (from < Boundary::crtbord) {
      values.fit = {};
      values.window = {};
    }
    if (from < Boundary::calcline) {
      values.lines = {};
      values.features = {};
    }
    media::run_front_end(values, from);
    const int at = static_cast<int>(from);
    EXPECT_EQ(values.luma, golden.luma) << at;
    EXPECT_EQ(values.eroded, golden.eroded) << at;
    EXPECT_EQ(values.rooted, golden.rooted) << at;
    EXPECT_EQ(values.edges, golden.edges) << at;
    EXPECT_EQ(values.fit.m00, golden.fit.m00) << at;
    EXPECT_EQ(values.window, golden.window) << at;
    EXPECT_EQ(values.features, golden.features) << at;
  }
  EXPECT_EQ(media::extract_features(golden.bayer), golden.features);
}

TEST(FrontEndResume, FaultBitsOutsideAPortWordAreRejected) {
  // A bit fault's bit must name a bit of a 32-bit port word (the patch
  // shifts by it), whatever stage it targets. Bits 16..31 are valid: above
  // a 16-bit pixel they leave it unchanged (not excited), and the feature
  // boundary takes them modulo 16.
  const auto db = media::FaceDatabase::enroll(4, 2);
  const auto golden = resume_goldens(db).front();
  using verif::PortDirection;
  for (const int bit : {-1, 32, 40}) {
    for (const auto& [stage_name, port] :
         {std::pair{media::stage::bay, PortDirection::input},
          std::pair{media::stage::root, PortDirection::output},
          std::pair{media::stage::calcline, PortDirection::output},
          std::pair{media::stage::ellipse, PortDirection::output}}) {
      const verif::BitFault fault{stage_name, port, 5, bit, true};
      EXPECT_THROW((void)media::simulate_fault(golden, db, {}, fault), std::invalid_argument)
          << fault.to_string();
      EXPECT_THROW((void)media::recognize(golden.bayer, db, {}, nullptr, &fault),
                   std::invalid_argument)
          << fault.to_string();
    }
  }
  for (const int bit : {16, 23, 31}) {
    for (const bool stuck : {false, true}) {
      const verif::BitFault pixel{media::stage::root, PortDirection::output, 5, bit, stuck};
      EXPECT_FALSE(media::simulate_fault(golden, db, {}, pixel).has_value()) << bit;
      const verif::BitFault wide{media::stage::calcline, PortDirection::output, 5, bit, stuck};
      const verif::BitFault low{media::stage::calcline, PortDirection::output, 5, bit % 16,
                                stuck};
      const auto a = media::simulate_fault(golden, db, {}, wide);
      const auto b = media::simulate_fault(golden, db, {}, low);
      ASSERT_EQ(a.has_value(), b.has_value()) << bit;
      if (a.has_value()) {
        EXPECT_EQ(first_difference(*a, *b), "") << bit;
      }
    }
  }
}

// --------------------------------------------------- reference kernels

// The kernels and the face generator must match the per-hit reference in
// tests/support/media_reference.hpp exactly: results, `ops` counts and the
// full hit vectors of the coverage module, with and without one.

namespace {

namespace ref = symbad::test::reference;

bool same(const Image& a, const Image& b) { return a == b; }
bool same(const media::EdgeResult& a, const media::EdgeResult& b) {
  return a.magnitude == b.magnitude && a.binary == b.binary;
}
bool same(const media::EllipseFit& a, const media::EllipseFit& b) {
  return a.found == b.found && a.cx == b.cx && a.cy == b.cy && a.axis_a == b.axis_a &&
         a.axis_b == b.axis_b && a.m00 == b.m00;
}
bool same(const media::LineProfiles& a, const media::LineProfiles& b) {
  return a.rows == b.rows && a.cols == b.cols && a.diag_main == b.diag_main &&
         a.diag_anti == b.diag_anti;
}
bool same(const media::FeatureVec& a, const media::FeatureVec& b) { return a == b; }
bool same(std::uint32_t a, std::uint32_t b) { return a == b; }
bool same(const media::MotionResult& a, const media::MotionResult& b) {
  return a.difference == b.difference && a.mask == b.mask &&
         a.active_pixels == b.active_pixels;
}
bool same(const media::Winner& a, const media::Winner& b) {
  return a.index == b.index && a.best == b.best && a.second == b.second &&
         a.confident == b.confident;
}

/// Runs the library kernel `lib` and the reference `want` on one input,
/// uninstrumented and then each into its own fresh coverage module, and
/// expects equal results, `ops` counts and hit vectors. Both must throw
/// std::invalid_argument or neither.
template <typename Lib, typename Ref>
void expect_same_kernel(const Lib& lib, const Ref& want, const std::string& what) {
  for (const bool instrumented : {false, true}) {
    verif::CovModule got_cov{"kernel"};
    verif::CovModule want_cov{"kernel"};
    std::uint64_t got_ops = 0;
    std::uint64_t want_ops = 0;
    const media::Ctx got_ctx{instrumented ? &got_cov : nullptr, &got_ops};
    const media::Ctx want_ctx{instrumented ? &want_cov : nullptr, &want_ops};
    const std::string where = what + (instrumented ? " (instrumented)" : "");
    std::optional<decltype(want(want_ctx))> expected;
    try {
      expected = want(want_ctx);
    } catch (const std::invalid_argument&) {
    }
    if (expected.has_value()) {
      EXPECT_TRUE(same(lib(got_ctx), *expected)) << where;
    } else {
      EXPECT_THROW((void)lib(got_ctx), std::invalid_argument) << where;
    }
    EXPECT_EQ(got_ops, want_ops) << where;
    EXPECT_TRUE(got_cov == want_cov) << where;
  }
}

// One macro per call keeps each kernel's argument list written once.
#define EXPECT_SAME_KERNEL(what, kernel, ...)                                      \
  expect_same_kernel([&](media::Ctx c) { return media::kernel(__VA_ARGS__, c); }, \
                     [&](media::Ctx c) { return ref::kernel(__VA_ARGS__, c); }, what)

/// Every image kernel on `img` (MOTION against `other`, same shape), then
/// the feature kernels on what the image kernels produced.
void expect_image_kernels_match(const Image& img, const Image& other, std::uint16_t threshold,
                                const std::string& what) {
  EXPECT_SAME_KERNEL(what + " BAY", bay_demosaic_luma, img);
  EXPECT_SAME_KERNEL(what + " EROSION", erode3x3, img);
  EXPECT_SAME_KERNEL(what + " ROOT", root_transform, img);
  EXPECT_SAME_KERNEL(what + " EDGE", sobel_edge, img, threshold);
  EXPECT_SAME_KERNEL(what + " MOTION", frame_difference, img, other, threshold);
  const Image binary = media::sobel_edge(img, threshold).binary;
  EXPECT_SAME_KERNEL(what + " ELLIPSE", fit_ellipse, binary);
  EXPECT_SAME_KERNEL(what + " ELLIPSE(raw)", fit_ellipse, img);
  const media::EllipseFit fits[] = {media::fit_ellipse(img), media::fit_ellipse(binary), {}};
  for (const auto& fit : fits) {
    for (const int out_size : {0, 1, 3, 8}) {
      EXPECT_SAME_KERNEL(what + " CRTBORD " + std::to_string(out_size), crop_border, img, fit,
                         out_size);
    }
  }
  EXPECT_SAME_KERNEL(what + " CRTLINE", create_lines, img);
  const auto lines = media::create_lines(img);
  EXPECT_SAME_KERNEL(what + " CALCLINE", calc_line_features, lines);
}

/// The stages of a front-end run that starts from `v.bayer`, each on the
/// boundary values `v` holds, then DISTANCE against every template of `db`
/// and WINNER over those distances.
void expect_stages_match(const media::PipelineValues& v, const media::FaceDatabase& db,
                         const std::string& what) {
  const std::uint16_t threshold = media::PipelineConfig{}.edge_threshold;
  EXPECT_SAME_KERNEL(what + " BAY", bay_demosaic_luma, v.bayer);
  EXPECT_SAME_KERNEL(what + " EROSION", erode3x3, v.luma);
  EXPECT_SAME_KERNEL(what + " ROOT", root_transform, v.eroded);
  EXPECT_SAME_KERNEL(what + " EDGE", sobel_edge, v.rooted, threshold);
  EXPECT_SAME_KERNEL(what + " ELLIPSE", fit_ellipse, v.edges);
  EXPECT_SAME_KERNEL(what + " CRTBORD", crop_border, v.luma, v.fit,
                     media::PipelineConfig{}.window_size);
  EXPECT_SAME_KERNEL(what + " CRTLINE", create_lines, v.window);
  const auto lines = media::create_lines(v.window);
  EXPECT_SAME_KERNEL(what + " CALCLINE", calc_line_features, lines);
  std::vector<std::uint32_t> distances;
  for (std::size_t i = 0; i < db.size(); ++i) {
    const auto& entry = db.entry(i).features;
    EXPECT_SAME_KERNEL(what + " CALCDIST", calc_distance, v.features, entry);
    distances.push_back(ref::calc_distance(v.features, entry, {}));
  }
  EXPECT_SAME_KERNEL(what + " WINNER", pick_winner, distances);
}

/// A pose drawn wider than any shipped workload draws: translations past
/// the frame edge, rotations past +-360 degrees, zooms from 1/2x to 2x,
/// illumination and noise.
media::Pose wild_pose(verif::Rng& rng) {
  media::Pose pose;
  pose.dx = static_cast<int>(rng.range(-20, 20));
  pose.dy = static_cast<int>(rng.range(-20, 20));
  pose.rot_deg = static_cast<int>(rng.range(-800, 800));
  pose.scale_q8 = static_cast<int>(rng.range(128, 512));
  pose.light_offset = static_cast<int>(rng.range(-40, 40));
  pose.noise_amp = static_cast<int>(rng.range(0, 12));
  pose.noise_seed = rng.next();
  return pose;
}

}  // namespace

TEST(KernelReference, EveryShapeUpTo9x9WithRandom16BitPixels) {
  auto rng = symbad::test::rng("KernelReference.shapes");
  for (int h = 1; h <= 9; ++h) {
    for (int w = 1; w <= 9; ++w) {
      // 0/1 maps, 8-bit frames and the full 16 bits a bit fault can set.
      for (const std::uint64_t bound : {2ull, 256ull, 65536ull}) {
        Image img{w, h};
        Image other{w, h};
        for (auto& p : img.data()) p = static_cast<std::uint16_t>(rng.below(bound));
        for (auto& p : other.data()) p = static_cast<std::uint16_t>(rng.below(bound));
        const auto threshold = static_cast<std::uint16_t>(rng.below(bound));
        expect_image_kernels_match(img, other, threshold,
                                   std::to_string(w) + "x" + std::to_string(h) + "<" +
                                       std::to_string(bound));
      }
    }
  }
}

TEST(KernelReference, WideShapesReachEveryLaneAndTail) {
  // Widths 1..40 put every interior length from none to four 8-pixel
  // vectors plus every tail length under the kernels, and 63..65 bracket
  // the frame size; heights 1..3 have no interior row or just one.
  auto rng = symbad::test::rng("KernelReference.wide");
  std::vector<int> widths(40);
  std::iota(widths.begin(), widths.end(), 1);
  widths.insert(widths.end(), {63, 64, 65});
  for (const int h : {1, 2, 3, 7, 64}) {
    for (const int w : widths) {
      for (const std::uint64_t bound : {2ull, 256ull, 65536ull}) {
        Image img{w, h};
        Image other{w, h};
        for (auto& p : img.data()) p = static_cast<std::uint16_t>(rng.below(bound));
        for (auto& p : other.data()) p = static_cast<std::uint16_t>(rng.below(bound));
        const auto threshold = static_cast<std::uint16_t>(rng.below(bound));
        expect_image_kernels_match(img, other, threshold,
                                   std::to_string(w) + "x" + std::to_string(h) + "<" +
                                       std::to_string(bound));
      }
    }
  }
}

TEST(KernelReference, LaneHitCountsFoldBeforeTheyOverflow) {
  // Pixels falling along EROSION's scan order make every one of its nine
  // `v < m` outcomes true, nine hits per lane per call. Over 256x130 pixels
  // (4,160 calls of eight) a 16-bit lane would overflow unless the tally
  // folds its lane counts as it goes.
  Image img{256, 130};
  Image other{256, 130};
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      img.px(x, y) = static_cast<std::uint16_t>(65535 - (x + 3 * y));
      other.px(x, y) = static_cast<std::uint16_t>(x * y);
    }
  }
  expect_image_kernels_match(img, other, 300, "falling 256x130");
}

TEST(KernelReference, FeatureKernelsOnRandomVectors) {
  auto rng = symbad::test::rng("KernelReference.features");
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<std::size_t>(rng.below(20));
    media::FeatureVec a;
    media::FeatureVec b;
    for (std::size_t i = 0; i < n; ++i) {
      a.v.push_back(static_cast<std::int16_t>(rng.range(-32768, 32767)));
      b.v.push_back(static_cast<std::int16_t>(rng.range(-32768, 32767)));
    }
    const std::string what = "trial " + std::to_string(trial);
    EXPECT_SAME_KERNEL(what + " CALCDIST", calc_distance, a, b);
    media::FeatureVec longer = b;
    longer.v.push_back(1);
    EXPECT_SAME_KERNEL(what + " CALCDIST(mismatch)", calc_distance, a, longer);

    std::vector<std::uint32_t> distances(n);
    for (auto& d : distances) {
      d = rng.chance(0.2) ? 0xFFFFFFFFu : static_cast<std::uint32_t>(rng.below(64));
    }
    EXPECT_SAME_KERNEL(what + " WINNER", pick_winner, distances);

    // Profiles wide enough to saturate the Q7 features.
    media::LineProfiles lines;
    for (auto* profile : {&lines.rows, &lines.cols, &lines.diag_main, &lines.diag_anti}) {
      profile->resize(static_cast<std::size_t>(rng.below(6)));
      for (auto& x : *profile) x = static_cast<std::uint32_t>(rng.next());
    }
    EXPECT_SAME_KERNEL(what + " CALCLINE", calc_line_features, lines);
  }
}

TEST(KernelReference, FrontEndOfEveryIdentityUnderWildPoses) {
  const auto db = media::FaceDatabase::enroll(4, 2);
  auto rng = symbad::test::rng("KernelReference.identities");
  for (int id = 0; id < 20; ++id) {
    for (int k = 0; k < 4; ++k) {
      auto params = media::FaceParams::for_identity(id);
      params.glasses = (k % 2 == 0) != params.glasses;
      const auto frame = media::camera_capture(params, wild_pose(rng));
      const auto golden = media::golden_run(frame, db);
      expect_stages_match(golden, db,
                          "identity " + std::to_string(id) + " pose " + std::to_string(k));
    }
  }
}

TEST(KernelReference, FaultSimulationAtEveryBoundaryAndBit) {
  // A bit fault puts words no fault-free frame carries into the stage below
  // its boundary: 16-bit pixels into EROSION, ROOT and EDGE (ROOT's isqrt32
  // path above 255), any edge-map word into ELLIPSE, wrapped feature
  // words into DISTANCE. Each faulty run's stages must match the
  // reference on the values that run carries, and simulate_fault must
  // report that run.
  const auto db = media::FaceDatabase::enroll(4, 2);
  const auto goldens = resume_goldens(db);
  using verif::PortDirection;
  const std::pair<const char*, PortDirection> sites[] = {
      {media::stage::bay, PortDirection::input},
      {media::stage::bay, PortDirection::output},
      {media::stage::erosion, PortDirection::output},
      {media::stage::root, PortDirection::output},
      {media::stage::edge, PortDirection::output},
      {media::stage::crtbord, PortDirection::output},
      {media::stage::calcline, PortDirection::output},
  };
  auto rng = symbad::test::rng("KernelReference.faults");
  for (const auto& [stage_name, port] : sites) {
    const auto& golden = goldens[static_cast<std::size_t>(rng.below(goldens.size()))];
    for (int bit = 0; bit < 16; ++bit) {
      for (const bool stuck : {false, true}) {
        const verif::BitFault fault{stage_name, port,
                                    static_cast<int>(golden.bayer.pixel_count() / 2 +
                                                     rng.below(64)),
                                    bit, stuck};
        media::PipelineValues values;
        values.bayer = golden.bayer;
        media::run_front_end(values, media::Boundary::frame, {}, nullptr, &fault);
        expect_stages_match(values, db, fault.to_string());
        const auto resumed = media::simulate_fault(golden, db, {}, fault);
        EXPECT_EQ(resumed.has_value() ? resumed->features : golden.features,
                  values.features)
            << fault.to_string();
      }
    }
  }
}

TEST(FaceReference, RenderAndCaptureOfEveryIdentityUnderWildPoses) {
  auto rng = symbad::test::rng("FaceReference.render");
  for (int id = 0; id < 20; ++id) {
    for (const bool glasses : {false, true}) {
      auto params = media::FaceParams::for_identity(id);
      params.glasses = glasses;
      // One random size, then the frame size and its neighbours.
      const int sizes[] = {0, 64, 64, 64, 64, 64, 63, 65};
      for (int k = 0; k < 8; ++k) {
        const auto pose = wild_pose(rng);
        const int size = k == 0 ? static_cast<int>(rng.range(1, 96)) : sizes[k];
        const std::string what = "identity " + std::to_string(id) + " pose " +
                                 std::to_string(k) + " size " + std::to_string(size);
        EXPECT_EQ(media::render_face(params, pose, size), ref::render_face(params, pose, size))
            << what;
        EXPECT_EQ(media::camera_capture(params, pose, size),
                  ref::camera_capture(params, pose, size))
            << what;
      }
      for (int k = 0; k < 500; ++k) {
        const auto fx = static_cast<int>(rng.range(-40 * 256, 40 * 256));
        const auto fy = static_cast<int>(rng.range(-40 * 256, 40 * 256));
        EXPECT_EQ(media::face_intensity(params, fx, fy), ref::face_intensity(params, fx, fy))
            << id << " " << fx << " " << fy;
      }
    }
  }
}

#undef EXPECT_SAME_KERNEL

// -------------------------------------------------------------- database

TEST(Database, EnrollmentShapeAndDeterminism) {
  const auto db = media::FaceDatabase::enroll(4, 3);
  EXPECT_EQ(db.size(), 12u);
  EXPECT_EQ(db.identities(), 4);
  EXPECT_EQ(db.poses_per_identity(), 3);
  EXPECT_EQ(db.identity_of(0), 0);
  EXPECT_EQ(db.identity_of(11), 3);
  EXPECT_GT(db.storage_bytes(), 0u);

  const auto db2 = media::FaceDatabase::enroll(4, 3);
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(db.entry(i).features, db2.entry(i).features);
  }
}

TEST(Database, RejectsEmptyEnrollment) {
  EXPECT_THROW((void)media::FaceDatabase::enroll(0, 3), std::invalid_argument);
  EXPECT_THROW((void)media::FaceDatabase::enroll(3, 0), std::invalid_argument);
}

/// Parameterised sweep: enrollment poses must be distinguishable templates —
/// nearest template of a re-rendered enrollment frame is itself.
class DatabaseSelfMatch : public ::testing::TestWithParam<int> {};

TEST_P(DatabaseSelfMatch, EnrollmentFrameMatchesOwnIdentity) {
  static const auto db = media::FaceDatabase::enroll(8, 3);
  const int id = GetParam();
  const auto params = media::FaceParams::for_identity(id);
  const Image frame = media::camera_capture(params, media::enrollment_pose(id, 0));
  const auto result = media::recognize(frame, db);
  EXPECT_EQ(result.identity, id);
  EXPECT_EQ(result.winner.best, 0u);  // exact template hit
}

INSTANTIATE_TEST_SUITE_P(Identities, DatabaseSelfMatch, ::testing::Range(0, 8));
