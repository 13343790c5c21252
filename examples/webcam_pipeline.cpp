// A second application of the same family on the same reconfigurable
// platform (paper §4: "The nature of the reconfigurable platform allows ...
// flexibility to possibly implement other applications of the same family";
// cf. the reconfigurable web-cam of the paper's ref [3]): a motion-detection
// surveillance pipeline reusing the media kernels and the platform models,
// driven end-to-end by the core FlowDriver.
//
// It also demonstrates how a user writes a custom StageRuntime.
//
//   $ ./examples/webcam_pipeline

#include <cstdio>
#include <map>

#include "core/flow.hpp"
#include "core/partition.hpp"
#include "core/task_graph.hpp"
#include "lpv/lpv.hpp"
#include "lpv/petri.hpp"
#include "media/face_gen.hpp"
#include "media/kernels.hpp"

namespace core = symbad::core;
namespace media = symbad::media;
namespace lpv = symbad::lpv;

namespace {

/// Data semantics of the webcam: CAMERA -> BAY -> MOTION -> EROSION ->
/// ELLIPSE (blob localisation) -> ALERT.
class WebcamRuntime final : public core::StageRuntime {
public:
  explicit WebcamRuntime(int image_size) : size_{image_size} {}

  void reset_run() override { frames_.clear(); }

  void begin_frame(int frame) override {
    auto& d = frames_[frame];
    if (!d.raw.empty()) return;
    // A slowly drifting face plays the moving subject.
    media::Pose pose;
    pose.dx = frame - 3;
    pose.dy = (frame % 2) * 2;
    pose.noise_seed = 77 + static_cast<std::uint64_t>(frame);
    d.raw = media::camera_capture(media::FaceParams::for_identity(3), pose, size_);
  }

  std::uint64_t execute_stage(const core::TaskNode& node, int frame) override {
    const std::string& stage = node.name;
    auto& d = frames_[frame];
    std::uint64_t ops = 0;
    media::Ctx ctx;
    ctx.ops = &ops;
    if (stage == "CAMERA") {
      begin_frame(frame);
      d.trace[stage] = d.raw.checksum();
      return 64;
    }
    if (stage == "BAY") {
      d.luma = media::bay_demosaic_luma(d.raw, ctx);
      d.trace[stage] = d.luma.checksum();
    } else if (stage == "MOTION") {
      // Reference frame: the previous frame's luma (itself for frame 0).
      const media::Image& previous =
          frame > 0 ? frames_.at(frame - 1).luma : d.luma;
      d.motion = media::frame_difference(d.luma, previous, 24, ctx);
      d.trace[stage] = d.motion.mask.checksum();
    } else if (stage == "EROSION") {
      d.cleaned = media::erode3x3(d.motion.mask, ctx);
      d.trace[stage] = d.cleaned.checksum();
    } else if (stage == "ELLIPSE") {
      d.blob = media::fit_ellipse(d.cleaned, ctx);
      d.trace[stage] = static_cast<std::uint64_t>(d.blob.found ? d.blob.cx : -1);
    } else if (stage == "ALERT") {
      const bool alarm = d.blob.found && d.motion.active_pixels > 40;
      if (alarm) ++alarms_;
      d.trace[stage] = alarm ? 1 : 0;
      ops = 16;
    }
    return ops;
  }

  std::uint64_t trace_value(const core::TaskNode& node, int frame) override {
    const auto& trace = frames_[frame].trace;
    const auto it = trace.find(node.name);
    return it == trace.end() ? 0 : it->second;
  }

  [[nodiscard]] int alarms() const noexcept { return alarms_; }

private:
  struct FrameData {
    media::Image raw;
    media::Image luma;
    media::Image cleaned;
    media::MotionResult motion;
    media::EllipseFit blob;
    std::map<std::string, std::uint64_t> trace;
  };
  int size_;
  std::map<int, FrameData> frames_;
  int alarms_ = 0;
};

core::TaskGraph webcam_graph(int size) {
  core::TaskGraph g;
  const auto frame_words = static_cast<std::uint32_t>(size * size);
  g.add_task("CAMERA", 64);
  g.add_task("BAY", 50'000);
  g.add_task("MOTION", 25'000);
  g.add_task("EROSION", 74'000);
  g.add_task("ELLIPSE", 25'000);
  g.add_task("ALERT", 16);
  g.add_channel("CAMERA", "BAY", frame_words);
  g.add_channel("BAY", "MOTION", frame_words);
  g.add_channel("MOTION", "EROSION", frame_words);
  g.add_channel("EROSION", "ELLIPSE", frame_words);
  g.add_channel("ELLIPSE", "ALERT", 8);
  return g;
}

}  // namespace

int main() {
  std::printf("== Webcam motion pipeline on the reconfigurable platform ==\n\n");
  constexpr int kSize = 64;
  auto graph = webcam_graph(kSize);

  WebcamRuntime runtime{kSize};
  core::FlowDriver::Config config;
  config.frames = 8;
  core::FlowDriver flow{graph, runtime, config};

  // Level-2 partition: EROSION hardwired. Level-3: MOTION on the FPGA —
  // the *same fabric* that hosts ROOT/DISTANCE for face recognition, now
  // carrying a different application of the family.
  core::Partition level2 = core::Partition::all_software(graph);
  level2.bind_hardware("EROSION");
  flow.set_level2_partition(level2);
  core::Partition level3 = core::Partition::all_software(graph);
  level3.bind_hardware("EROSION");
  level3.bind_fpga("MOTION", "config_motion");
  flow.set_level3_partition(level3);

  // LPV deadlock check wired as a level-1 verification hook.
  flow.add_verification(1, [](const core::TaskGraph& g, const core::Partition&) {
    const auto net = lpv::petri_from_task_graph(g);
    const auto result = lpv::check_deadlock_freeness(net);
    return core::VerificationOutcome{
        "LPV", result.proved_free ? "deadlock freeness proved" : "not proved",
        result.proved_free};
  });
  // LPV structural invariant: each channel conserves tokens+slots.
  flow.add_verification(1, [](const core::TaskGraph& g, const core::Partition&) {
    const auto net = lpv::petri_from_task_graph(g);
    const auto invariant = lpv::find_invariant_covering(net, 0);
    const bool ok = invariant.has_value() && lpv::verify_invariant(net, invariant->weights);
    return core::VerificationOutcome{
        "LPV", ok ? "place invariant found and verified" : "no invariant", ok};
  });

  const auto report = flow.run(3);
  std::printf("%s\n", report.to_string().c_str());
  std::printf("alarms raised over %d frames: %d (x3 runs: one per level)\n",
              config.frames, runtime.alarms());
  std::printf("flow %s\n", report.clean() ? "CLEAN" : "HAS FAILURES");
  return report.clean() ? 0 : 1;
}
