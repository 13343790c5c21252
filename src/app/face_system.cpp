#include "app/face_system.hpp"

#include <algorithm>
#include <stdexcept>

namespace symbad::app {

namespace stage = media::stage;

media::Pose query_pose(int frame) {
  media::Pose pose;
  pose.dx = (frame % 3) - 1;
  pose.dy = ((frame + 1) % 3) - 1;
  pose.rot_deg = (frame % 2 == 0) ? 3 : -3;
  pose.light_offset = 4 + (frame % 4);
  pose.noise_amp = 2;
  pose.noise_seed = 0x51D0ULL + static_cast<std::uint64_t>(frame) * 7919ULL;
  return pose;
}

int query_identity(int frame, int identities) {
  if (identities <= 0) throw std::invalid_argument{"query_identity: no identities"};
  return frame % identities;
}

core::TaskGraph face_task_graph(const media::FaceDatabase& db, int image_size,
                                int window_size) {
  core::TaskGraph g;
  const auto frame_words = static_cast<std::uint32_t>(image_size * image_size);
  const auto window_words = static_cast<std::uint32_t>(window_size * window_size);
  const auto profile_words = static_cast<std::uint32_t>(2 * window_size + 2 * (2 * window_size - 1));
  const auto db_words = static_cast<std::uint32_t>(db.storage_bytes() / 4);
  const auto dist_words = static_cast<std::uint32_t>(db.size());

  g.add_task(stage::camera);
  g.add_task(stage::bay);
  g.add_task(stage::erosion);
  g.add_task(stage::root);
  g.add_task(stage::edge);
  g.add_task(stage::ellipse);
  g.add_task(stage::crtbord);
  g.add_task(stage::crtline);
  g.add_task(stage::calcline);
  g.add_task(stage::distance);
  g.add_task(stage::winner);
  g.add_task(stage::database);

  g.add_channel(stage::camera, stage::bay, frame_words);
  g.add_channel(stage::bay, stage::erosion, frame_words);
  g.add_channel(stage::erosion, stage::root, frame_words);
  g.add_channel(stage::root, stage::edge, frame_words);
  g.add_channel(stage::edge, stage::ellipse, frame_words);
  g.add_channel(stage::ellipse, stage::crtbord, 8);
  // CRTBORD re-reads the demosaiced frame to cut the window.
  g.add_channel(stage::bay, stage::crtbord, frame_words);
  g.add_channel(stage::crtbord, stage::crtline, window_words);
  g.add_channel(stage::crtline, stage::calcline, profile_words);
  g.add_channel(stage::calcline, stage::distance, profile_words);
  g.add_channel(stage::database, stage::distance, db_words);
  g.add_channel(stage::distance, stage::winner, dist_words);
  return g;
}

media::PipelineProfile profile_reference(const media::FaceDatabase& db, int frames,
                                         int image_size) {
  media::PipelineProfile profile;
  for (int f = 0; f < frames; ++f) {
    const int id = query_identity(f, db.identities());
    const auto capture = media::camera_capture(media::FaceParams::for_identity(id),
                                               query_pose(f), image_size);
    (void)media::recognize(capture, db, {}, &profile);
  }
  return profile;
}

void annotate_from_profile(core::TaskGraph& graph, const media::PipelineProfile& profile,
                           int frames) {
  if (frames <= 0) throw std::invalid_argument{"annotate_from_profile: frames <= 0"};
  for (const auto& node : graph.tasks()) {
    const std::uint64_t total = profile.ops(node.name);
    graph.set_ops(node.name, total / static_cast<std::uint64_t>(frames));
  }
  // CAMERA and DATABASE are environment models: token sources with nominal
  // cost (sensor readout / flash streaming handled as channel traffic).
  graph.set_ops(stage::camera, 64);
  graph.set_ops(stage::database, 64);
  // ELLIPSE/CRTLINE run inside other profile buckets at level 1; give the
  // un-profiled entries at least a nominal cost.
  for (const auto& node : graph.tasks()) {
    if (graph.task(node.name).ops_per_frame == 0) graph.set_ops(node.name, 64);
  }
}

core::Partition paper_level2_partition(const core::TaskGraph& graph) {
  core::Partition p = core::Partition::all_software(graph);
  p.bind_hardware(stage::root);
  p.bind_hardware(stage::distance);
  return p;
}

core::Partition paper_level3_partition(const core::TaskGraph& graph) {
  core::Partition p = core::Partition::all_software(graph);
  // "modules DISTANCE and ROOT be mapped both into the FPGA. They have been
  // splitted into two different contexts, named config1 and config2."
  p.bind_fpga(stage::distance, "config1");
  p.bind_fpga(stage::root, "config2");
  return p;
}

core::Partition merged_context_partition(const core::TaskGraph& graph) {
  core::Partition p = core::Partition::all_software(graph);
  p.bind_fpga(stage::distance, "config1");
  p.bind_fpga(stage::root, "config1");
  return p;
}

// ------------------------------------------------------ FaceStageRuntime

FaceStageRuntime::FaceStageRuntime(const media::FaceDatabase& db,
                                   media::PipelineConfig config, int image_size)
    : db_{&db}, config_{config}, image_size_{image_size} {}

void FaceStageRuntime::set_query_schedule(std::vector<media::QueryRequest> schedule) {
  for (const auto& q : schedule) {
    if (q.identity < 0 || q.identity >= db_->identities()) {
      throw std::invalid_argument{"set_query_schedule: identity out of range"};
    }
    if (q.pose.scale_q8 <= 0) {
      throw std::invalid_argument{"set_query_schedule: zoom must be positive"};
    }
  }
  schedule_ = std::move(schedule);
}

void FaceStageRuntime::begin_frame(int frame) {
  media::PipelineValues& values = frames_[frame];
  if (!values.bayer.empty()) return;  // both sources share the same frame
  int id = query_identity(frame, db_->identities());
  media::Pose pose = query_pose(frame);
  if (!schedule_.empty()) {
    const auto& q = schedule_[static_cast<std::size_t>(frame) % schedule_.size()];
    id = q.identity;
    pose = q.pose;
  }
  values.bayer =
      media::camera_capture(media::FaceParams::for_identity(id), pose, image_size_);
}

std::uint64_t FaceStageRuntime::execute_stage(const core::TaskNode& node, int frame) {
  const std::string& stage_name = node.name;
  // BAY captures too, defensively: it needs the frame.
  if (stage_name == stage::camera || stage_name == stage::bay) begin_frame(frame);
  // CAMERA and DATABASE are environment models with a nominal cost.
  if (stage_name == stage::camera || stage_name == stage::database) return 64;
  media::PipelineValues& values = frames_[frame];
  const std::uint64_t ops = media::run_stage(stage_name, values, config_, db_);
  if (stage_name == stage::winner) {
    if (static_cast<int>(identities_.size()) <= frame) {
      identities_.resize(static_cast<std::size_t>(frame) + 1, -1);
    }
    identities_[static_cast<std::size_t>(frame)] = values.identity;
    // WINNER is the graph's sink: every other stage of the frame has run
    // and traced (a stage traces before it writes its outputs), so the
    // frame's values are dead.
    frames_.erase(frame);
  }
  return ops;
}

std::uint64_t FaceStageRuntime::trace_value(const core::TaskNode& node, int frame) {
  const std::string& stage_name = node.name;
  if (stage_name == stage::database) return db_->size();
  if (stage_name == stage::winner) {
    return static_cast<std::uint64_t>(
        static_cast<std::int64_t>(identities_.at(static_cast<std::size_t>(frame))));
  }
  const media::PipelineValues& v = frames_.at(frame);
  if (stage_name == stage::camera) return v.bayer.checksum();
  if (stage_name == stage::bay) return v.luma.checksum();
  if (stage_name == stage::erosion) return v.eroded.checksum();
  if (stage_name == stage::root) return v.rooted.checksum();
  if (stage_name == stage::edge) return v.edges.checksum();
  if (stage_name == stage::ellipse) {
    return static_cast<std::uint64_t>(v.fit.cx) << 32 | static_cast<std::uint32_t>(v.fit.cy);
  }
  if (stage_name == stage::crtbord) return v.window.checksum();
  if (stage_name == stage::crtline) return v.lines.total_elements();
  if (stage_name == stage::calcline) return v.features.checksum();
  if (stage_name == stage::distance) {
    std::uint64_t h = 1469598103934665603ULL;
    for (const auto d : v.distances) {
      h ^= d;
      h *= 1099511628211ULL;
    }
    return h;
  }
  return 0;
}

std::uint32_t FaceStageRuntime::extra_read_words(const core::TaskNode& node) const {
  // DISTANCE streams every database template per frame (beyond the token
  // traffic modelled on the DATABASE->DISTANCE channel, which carries them
  // once via the channel volume; the extra term models repeated access in
  // the compare loop's second pass).
  if (node.name == stage::distance) {
    return static_cast<std::uint32_t>(db_->size());
  }
  return 0;
}

}  // namespace symbad::app
