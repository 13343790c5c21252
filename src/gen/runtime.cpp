#include "gen/runtime.hpp"

#include <algorithm>
#include <stdexcept>

#include "gen/gen.hpp"
#include "verif/coverage.hpp"
#include "verif/rng.hpp"

namespace symbad::gen {

namespace {

constexpr std::uint64_t kValueSalt = 0x73796E'7468'0001ULL;
constexpr std::uint64_t kExtraSalt = 0x73796E'7468'0002ULL;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t hash_name(const std::string& s) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

SyntheticRuntime::SyntheticRuntime(const core::TaskGraph& graph, std::uint64_t seed)
    : seed_{seed}, traffic_{traffic_for(seed)} {
  stages_.reserve(graph.task_count());
  for (const auto& t : graph.tasks()) {
    Stage s;
    s.name_hash = hash_name(t.name);
    s.ops_per_frame = t.ops_per_frame;
    // Per-stage constant (the StageRuntime contract has no frame here):
    // about a third of the stages stream extra data from memory each frame,
    // sized by the platform's per-request word count.
    verif::Rng rng = verif::Rng{seed_}.fork(kExtraSalt ^ s.name_hash);
    if (rng.chance(0.3)) {
      s.extra_read_words = traffic_.options().words_per_request *
                           static_cast<std::uint32_t>(1 + rng.below(3));
    }
    stages_.push_back(std::move(s));
  }
  for (const auto& c : graph.channels()) {
    stages_[graph.id_of(c.to)].predecessors.push_back(graph.id_of(c.from));
  }
}

void SyntheticRuntime::reset_run() { std::fill(memo_.begin(), memo_.end(), std::nullopt); }

const SyntheticRuntime::Stage& SyntheticRuntime::stage_of(const core::TaskNode& node) const {
  if (node.id >= stages_.size()) {
    throw std::out_of_range{"synthetic runtime: unknown stage '" + node.name + "'"};
  }
  return stages_[node.id];
}

const TrafficModel::FrameLoad& SyntheticRuntime::load_of(int frame) {
  if (frame < 0) throw std::invalid_argument{"synthetic runtime: negative frame"};
  if (frame >= static_cast<int>(loads_.size())) {
    for (auto f = static_cast<int>(loads_.size()); f <= frame; ++f) {
      loads_.push_back(traffic_.frame_load(f));
    }
    memo_.resize(loads_.size() * stages_.size());
  }
  return loads_[static_cast<std::size_t>(frame)];
}

std::uint64_t SyntheticRuntime::value_of(core::TaskId stage, int frame) {
  const Stage& s = stages_[stage];
  if (frame < 0) return mix(seed_ ^ kValueSalt, s.name_hash);
  const std::uint32_t requests = load_of(frame).requests;
  const std::size_t cell = static_cast<std::size_t>(frame) * stages_.size() + stage;
  if (memo_[cell].has_value()) return *memo_[cell];

  std::uint64_t h = seed_ ^ kValueSalt;
  h = mix(h, s.name_hash);
  h = mix(h, static_cast<std::uint64_t>(frame));
  // The stage's own state (previous frame) plus every predecessor's value
  // for this frame: the dataflow the task graph prescribes, so a model
  // level that dropped a token or reordered a dependency would trace
  // differently.
  h = mix(h, value_of(stage, frame - 1));
  for (const core::TaskId pred : s.predecessors) h = mix(h, value_of(pred, frame));
  h = mix(h, requests);
  memo_[cell] = h;
  return h;
}

std::uint64_t SyntheticRuntime::execute_stage(const core::TaskNode& stage, int frame) {
  const Stage& s = stage_of(stage);
  const auto load = load_of(frame);
  const int idx = static_cast<int>(stage.id);
  const int n = static_cast<int>(stages_.size());
  // Declared every call (idempotent: CovModule only grows) so unexecuted
  // stages still count against campaign coverage.
  auto* cov = verif::CoverageDb::active_module("gen.synthetic");
  if (cov != nullptr) {
    cov->declare_statements(n);
    cov->declare_branches(n);
  }
  verif::cov_stmt(cov, idx);
  verif::cov_branch(cov, idx, load.burst > 0);

  (void)value_of(stage.id, frame);
  return std::max<std::uint64_t>(1, s.ops_per_frame * load.ops_scale_q8 / 256u);
}

std::uint64_t SyntheticRuntime::trace_value(const core::TaskNode& stage, int frame) {
  (void)stage_of(stage);
  return value_of(stage.id, frame);
}

std::uint32_t SyntheticRuntime::extra_read_words(const core::TaskNode& stage) const {
  return stage_of(stage).extra_read_words;
}

}  // namespace symbad::gen
