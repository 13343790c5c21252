#pragma once
// The C reference model of the face recognition system (paper §4: "The
// reference model of the complete system functionality is a collection of
// programs written in C"). All refinement levels are verified against the
// traces this model produces.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "media/image.hpp"
#include "media/kernels.hpp"
#include "verif/fault.hpp"

namespace symbad::media {

/// Tunables of the recognition pipeline.
struct PipelineConfig {
  std::uint16_t edge_threshold = 60;
  int window_size = 32;
  /// Seeds the paper's "incorrect memory initialisation" bug: the CRTBORD
  /// window buffer is reused across frames without initialisation, leaking
  /// one row of stale data into the current frame (found by Laerte++'s
  /// memory inspection in the paper; found by ATPG comparison here).
  bool seeded_memory_bug = false;
};

/// Per-stage checksums recorded for cross-level trace comparison.
struct StageTraces {
  std::uint64_t bay = 0;
  std::uint64_t erosion = 0;
  std::uint64_t root = 0;
  std::uint64_t edge = 0;
  std::uint64_t window = 0;
  std::uint64_t features = 0;
};

/// Operation counts per stage — the profiling data that drives the level-2
/// HW/SW partitioning decision.
class PipelineProfile {
public:
  void add(const std::string& stage_name, std::uint64_t ops) { ops_[stage_name] += ops; }
  [[nodiscard]] std::uint64_t ops(const std::string& stage_name) const {
    const auto it = ops_.find(stage_name);
    return it == ops_.end() ? 0 : it->second;
  }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& by_stage() const noexcept {
    return ops_;
  }
  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t t = 0;
    for (const auto& [s, n] : ops_) t += n;
    return t;
  }
  /// Stage names sorted by descending op count (the designer's ranking of
  /// "the heaviest computational tasks").
  [[nodiscard]] std::vector<std::string> ranking() const;

private:
  std::map<std::string, std::uint64_t> ops_;
};

/// State for the seeded memory bug (stale window buffer across frames).
/// Kept explicit so tests and the ATPG can reset it deterministically.
class FrontEndState {
public:
  void reset() { stale_window_ = Image{}; }
  [[nodiscard]] Image& stale_window() noexcept { return stale_window_; }

private:
  Image stale_window_;
};

/// Every stage-boundary value of one front-end run, from the raw frame (BAY
/// input) to the feature vector (CALCLINE output). A staged run can restart
/// below any of them, taking the values above as given.
struct FrontEndValues {
  Image bayer;          ///< BAY input: the raw frame
  Image luma;           ///< BAY output
  Image eroded;         ///< EROSION output
  Image rooted;         ///< ROOT output
  Image edges;          ///< EDGE output (the binary edge map)
  EllipseFit fit;       ///< ELLIPSE output
  Image window;         ///< CRTBORD output
  FeatureVec features;  ///< CALCLINE output
};

/// The boundaries a staged run can start at, in dataflow order: the raw
/// frame (a full run) or the output of a stage a bit fault can target.
enum class Boundary : std::uint8_t { frame, bay, erosion, root, edge, crtbord, calcline };

/// The staged front end (BAY .. CALCLINE) over `values`. The value at
/// boundary `from` is taken as given and every boundary value below it is
/// recomputed from the ones above (CRTBORD crops the BAY output). `fault`,
/// when non-null, injects one bit fault at the named stage boundary if that
/// boundary is `from` or below it (the ATPG's bit-coverage fault model);
/// `traces` receives the checksums of those boundaries.
void run_front_end(FrontEndValues& values, Boundary from,
                   const PipelineConfig& config = {}, PipelineProfile* profile = nullptr,
                   StageTraces* traces = nullptr, const verif::BitFault* fault = nullptr,
                   FrontEndState* state = nullptr);

/// Runs the whole front end on one raw Bayer frame and returns the feature
/// vector: run_front_end from the frame.
[[nodiscard]] FeatureVec extract_features(const Image& bayer,
                                          const PipelineConfig& config = {},
                                          PipelineProfile* profile = nullptr,
                                          StageTraces* traces = nullptr,
                                          const verif::BitFault* fault = nullptr,
                                          FrontEndState* state = nullptr);

class FaceDatabase;  // defined in media/database.hpp

/// Result of recognising one frame against the database.
struct RecognitionResult {
  Winner winner;                         ///< winning database entry
  int identity = -1;                     ///< resolved identity (-1: none)
  std::vector<std::uint32_t> distances;  ///< one per database entry
  FeatureVec features;
  StageTraces traces;
};

/// The back end: DISTANCE of `features` against every database template,
/// then WINNER. The result's traces stay zero: a caller that reads no
/// stage checksum runs extract_features without traces and then this.
[[nodiscard]] RecognitionResult match(FeatureVec features, const FaceDatabase& db,
                                      PipelineProfile* profile = nullptr);

/// The complete reference pipeline: front end + DISTANCE over the database
/// + WINNER, with the stage checksums in the result's traces.
[[nodiscard]] RecognitionResult recognize(const Image& bayer, const FaceDatabase& db,
                                          const PipelineConfig& config = {},
                                          PipelineProfile* profile = nullptr,
                                          const verif::BitFault* fault = nullptr,
                                          FrontEndState* state = nullptr);

/// A fault-free recognition with every stage-boundary value kept: the
/// reference a fault simulation resumes from.
struct GoldenRun {
  FrontEndValues values;
  RecognitionResult result;
};
[[nodiscard]] GoldenRun golden_run(Image bayer, const FaceDatabase& db,
                                   const PipelineConfig& config = {});

/// Fault simulation of one bit fault on the frame of `golden`, which must
/// have been run against the same `db` and `config`. The fault is patched
/// into the kept value at its boundary and only the stages below it are
/// recomputed, so the result equals recognize(frame, db, config, nullptr,
/// &fault). Returns nullopt when the fault is not excited: the patch leaves
/// the word unchanged (or no boundary has that stage and port), so the
/// faulty run equals the golden one.
[[nodiscard]] std::optional<RecognitionResult> simulate_fault(
    const GoldenRun& golden, const FaceDatabase& db, const PipelineConfig& config,
    const verif::BitFault& fault);

}  // namespace symbad::media
