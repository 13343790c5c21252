#pragma once
// The C reference model of the face recognition system (paper §4: "The
// reference model of the complete system functionality is a collection of
// programs written in C"). It is the one implementation of the pipeline's
// stage dataflow: `run_stage` runs any one stage, and the refinement levels
// run it too. app::FaceStageRuntime computes each level's traces from this
// model's stage values, and the levels are checked against each other's
// traces.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
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

/// Every stage value of one recognition, from the raw frame (BAY input) to
/// the resolved identity; each stage writes only its own output. A staged
/// front-end run can restart below any `Boundary`, taking the values above
/// it as given.
struct PipelineValues {
  Image bayer;          ///< BAY input: the raw frame
  Image luma;           ///< BAY output
  Image eroded;         ///< EROSION output
  Image rooted;         ///< ROOT output
  Image edges;          ///< EDGE output (the binary edge map)
  EllipseFit fit;       ///< ELLIPSE output
  Image window;         ///< CRTBORD output
  LineProfiles lines;   ///< CRTLINE output
  FeatureVec features;  ///< CALCLINE output
  std::vector<std::uint32_t> distances;  ///< DISTANCE output, one per database entry
  Winner winner;        ///< WINNER output
  int identity = -1;    ///< WINNER's resolved identity (-1: none)
};

class FaceDatabase;  // defined in media/database.hpp

/// Runs one pipeline stage, named by its media::stage name (BAY to WINNER),
/// on `values`: it reads the values above it and writes its own output, and
/// returns the stage's op count. CRTBORD cuts the BAY output around the
/// ELLIPSE fit; with `config.seeded_memory_bug` and a `state` it leaks one
/// row of the previous frame's window. DISTANCE compares the features with
/// every template of `db`, and WINNER resolves the winner's identity there.
/// Throws std::out_of_range for any other name, and std::invalid_argument
/// for DISTANCE or WINNER without a database.
std::uint64_t run_stage(std::string_view stage_name, PipelineValues& values,
                        const PipelineConfig& config, const FaceDatabase* db = nullptr,
                        FrontEndState* state = nullptr);

/// The boundaries a staged run can start at, in dataflow order: the raw
/// frame (a full run) or the output of a stage a bit fault can target.
enum class Boundary : std::uint8_t { frame, bay, erosion, root, edge, crtbord, calcline };

/// The staged front end (BAY .. CALCLINE) over `values`. The value at
/// boundary `from` is taken as given and every stage below it runs, adding
/// its ops to `profile` (CRTBORD re-reads the BAY output). `fault`, when
/// non-null, injects one bit fault at the named stage boundary if that
/// boundary is `from` or below it (the ATPG's bit-coverage fault model).
void run_front_end(PipelineValues& values, Boundary from,
                   const PipelineConfig& config = {}, PipelineProfile* profile = nullptr,
                   const verif::BitFault* fault = nullptr, FrontEndState* state = nullptr);

/// Runs the whole front end on one raw Bayer frame and returns the feature
/// vector: run_front_end from the frame.
[[nodiscard]] FeatureVec extract_features(const Image& bayer,
                                          const PipelineConfig& config = {},
                                          PipelineProfile* profile = nullptr,
                                          const verif::BitFault* fault = nullptr,
                                          FrontEndState* state = nullptr);

/// The complete reference pipeline on one frame: the front end, DISTANCE
/// over the database and WINNER, with every stage value kept.
[[nodiscard]] PipelineValues recognize(const Image& bayer, const FaceDatabase& db,
                                       const PipelineConfig& config = {},
                                       PipelineProfile* profile = nullptr,
                                       const verif::BitFault* fault = nullptr,
                                       FrontEndState* state = nullptr);

/// A fault-free recognition without profile or state: the reference a fault
/// simulation resumes from.
[[nodiscard]] PipelineValues golden_run(const Image& bayer, const FaceDatabase& db,
                                        const PipelineConfig& config = {});

/// Fault simulation of one bit fault on the frame of `golden`, which must
/// have been run against the same `db` and `config`. The fault is patched
/// into the kept value at its boundary and only the stages below it are
/// recomputed, so the result equals recognize(frame, db, config, nullptr,
/// &fault). Returns nullopt when the fault is not excited: the patch leaves
/// the word unchanged (or no boundary has that stage and port), so the
/// faulty run equals the golden one.
[[nodiscard]] std::optional<PipelineValues> simulate_fault(const PipelineValues& golden,
                                                           const FaceDatabase& db,
                                                           const PipelineConfig& config,
                                                           const verif::BitFault& fault);

}  // namespace symbad::media
