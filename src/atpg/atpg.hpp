#pragma once
// Laerte++-style ATPG for the behavioural (level-1) model, plus SAT-based
// test generation for RTL blocks (paper §3.1, refs [5][6]).
//
// "The test pattern generator exploits both simulation-based techniques
// (e.g., genetic algorithms) and formal-based ones (e.g., SAT solvers).
// Coverage measures are based on standard metrics (statement, condition and
// branch coverage) and on the more accurate bit-coverage metric."
//
//  * `Laerte::evaluate`      — coverage estimation of a testbench, with
//    optional bit-coverage fault grading at the pipeline stage boundaries.
//  * `Laerte::random_testbench` / `genetic_testbench` — the two
//    simulation-based engines.
//  * `sat_generate_test`     — formal engine: stuck-at test generation on a
//    gate netlist via a miter (shared-input good/faulty unrolling).

#include <compare>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "media/database.hpp"
#include "media/face_gen.hpp"
#include "media/pipeline.hpp"
#include "rtl/cnf.hpp"
#include "rtl/cone.hpp"
#include "rtl/netlist.hpp"
#include "sat/solver.hpp"
#include "verif/coverage.hpp"
#include "verif/fault.hpp"
#include "verif/rng.hpp"

namespace symbad::atpg {

/// One stimulus frame: the acquisition parameters of a captured face.
struct Stimulus {
  int identity = 0;
  int dx = 0;
  int dy = 0;
  int rot_deg = 0;
  int scale_q8 = 256;
  int light_offset = 0;
  int noise_amp = 2;
  std::uint64_t noise_seed = 1;

  [[nodiscard]] media::Pose to_pose() const;
  [[nodiscard]] static Stimulus random(verif::Rng& rng, int identities);

  auto operator<=>(const Stimulus&) const = default;
};

struct Testbench {
  std::vector<Stimulus> frames;
};

/// Result of grading a testbench.
struct Estimate {
  verif::CoverageReport coverage;
  verif::FaultGrade bit_faults;  ///< populated when fault grading requested
  double fitness = 0.0;          ///< the GA's objective (overall coverage %)
};

class Laerte {
public:
  struct Config {
    int identities = 8;
    int poses_per_identity = 3;
    int image_size = 64;
    media::PipelineConfig pipeline{};
    /// Bit faults sampled per stage boundary for fault grading.
    int faults_per_stage = 12;
  };

  explicit Laerte(Config config);

  /// Coverage estimation (and optional bit-coverage grading) of a testbench.
  /// Grading is fault simulation: each frame runs its golden pipeline once,
  /// and each fault either leaves a frame's faulted word unchanged (skip) or
  /// resumes the frame below the faulted stage boundary.
  [[nodiscard]] Estimate evaluate(const Testbench& tb, bool grade_bit_faults = false);

  /// Simulation-based engine 1: random stimuli.
  [[nodiscard]] Testbench random_testbench(int frames, std::uint64_t seed) const;
  /// Simulation-based engine 2: genetic optimisation of coverage. Each
  /// distinct stimulus is simulated once per call; a testbench's coverage is
  /// the merge of its frames' coverage.
  /// Throws std::invalid_argument when `frames` or `population` is < 1.
  [[nodiscard]] Testbench genetic_testbench(int frames, int population, int generations,
                                            std::uint64_t seed);

  /// The sampled bit-coverage fault list (stage-boundary stuck-at faults).
  [[nodiscard]] std::vector<verif::BitFault> bit_fault_list() const;

  /// Laerte++'s memory-inspection result, reproduced as a dynamic check:
  /// does `tb` expose the seeded uninitialised-window bug (different
  /// observable outputs between the clean and the buggy pipeline)? Each
  /// frame is captured and its front end run once; the buggy run recomputes
  /// CRTBORD, whose window every output below it derives from.
  [[nodiscard]] bool detects_seeded_memory_bug(const Testbench& tb) const;

  [[nodiscard]] const media::FaceDatabase& database() const noexcept { return db_; }

private:
  [[nodiscard]] media::Image capture(const Stimulus& s) const;

  Config config_;
  media::FaceDatabase db_;
};

/// Formal engine: SAT test generation for one stuck-at fault on `netlist`.
/// Unrolls `unroll` frames of a good and a faulty copy sharing inputs and
/// asks for any output difference. Returns per-frame input assignments, or
/// nullopt when the fault is undetectable within the unrolling. One
/// throwaway SatEngine per call; fault lists should share one engine.
struct SatTest {
  std::vector<std::map<std::string, bool>> frames;  ///< input name -> value
};
[[nodiscard]] std::optional<SatTest> sat_generate_test(const rtl::Netlist& netlist,
                                                       rtl::Net fault_net, bool stuck_to,
                                                       int unroll = 4);

/// Incremental multi-fault SAT test generator.
///
/// The good-circuit unrolling is Tseitin-encoded exactly once into one
/// long-lived solver. Each fault then adds only what it changes: its
/// faulty copy re-encodes just the nets whose literals differ from the good
/// copy's (rtl::CnfEncoder's `reuse_base`, inside the fault cone), and the
/// output miter gets a difference XOR only for an output whose literal
/// differs — a fault that changes no output literal is undetectable
/// without a solve. Every clause is gated behind a per-fault activation
/// literal: the solve runs under that single assumption, and afterwards
/// the unit clause ~activation permanently retires the miter (its clauses
/// become satisfied and migrate out of watch propagation). Learned clauses
/// about the good circuit and the shared inputs survive from fault to
/// fault — the incremental-SAT reuse a fresh solver per fault throws away.
class SatEngine {
public:
  struct Options {
    int unroll = 4;  ///< time frames for both circuit copies (>= 1)
  };

  struct FaultResult {
    rtl::Net net{};
    bool stuck_to = false;
    std::optional<SatTest> test;  ///< nullopt: undetectable within unroll
  };

  explicit SatEngine(const rtl::Netlist& netlist) : SatEngine{netlist, Options{}} {}
  /// Throws std::invalid_argument when `options.unroll` < 1.
  SatEngine(const rtl::Netlist& netlist, Options options);

  /// Generates a test for one fault on the shared solver. Throws
  /// std::out_of_range when `fault_net` is not a net of the netlist.
  [[nodiscard]] std::optional<SatTest> generate(rtl::Net fault_net, bool stuck_to);

  /// Generates tests for a whole fault list, sharing the solver and its
  /// learned clauses across faults; results are in input order. Solve cost
  /// lives in the `sat.*` registry counters (one add per solve): an
  /// obs::Scope around this call reads the fault list's share.
  [[nodiscard]] std::vector<FaultResult> generate_tests(
      std::span<const std::pair<rtl::Net, bool>> faults);

  [[nodiscard]] const sat::Solver& solver() const noexcept { return solver_; }
  [[nodiscard]] int unroll() const noexcept { return options_.unroll; }

private:
  const rtl::Netlist* netlist_;
  Options options_;
  sat::Solver solver_;
  rtl::CnfEncoder encoder_;  ///< encodes the good and the faulty copies
  /// Shared forward-cone traversal (rtl::ConeTracer): cones_.fault_cones()
  /// tells which nets per frame can differ from the good copy — only those
  /// are candidates for re-encoding per fault.
  rtl::ConeTracer cones_;
  std::vector<rtl::Frame> good_;  ///< good-copy frames, reset-chained
  std::vector<std::vector<sat::Lit>> shared_inputs_;  ///< per frame, input order
};

}  // namespace symbad::atpg
