#pragma once
// Netlist optimization engine (ABC/AIG tradition) — the default-on
// preprocessing step in front of every CNF encoding in the repo.
//
// The formal engines (BMC/k-induction in src/mc, SAT-ATPG in src/atpg,
// fault grading in src/pcc) used to encode the rtl::Netlist exactly as
// built. PR 4's cone-of-influence work showed that shrinking what gets
// encoded is worth an order of magnitude; this subsystem shrinks the
// netlist itself, and the two reductions compound:
//
//  * structural hashing with operand canonicalization — commutative
//    operands sorted, so `and(a,b)` and `and(b,a)` share one gate;
//  * local rewriting — constant folding per GateKind, double negation,
//    x&x, x&~x, xor(x,x), mux with constant/equal/complement arms,
//    mux select-inversion canonicalization;
//  * dead-gate elimination — gates outside the backward cone of the
//    preserved outputs are dropped (reusing the Netlist COI traversal);
//  * SAT sweeping (opt::SatSweeper, sweep.hpp) — nets that simulate
//    identically under random patterns are proven combinationally
//    equivalent with incremental miters on one long-lived sat::Solver
//    and merged.
//
// Every transform preserves the *combinational* function of each
// surviving net over (primary inputs ∪ flip-flop outputs), and flip-flops
// are never merged (dead ones may be dropped). That invariant is what
// makes the optimization exact for the formal clients: BMC frames,
// k-induction frames (free state) and fault miters are all
// satisfiability-equivalent with the optimization on or off, so verdicts,
// bounds and canonical counterexamples are bit-identical — only the
// encoding shrinks. Primary inputs are always kept, in declaration order,
// so input-trace extraction does not even need name translation.
//
// The old->new `NetMap` translates nets of the input netlist into the
// optimized one (merged nets map to their surviving representative;
// dead nets map to -1).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "rtl/netlist.hpp"

namespace symbad::opt {

/// Old-net -> new-net translation for an optimized netlist.
struct NetMap {
  /// Indexed by the input netlist's nets; -1 when the net was eliminated
  /// without a surviving representative (dead-gate elimination).
  std::vector<rtl::Net> old_to_new;

  [[nodiscard]] rtl::Net translate(rtl::Net old_net) const {
    return old_to_new.at(static_cast<std::size_t>(old_net));
  }
  /// True when every input net has a surviving image.
  [[nodiscard]] bool total() const {
    for (const rtl::Net n : old_to_new) {
      if (n < 0) return false;
    }
    return true;
  }
};

/// Per-pass accounting, reported in pipeline order.
struct PassStats {
  std::string pass;  ///< "rewrite", "sweep", or "disabled"
  std::size_t gates_before = 0;
  std::size_t gates_after = 0;
  // Sweep-only figures (zero for rewrite passes):
  std::size_t sweep_candidates = 0;  ///< signature-equivalent pairs tried
  std::size_t sweep_proved = 0;      ///< merges proven by SAT (or trivially)
  std::size_t sweep_refuted = 0;     ///< candidates the solver told apart
  std::uint64_t sweep_conflicts = 0; ///< solver conflicts across all proofs
  /// Gate count per kind after this pass (flat, allocation-free).
  rtl::GateHistogram histogram_after{};
};

struct OptimizerOptions {
  /// Master switch. `from_env` maps SYMBAD_OPT=0 here; formal clients
  /// skip preprocessing entirely when this is false.
  bool enabled = true;
  /// Run the SAT-sweeping pass after structural rewriting (SYMBAD_OPT_SWEEP).
  bool sweep = true;
  /// 64-pattern words of random simulation per net for sweep candidate
  /// grouping (SYMBAD_OPT_SWEEP_ROUNDS). More rounds = fewer false
  /// candidates = fewer refuted SAT calls.
  int sweep_rounds = 4;
  /// Cap on SAT equivalence proofs per sweep, 0 = unlimited
  /// (SYMBAD_OPT_SWEEP_MAX_PROOFS).
  std::size_t sweep_max_proofs = 0;
  /// Seed for the sweep's deterministic random patterns.
  std::uint64_t sweep_seed = 0x0B715EEDULL;
  /// Keep only these outputs (empty = all). Dead-gate elimination is
  /// relative to the kept set, so a model checker can pass just the
  /// outputs its property observes and compound with its own COI.
  std::vector<std::string> preserve_outputs;
  /// Stuck-at overrides baked in as constants (net -> forced value),
  /// keyed by the *input* netlist's nets. Faulted inputs are still
  /// declared as inputs (order preserved) but their readers see the
  /// constant, exactly like the CnfEncoder fault override. The pointee
  /// must outlive the optimize() call.
  const std::map<rtl::Net, bool>* faults = nullptr;

  /// Defaults overridden by the SYMBAD_OPT_* environment knobs
  /// (documented in the README). Parsing is strict: garbage throws
  /// std::invalid_argument instead of silently falling back.
  [[nodiscard]] static OptimizerOptions from_env();
};

struct OptimizeResult {
  rtl::Netlist netlist;
  NetMap map;
  std::vector<PassStats> passes;

  [[nodiscard]] std::size_t gates_before() const {
    return passes.empty() ? 0 : passes.front().gates_before;
  }
  [[nodiscard]] std::size_t gates_after() const {
    return passes.empty() ? 0 : passes.back().gates_after;
  }
  [[nodiscard]] std::size_t sweep_proofs() const {
    std::size_t n = 0;
    for (const auto& p : passes) n += p.sweep_proved;
    return n;
  }
  [[nodiscard]] std::uint64_t sweep_conflicts() const {
    std::uint64_t n = 0;
    for (const auto& p : passes) n += p.sweep_conflicts;
    return n;
  }
};

/// Deterministic pass pipeline: rewrite (hash + fold + dead elimination),
/// then SAT sweep, then a final rewrite to collapse the merge fallout.
class Optimizer {
public:
  Optimizer() : Optimizer{OptimizerOptions::from_env()} {}
  explicit Optimizer(OptimizerOptions options) : options_{std::move(options)} {}

  [[nodiscard]] OptimizeResult run(const rtl::Netlist& input) const;
  [[nodiscard]] const OptimizerOptions& options() const noexcept { return options_; }

private:
  OptimizerOptions options_;
};

/// One-shot convenience wrapper.
[[nodiscard]] inline OptimizeResult optimize(const rtl::Netlist& input,
                                             const OptimizerOptions& options) {
  return Optimizer{options}.run(input);
}

/// Map composition: `first` is A->B, `second` is B->C; the result is A->C
/// (a dead image at either hop stays dead). The pipeline chains its pass
/// maps with this.
[[nodiscard]] NetMap compose(const NetMap& first, const NetMap& second);

}  // namespace symbad::opt
