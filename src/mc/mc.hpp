#pragma once
// Model checking of RTL netlists (paper §3.4).
//
// Properties are boolean expressions over *named outputs* of a netlist:
//   * invariant            G p
//   * next implication     G (p -> X q)
//   * bounded response     G (p -> F<=k q)
//
// Every check answers two questions: the first bound <= max_bound at which
// a violation starts from the reset state (falsified), and, for the two
// safety forms, whether the k-induction step closes (proved). Bounded
// response is falsified or reported as clean up to the bound.
//
// Two engines answer them identically — same verdict, bound_used and
// canonical counterexample:
//   * TableChecker (mc/tables.hpp) enumerates every (state, input) pair of
//     the properties' cone of influence on the 64-lane simulator and
//     searches the resulting transition table exactly;
//   * BmcChecker is SAT-based bounded model checking plus k-induction.
// ModelChecker, the entry point every flow stage calls, computes the cone
// once and hands it to the table engine when it passes `TableCone::fits`
// and to SAT otherwise. On every checker, `check` is `check_all` of one
// property.
//
// The BMC unrolling is lazy and incremental: one long-lived SAT solver
// serves every property and bound, transition frames are encoded only when
// a bound needs them, and the k-induction step reuses the same solver — the
// reset state is pinned behind an activation literal that BMC assumes and
// the induction step leaves free. Learned clauses therefore carry over from
// bound i to bound i+1 and into the induction solves.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "rtl/cnf.hpp"
#include "rtl/netlist.hpp"

namespace symbad::mc {

/// Memo of property encodings: one literal per (expression node, frame).
/// Lazy BMC re-visits the same (node, frame) pairs at every deeper bound
/// (and again in the k-induction step); the cache turns those re-encodes
/// into lookups instead of fresh Tseitin aux variables and clauses, keeping
/// solver growth linear in the number of *distinct* frames touched.
struct EncodeCache {
  std::map<std::pair<const void*, std::size_t>, sat::Lit> lits;
};

class CompiledExpr;

/// Boolean expression over named netlist outputs.
class Expr {
public:
  [[nodiscard]] static Expr signal(std::string output_name);
  [[nodiscard]] static Expr constant(bool value);
  [[nodiscard]] Expr operator!() const;
  [[nodiscard]] Expr operator&&(const Expr& rhs) const;
  [[nodiscard]] Expr operator||(const Expr& rhs) const;
  [[nodiscard]] Expr implies(const Expr& rhs) const { return !(*this) || rhs; }

  /// Literal of this expression at chain frame `frame_index` (adds Tseitin
  /// clauses on first encounter). Frames are materialised through
  /// `encoder.frame(frame_index)` — never holding a Frame reference across
  /// chain growth — and every (node, frame) literal is minted at most once
  /// per cache, so re-encoding at deeper bounds adds nothing.
  [[nodiscard]] sat::Lit encode(rtl::CnfEncoder& encoder, std::size_t frame_index,
                                EncodeCache& cache) const;
  /// This expression with every signal resolved to its output net in
  /// `netlist` (throws std::out_of_range on an unknown output) — compile
  /// once, then evaluate every cycle without a name lookup.
  [[nodiscard]] CompiledExpr compile(const rtl::Netlist& netlist) const;
  /// Evaluates against a simulator snapshot (lane 0); one-shot convenience
  /// for `compile(netlist).eval(sim)`.
  [[nodiscard]] bool eval(const rtl::Simulator& sim, const rtl::Netlist& netlist) const;
  /// Appends the output names this expression observes (with duplicates).
  void collect_signals(std::vector<std::string>& out) const;
  [[nodiscard]] std::string to_string() const;

private:
  friend class CompiledExpr;
  enum class Kind { signal, constant, not_op, and_op, or_op };
  Kind kind_ = Kind::constant;
  bool value_ = false;
  std::string name_;
  std::shared_ptr<const Expr> lhs_;
  std::shared_ptr<const Expr> rhs_;
};

/// An Expr compiled against one netlist: a flat node array over output net
/// indices, evaluated over all 64 simulator lanes at once. The only
/// simulation-side evaluator of property expressions (PCC's pre-pass, the
/// table engine and `Expr::eval` all go through it).
class CompiledExpr {
public:
  /// Bit j = the expression's value in simulator lane j.
  [[nodiscard]] rtl::Simulator::LaneWord eval(const rtl::Simulator& sim) const {
    return eval_node(nodes_.size() - 1, sim);
  }

private:
  friend class Expr;
  CompiledExpr() = default;  // only Expr::compile builds one (never empty)
  enum class Op : std::uint8_t { net, constant, not_op, and_op, or_op };
  struct Node {
    Op op = Op::constant;
    rtl::Net net = -1;             ///< Op::net: the output net
    bool value = false;            ///< Op::constant
    std::size_t lhs = 0, rhs = 0;  ///< operand nodes (always earlier)
  };
  std::size_t add(const Expr& e, const rtl::Netlist& netlist);
  [[nodiscard]] rtl::Simulator::LaneWord eval_node(std::size_t i,
                                                   const rtl::Simulator& sim) const;

  std::vector<Node> nodes_;  ///< post-order; the root is last
};

enum class PropertyKind { invariant, next_implication, bounded_response };

struct Property {
  std::string name;
  PropertyKind kind = PropertyKind::invariant;
  Expr antecedent;  ///< p (for invariant: the invariant itself)
  Expr consequent;  ///< q (unused for invariant)
  int response_bound = 0;

  [[nodiscard]] static Property invariant(std::string name, Expr p);
  [[nodiscard]] static Property next(std::string name, Expr p, Expr q);
  [[nodiscard]] static Property respond(std::string name, Expr p, Expr q, int within);
};

enum class CheckStatus {
  proved,               ///< BMC clean up to the induction depth, k-induction closed
  falsified,            ///< counter-example found
  no_cex_within_bound,  ///< BMC clean, induction inconclusive or not run
};

/// A concrete input trace violating a property. With canonicalisation (the
/// table engine always canonicalises) it is the lexicographically least
/// violating trace: frame-major, inputs in declaration order, false < true;
/// inputs outside the cone read false, a stuck-at input its forced value.
struct Counterexample {
  /// inputs[frame][input-name] = value.
  std::vector<std::map<std::string, bool>> inputs;
};

/// Verdict of one property check.
struct CheckResult {
  CheckStatus status = CheckStatus::no_cex_within_bound;
  int bound_used = 0;
  std::optional<Counterexample> counterexample;
};

/// Per-property verdicts of one check_all (a `check` is a check_all of one
/// property). Its cost lives only in the registry, added once per call (an
/// empty property list counts one check and nothing else, on either
/// engine); read one call's cost through an obs::Scope:
///   mc.checks, mc.properties — both engines: 1, and the properties checked;
///   mc.tables.checks, mc.tables.pairs — a table check: 1, and the
///                            2^(S+I) (state, input) pairs it enumerated;
/// and, from a SAT check only (a table check leaves them untouched):
///   mc.sat_conflicts       — every BMC and induction solve (not the
///                            counterexample canonicalisation);
///   mc.frames_encoded, mc.encoded_vars, mc.encoded_clauses,
///   mc.arena_bytes, mc.arena_live,
///   mc.compactions         — the session solver after the check (the
///                            encoding is cut to the cone, so these count
///                            the cone only).
struct MultiCheckResult {
  std::vector<CheckResult> results;  ///< one per property, input order

  [[nodiscard]] std::size_t count(CheckStatus status) const noexcept {
    std::size_t n = 0;
    for (const auto& r : results) {
      if (r.status == status) ++n;
    }
    return n;
  }
};

/// Options of a check. `max_bound` and `induction_depth` shape every answer;
/// `canonical_counterexample` shapes the SAT engine's traces (the table
/// engine's are always canonical); `sat_reduce` only shapes the SAT
/// solver's memory management, so the table engine ignores it. Both engines
/// throw std::invalid_argument on a negative `induction_depth` or a
/// bounded-response property with a negative `response_bound` (through
/// `table_cone`), and std::out_of_range on a fault whose net is not in the
/// netlist.
struct CheckOptions {
  int max_bound = 20;
  /// k for k-induction. The step runs only when BMC covered its base case
  /// (max_bound >= induction_depth - 1); otherwise the status of a clean
  /// safety property is no_cex_within_bound.
  int induction_depth = 4;
  /// Canonicalise counterexamples to the lexicographically-least violating
  /// input trace (frame-major, inputs in declaration order, false < true)
  /// by greedy assumption solves after the falsifying solve. Makes the
  /// extracted trace a pure function of the netlist and property —
  /// independent of CNF shape, solver heuristics and platform. Costs at
  /// most one solve per input bit that wants to be true; disable for
  /// falsification-only sweeps that discard traces.
  bool canonical_counterexample = true;
  /// SAT only. Learned-DB reduction policy (including the arena
  /// CompactMode) handed to the session solver. Defaults match
  /// sat::Solver's; tests force aggressive reduction and compaction through
  /// here to pin that verdicts, bound_used and canonical counterexamples
  /// are invariant under memory management.
  sat::Solver::ReduceOptions sat_reduce{};
};

/// The SAT engine: lazy incremental BMC from reset plus k-induction on one
/// session solver per call (see the file comment). Every property holds an
/// activation literal; each bound asks "does any still-undecided property
/// fail here?" in one portfolio solve (one UNSAT clears every survivor at
/// that bound), falsified properties are retired by unit-asserting
/// ~activation so their clauses drop out of propagation, and the survivors
/// share the k-induction phase on the same solver. It encodes the netlist
/// it was given, cut to the cone of influence of the observed outputs
/// (`table_cone`, the same cone the table engine enumerates): nothing
/// outside it reaches a property, so the cut changes solver size, never an
/// answer. Injected faults go to rtl::CnfEncoder, which replaces each
/// faulted net by its constant in every frame. ModelChecker sends it every
/// check whose cone is too large for the table engine; tests and benches
/// call it directly to pin SAT behaviour and cost.
class BmcChecker {
public:
  using Options = CheckOptions;

  explicit BmcChecker(const rtl::Netlist& netlist) : netlist_{&netlist} {}

  [[nodiscard]] CheckResult check(const Property& property, Options options = {},
                                  const std::map<rtl::Net, bool>& faults = {}) const {
    return std::move(check_all({property}, options, faults).results.front());
  }
  [[nodiscard]] MultiCheckResult check_all(const std::vector<Property>& properties,
                                           Options options = {},
                                           const std::map<rtl::Net, bool>& faults = {}) const;

private:
  const rtl::Netlist* netlist_;
};

/// The model checker the flow calls (PCC, flowbench, the examples). Each
/// call computes the cone of influence of the properties' observed outputs
/// once (`table_cone`) and hands it to the table engine when it `fits`,
/// else to the SAT engine; both engines give the same answer, so only cost
/// depends on the choice.
class ModelChecker {
public:
  using Options = CheckOptions;

  explicit ModelChecker(const rtl::Netlist& netlist) : netlist_{&netlist} {}

  [[nodiscard]] CheckResult check(const Property& property, Options options = {},
                                  const std::map<rtl::Net, bool>& faults = {}) const {
    return std::move(check_all({property}, options, faults).results.front());
  }
  [[nodiscard]] MultiCheckResult check_all(const std::vector<Property>& properties,
                                           Options options = {},
                                           const std::map<rtl::Net, bool>& faults = {}) const;

private:
  const rtl::Netlist* netlist_;
};

/// Output names a property set observes (sorted, deduplicated): the roots
/// of the cone of influence `table_cone` computes for a check or a PCC
/// campaign.
[[nodiscard]] std::vector<std::string> observed_outputs(
    std::span<const Property> properties);

namespace detail {
/// The argument checks both engines run first: std::invalid_argument on a
/// negative induction depth, std::out_of_range on a fault net outside
/// `netlist`.
void validate_check(const rtl::Netlist& netlist, const std::map<rtl::Net, bool>& faults,
                    const CheckOptions& options);
}  // namespace detail

}  // namespace symbad::mc
