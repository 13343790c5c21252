#pragma once
// Relational static analysis over the two program graphs the repo
// manufactures at scale: gate-level netlists (rtl::Netlist) and task graphs
// (core::TaskGraph) — in the spirit of CrocoPat's relational structural
// analysis (Beyer & Noack), specialised to the Symbad IR.
//
// The generator emits thousands of netlists; until this module the only
// thing standing between a malformed netlist and a wrong verdict was
// dynamic fuzzing (an out-of-range operand surfaced as an `.at` throw at
// runtime). The linter turns that defect class into a cheap deterministic
// pre-check with two rule tiers:
//
//  * structural — pure graph analysis: operand range/arity violations per
//    GateKind (the PR 7 bug class), bad kind encodings, combinational
//    cycles via SCC, declaration-order forward references, undriven
//    flip-flops, dangling logic outside every output cone, registers whose
//    next state never depends on a primary input, task-graph cycles /
//    self-loops / duplicate channels / isolated tasks;
//  * semantic — SAT-backed on the existing incremental sat::Solver using a
//    one-frame free-state CnfEncoder encoding (random-pattern signatures
//    filter candidates, assumption solves prove them): provably-constant
//    nets, unreachable mux arms, and a count of provably-undetectable
//    stuck-at sites (outside every output cone, or stuck at a proven
//    constant).
//
// Reports are deterministic: findings are emitted in a fixed scan order,
// every finding carries a stable rule ID ("NL001", "TG002", ...), and the
// rules_checked / sat_proofs counters are pure functions of the input —
// hard-gateable as bench counters.
//
// Wiring (SYMBAD_LINT = 0 off / 1 structural / 2 +semantic, default 1,
// strict core::parse_env_int): every generated netlist and platform graph
// lints clean before entering a campaign (gen). Error-severity findings
// throw at that boundary; warnings (expected-by-construction structure like
// the generator's dangling pool nets) do not. Nothing else reads the level:
// PCC's fault prune is the observed cone mc computes, at every level.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/task_graph.hpp"
#include "rtl/netlist.hpp"

namespace symbad::lint {

// ------------------------------------------------------------------ rules

enum class Severity : std::uint8_t { error, warning };

/// Every rule the linter knows. Values are stable — rule IDs, suppression
/// sets and the per-rule tests key on them.
enum class Rule : std::uint8_t {
  // Netlist, structural tier.
  operand_range,        ///< NL001 operand/interface ref outside [0, gates)
  operand_arity,        ///< NL002 operand slot set that the kind never reads
  bad_kind,             ///< NL003 kind encoding outside the GateKind enum
  forward_ref,          ///< NL004 comb operand declared after its reader
  comb_cycle,           ///< NL005 combinational SCC (registers cut)
  undriven_dff,         ///< NL006 flip-flop with no next-state net
  dangling_logic,       ///< NL007 logic outside every output cone (warning)
  autonomous_register,  ///< NL008 register never driven by an input (warning)
  // Netlist, semantic (SAT-backed) tier.
  const_net,            ///< NL101 net proven constant over free inputs+state
  unreachable_mux_arm,  ///< NL102 mux arm dead under a proven-const select
  undetectable_fault,   ///< NL103 stuck-at sites no property could ever see
  // Task graph, structural tier.
  graph_cycle,          ///< TG001 channel cycle (deadlock under bounded FIFOs)
  graph_self_loop,      ///< TG002 channel from a task to itself
  graph_duplicate_channel,  ///< TG003 repeated (from, to) edge (warning)
  graph_isolated_task,      ///< TG004 task with no channels at all (warning)
};

inline constexpr std::size_t kRuleCount = 15;

/// Stable rule identifier ("NL001", "TG003", ...): the currency of the
/// per-rule tests and of suppression comments.
[[nodiscard]] const char* rule_id(Rule rule) noexcept;
/// Human-readable rule slug ("operand-range", "comb-cycle", ...).
[[nodiscard]] const char* rule_name(Rule rule) noexcept;
[[nodiscard]] Severity rule_severity(Rule rule) noexcept;

// --------------------------------------------------------------- findings

struct Finding {
  Rule rule = Rule::operand_range;
  Severity severity = Severity::error;
  std::string object;  ///< "net 17", "inputs[2]", "output 'o0'", "task 't3'"
  std::string detail;  ///< one-line diagnosis
};

/// Deterministic, rule-ID-tagged analysis result. `findings` is ordered by
/// the fixed rule scan order, then by object scan order — bit-identical for
/// a fixed input on every host.
struct LintReport {
  std::string subject;  ///< netlist / graph name
  std::vector<Finding> findings;
  std::size_t rules_checked = 0;   ///< rules evaluated on this subject
  std::size_t sat_proofs = 0;      ///< semantic-tier assumption solves
  std::uint64_t sat_conflicts = 0; ///< solver conflicts across those solves

  [[nodiscard]] std::size_t error_count() const noexcept;
  [[nodiscard]] std::size_t warning_count() const noexcept;
  /// No findings at all. Boundary enforcement is weaker on purpose — it
  /// throws only on errors (see `enforce`) because warning-severity
  /// structure (generator pool nets) is expected by construction.
  [[nodiscard]] bool clean() const noexcept { return findings.empty(); }
  [[nodiscard]] bool has(Rule rule) const noexcept;
  /// Findings of one rule (for per-rule assertions).
  [[nodiscard]] std::size_t count(Rule rule) const noexcept;
  /// "subject: NL001 operand-range net 17: ..." lines, one per finding.
  [[nodiscard]] std::string to_string() const;
};

// ---------------------------------------------------------------- options

struct Options {
  /// Run the SAT-backed tier (const nets, unreachable mux arms,
  /// undetectable fault sites) after the structural rules. Skipped
  /// automatically when structural errors make the netlist unencodable.
  bool semantic = false;
  /// Rules to skip entirely (not evaluated, not counted in rules_checked).
  /// The suppression channel for expected-by-construction findings.
  std::vector<Rule> suppress;
};

// ----------------------------------------------------------- netlist view

/// A mutable, invariant-free copy of a netlist's structure. rtl::Netlist
/// cannot represent most of the defects the structural rules exist for (its
/// builder API rejects them), so the per-rule tests inject defects here and
/// the linter analyzes the view; `analyze(const rtl::Netlist&)` is a view
/// conversion plus the semantic tier.
struct NetlistView {
  std::string name = "netlist";
  std::vector<rtl::Gate> gates;
  std::vector<rtl::Net> inputs;
  std::vector<rtl::Net> dffs;
  std::map<std::string, rtl::Net> outputs;

  [[nodiscard]] static NetlistView of(const rtl::Netlist& netlist);
};

// ----------------------------------------------------------------- linter

class Linter {
public:
  Linter() = default;
  explicit Linter(Options options) : options_{std::move(options)} {}

  /// Structural rules over the view (the semantic tier needs a real
  /// netlist to encode and is never run here).
  [[nodiscard]] LintReport analyze(const NetlistView& view) const;
  /// Structural rules, plus the semantic tier when `options().semantic` is
  /// set and no structural error was found.
  [[nodiscard]] LintReport analyze(const rtl::Netlist& netlist) const;
  [[nodiscard]] LintReport analyze(const core::TaskGraph& graph) const;

  [[nodiscard]] const Options& options() const noexcept { return options_; }

private:
  [[nodiscard]] bool suppressed(Rule rule) const noexcept;
  void structural(const NetlistView& view, LintReport& report) const;
  void semantic(const rtl::Netlist& netlist, LintReport& report) const;

  Options options_{};
};

// ---------------------------------------------------- boundary self-check

/// SYMBAD_LINT knob value. Default structural; strict parsing in [0, 2]
/// (core::parse_env_int — garbage throws, never falls back).
enum class Mode : int { off = 0, structural = 1, semantic = 2 };

[[nodiscard]] Mode mode_from_env();

/// Throws std::logic_error listing the error findings (warnings pass).
void enforce(const LintReport& report);

/// The default-on IR-boundary self-check: analyzes under the SYMBAD_LINT
/// mode (no-op when off) and throws on error findings. `where` names the
/// boundary in the exception (e.g. "gen").
void check_netlist(const rtl::Netlist& netlist, const char* where);
void check_graph(const core::TaskGraph& graph, const char* where);

}  // namespace symbad::lint
