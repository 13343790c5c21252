#pragma once
// Exact model checking on cone transition tables (paper §3.4).
//
// The level-4 blocks the flow checks are small where it matters: the
// wrapper FSM's properties see 2 flip-flops and 3 inputs, ROOT's
// busy/done control 6 flip-flops and 1 input. For such a cone the whole
// behaviour is a table over its 2^(S+I) (state, input) pairs: the
// simulator's free-state mode (`set_word` on the cone's flip-flops and
// inputs) evaluates 64 pairs per gate walk, and one walk per 64 pairs
// yields every pair's next state and property bits. The checker then
// searches the table exactly, with every step linear in the number of
// pairs (pair sets are projected onto per-state "some input" sets between
// steps):
//   * BMC: the first bound b <= max_bound at which a violation starts from
//     reset — forward images of the reset state, each intersected with the
//     states that can start a violation window;
//   * k-induction: the step BmcChecker's solver asks, from an arbitrary
//     state with no simple-path or reachability constraint — backward over
//     states for invariants, over (state, input) pairs for
//     next-implications, whose step couples consecutive frames' inputs;
//   * the canonical counterexample: the lexicographically least violating
//     input trace, walked forward through per-frame "can still violate"
//     state sets.
// Answers equal BmcChecker's in verdict, bound_used and canonical
// counterexample; the McTables.* suite compares the two engines.

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "mc/mc.hpp"
#include "rtl/netlist.hpp"

namespace symbad::mc {

/// The cone of influence of a property set's observed outputs, as the table
/// engine enumerates it.
struct TableCone {
  std::vector<char> nets;            ///< the cone's net mask (Netlist::cone_of_influence)
  std::vector<rtl::Net> flip_flops;  ///< S flip-flops in the cone, declaration order
  std::vector<rtl::Net> inputs;      ///< I primary inputs in the cone, declaration order
  std::size_t gates = 0;             ///< G: every net in the cone

  /// Largest 2^(S+I) × G the dispatch hands to the table engine: the
  /// measured crossover against BmcChecker at PCC's options
  /// (docs/ARCHITECTURE.md, "formal-engine stack"). Tables were faster on
  /// every measured cone up to it and slower on some cones above it.
  static constexpr std::uint64_t kMaxPairGates = std::uint64_t{1} << 15;
  /// Largest S + I the table engine accepts at all (direct TableChecker
  /// calls included): 2^20 pairs.
  static constexpr std::size_t kMaxPairBits = 20;

  /// 2^(S+I): the (state, input) pairs a table check enumerates
  /// (saturating at 2^64 - 1).
  [[nodiscard]] std::uint64_t pairs() const noexcept {
    const std::size_t bits = flip_flops.size() + inputs.size();
    return bits < 64 ? std::uint64_t{1} << bits : ~std::uint64_t{0};
  }
  /// The size test ModelChecker dispatches on: 2^(S+I) × G <= kMaxPairGates.
  [[nodiscard]] bool fits() const noexcept {
    return flip_flops.size() + inputs.size() <= kMaxPairBits &&
           pairs() * gates <= kMaxPairGates;
  }
};

/// The cone `Netlist::cone_of_influence` gives for the outputs `properties`
/// observe. Every check and PCC campaign calls it before any other work, so
/// it also rejects the property sets no engine can check: throws
/// std::out_of_range on an unknown output and std::invalid_argument on a
/// bounded-response property with a negative `response_bound` (one built
/// as an aggregate, past `Property::respond`'s check).
[[nodiscard]] TableCone table_cone(const rtl::Netlist& netlist,
                                   std::span<const Property> properties);

/// The table engine's reusable part for one property set and its cone: the
/// cone-form simulator and the compiled properties. Each check clears the
/// simulator's faults, injects its own, tabulates the cone and searches the
/// tables, so a fault campaign builds one engine and checks every fault on
/// it. The checks answer and count exactly as TableChecker::check_all.
class TableEngine {
public:
  /// `cone` is `table_cone(netlist, properties)`; `properties` must outlive
  /// the engine. Throws std::out_of_range on an unknown output.
  TableEngine(const rtl::Netlist& netlist, TableCone cone,
              std::span<const Property> properties);

  /// TableChecker::check_all over the engine's properties.
  [[nodiscard]] MultiCheckResult check_all(const std::map<rtl::Net, bool>& faults,
                                           const CheckOptions& options);

private:
  const rtl::Netlist* netlist_;
  TableCone cone_;
  std::span<const Property> properties_;
  rtl::Simulator sim_;
  std::vector<CompiledExpr> p_;  ///< per property: the antecedent
  std::vector<CompiledExpr> q_;  ///< per property: the consequent
};

/// The table engine. Same entry points and answers as BmcChecker; it
/// ignores the options that only shape the SAT encoding and always returns
/// canonical counterexamples. Each call builds a TableEngine on the
/// properties' cone and checks once. Throws std::invalid_argument when the
/// cone exceeds TableCone::kMaxPairBits.
class TableChecker {
public:
  using Options = CheckOptions;

  explicit TableChecker(const rtl::Netlist& netlist) : netlist_{&netlist} {}

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

}  // namespace symbad::mc
