#pragma once
// Gate-level RTL intermediate representation.
//
// Level 4 of the Symbad flow produces RTL; our IR is a synchronous gate
// netlist: primary inputs, one implicit clock, D flip-flops with reset
// values, and combinational gates (AND/OR/XOR/NOT/MUX/constants).
//
// Construction enforces that a gate's operands already exist, so the
// combinational part is acyclic by construction and can be evaluated in
// creation order; sequential loops close only through flip-flops
// (`connect_next`).

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace symbad::rtl {

/// Index of a net (the output of a gate) within a netlist.
using Net = int;

enum class GateKind : std::uint8_t {
  const0,
  const1,
  input,
  and_gate,
  or_gate,
  xor_gate,
  not_gate,
  mux,  ///< a ? b : c
  dff,  ///< state element; `a` is the next-state net once connected
};

[[nodiscard]] constexpr const char* to_string(GateKind k) noexcept {
  switch (k) {
    case GateKind::const0: return "const0";
    case GateKind::const1: return "const1";
    case GateKind::input: return "input";
    case GateKind::and_gate: return "and";
    case GateKind::or_gate: return "or";
    case GateKind::xor_gate: return "xor";
    case GateKind::not_gate: return "not";
    case GateKind::mux: return "mux";
    case GateKind::dff: return "dff";
  }
  return "?";
}

struct Gate {
  GateKind kind = GateKind::const0;
  Net a = -1;  ///< first operand / mux select / dff next-state
  Net b = -1;  ///< second operand / mux "then"
  Net c = -1;  ///< mux "else"
  bool init = false;  ///< dff reset value
};

/// A synchronous gate-level netlist.
class Netlist {
public:
  explicit Netlist(std::string name = "netlist") : name_{std::move(name)} {}

  // ------------------------------------------------------ construction
  [[nodiscard]] Net constant(bool value);
  [[nodiscard]] Net add_input(std::string name);
  [[nodiscard]] Net add_and(Net a, Net b);
  [[nodiscard]] Net add_or(Net a, Net b);
  [[nodiscard]] Net add_xor(Net a, Net b);
  [[nodiscard]] Net add_not(Net a);
  [[nodiscard]] Net add_mux(Net sel, Net then_net, Net else_net);
  /// Creates a flip-flop with a reset value; its next-state input is
  /// connected later with `connect_next` (allowing sequential loops).
  [[nodiscard]] Net add_dff(bool init, std::string name = {});
  void connect_next(Net dff, Net next);

  /// Registers `net` as a named primary output.
  void set_output(const std::string& name, Net net);

  // --------------------------------------------------------- accessors
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t gate_count() const noexcept { return gates_.size(); }
  [[nodiscard]] const Gate& gate(Net n) const { return gates_.at(static_cast<std::size_t>(n)); }
  [[nodiscard]] const std::vector<Net>& inputs() const noexcept { return inputs_; }
  [[nodiscard]] const std::vector<Net>& flip_flops() const noexcept { return dffs_; }
  [[nodiscard]] const std::map<std::string, Net>& outputs() const noexcept { return outputs_; }
  [[nodiscard]] Net input(const std::string& name) const;
  [[nodiscard]] Net output(const std::string& name) const;
  [[nodiscard]] const std::string& net_name(Net n) const;

  // ------------------------------------------------- structural queries
  /// Backward cone of influence of `roots`: result[net] != 0 iff `net`'s
  /// value at *some* time frame can influence some root at some frame. The
  /// traversal walks gate operands and crosses register boundaries (a
  /// flip-flop in the cone pulls in its next-state net), so the closure is
  /// valid for every frame of an unrolling. Result is indexed like gates.
  [[nodiscard]] std::vector<char> cone_of_influence(const std::vector<Net>& roots) const;
  /// The flip-flops inside `cone_of_influence(roots)`, in declaration
  /// order — the register support of a property over those roots.
  [[nodiscard]] std::vector<Net> register_support(const std::vector<Net>& roots) const;

  /// Unit-area estimate (gate-count weighted by kind).
  [[nodiscard]] double area_estimate() const;

  /// Throws std::logic_error if any flip-flop lacks a next-state net or an
  /// operand index is out of range.
  void validate() const;

private:
  Net add_gate(GateKind kind, Net a = -1, Net b = -1, Net c = -1);
  void check_operand(Net n) const;

  std::string name_;
  std::vector<Gate> gates_;
  std::vector<Net> inputs_;
  std::vector<Net> dffs_;
  std::map<std::string, Net> outputs_;
  std::map<std::string, Net> input_index_;
  std::map<Net, std::string> names_;
};

/// Two-valued cycle-accurate simulator for a Netlist, 64 lanes wide: every
/// net holds one word whose bit j is its value in lane j, so one gate walk
/// simulates 64 independent patterns (or 64 differently-faulted copies of
/// the design). This is the repository's one gate evaluator: PCC's fault
/// pre-pass and the table model-checking engine (64 (state, input) pairs
/// per walk) run its cone form, `rtl::wordops`' read/drive helpers its
/// full form, and every test simulates through it.
///
/// The scalar API is the one-lane case: `set_input` and the two-argument
/// `inject_stuck_at` broadcast to every lane, `value`/`output` read lane 0.
/// The lane API (`word`, `set_word`, the masked `inject_stuck_at`)
/// addresses lanes individually.
class Simulator {
public:
  /// One bit per lane.
  using LaneWord = std::uint64_t;
  static constexpr int kLanes = 64;
  static constexpr LaneWord kAllLanes = ~LaneWord{0};

  /// Walks every net.
  explicit Simulator(const Netlist& netlist);
  /// The cone form: walks only the nets set in `cone`, a mask indexed like
  /// the gates and closed under fan-in, as `Netlist::cone_of_influence`
  /// gives it (std::invalid_argument otherwise). Nets outside the cone read
  /// 0; words written to them and faults injected on them are accepted and
  /// have no effect. The every-net constructor is the all-ones case.
  Simulator(const Netlist& netlist, const std::vector<char>& cone);

  /// Returns flip-flops to their reset values and clears input values
  /// (injected faults stay).
  void reset();
  void set_input(const std::string& name, bool value);
  void set_input(Net input_net, bool value);
  /// Evaluates the combinational logic with current inputs/state.
  void eval();
  /// Clocks every flip-flop on the current values, then re-evaluates:
  /// latch plus one eval, with a leading eval only when an input, state
  /// word or fault changed since the last one.
  void step();

  [[nodiscard]] bool value(Net n) const { return (word(n) & 1) != 0; }
  [[nodiscard]] bool output(const std::string& name) const;
  [[nodiscard]] std::uint64_t cycles() const noexcept { return cycles_; }

  /// Forces `net` to `value` in every lane during every evaluation until
  /// cleared.
  void inject_stuck_at(Net net, bool value) { inject_stuck_at(net, value, kAllLanes); }
  void clear_faults();
  /// Whether a fault inside the walked nets is injected.
  [[nodiscard]] bool has_faults() const noexcept { return !faults_.empty(); }

  // ------------------------------------------------------- lane API
  /// All 64 lanes of `n` as of the last evaluation.
  [[nodiscard]] LaneWord word(Net n) const {
    return values_[slot_.at(static_cast<std::size_t>(n))];
  }
  /// Writes one word to a cut point: an input's value per lane, or — the
  /// free-state mode the signature pass and the table engine use — a
  /// flip-flop's current state per lane, bypassing reset and latching.
  /// Takes effect at the next eval.
  void set_word(Net cut, LaneWord lanes);
  /// Forces `net` to `value` in the lanes set in `lanes`; other lanes keep
  /// whatever they were forced to before.
  void inject_stuck_at(Net net, bool value, LaneWord lanes);

private:
  /// One gate of the flat walk, operands as value slots. For inputs and
  /// flip-flops `a` is the slot in `inputs_` / `state_` instead.
  struct Op {
    GateKind kind;
    std::uint32_t a, b, c;
  };
  /// Per-lane stuck-at masks of one value slot: value = (value & keep) | force.
  struct StuckAt {
    std::size_t slot;
    LaneWord keep, force;
  };

  const Netlist* netlist_;
  // Value slots: the walked nets in net order, then one slot no gate
  // writes, which every other net reads (0).
  std::vector<std::uint32_t> slot_;  // per net: its value slot
  std::vector<Op> ops_;              // per walked slot
  std::vector<std::uint32_t> next_;  // per flip-flop slot: next-state value slot
  std::vector<LaneWord> init_;       // per flip-flop slot: reset word
  std::vector<LaneWord> values_;     // per value slot
  std::vector<LaneWord> state_;      // per walked flip-flop, declaration order
  std::vector<LaneWord> inputs_;     // per walked input, declaration order
  std::vector<StuckAt> faults_;      // sorted by slot, one entry per slot
  std::uint64_t cycles_ = 0;
  bool stale_ = false;  // an input, state word or fault changed since eval
};

}  // namespace symbad::rtl
