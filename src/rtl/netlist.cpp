#include "rtl/netlist.hpp"

#include <algorithm>

namespace symbad::rtl {

// ------------------------------------------------------------- Netlist

Net Netlist::add_gate(GateKind kind, Net a, Net b, Net c) {
  gates_.push_back(Gate{kind, a, b, c, false});
  return static_cast<Net>(gates_.size()) - 1;
}

void Netlist::check_operand(Net n) const {
  if (n < 0 || static_cast<std::size_t>(n) >= gates_.size()) {
    throw std::out_of_range{"rtl: operand net does not exist yet"};
  }
}

Net Netlist::constant(bool value) {
  return add_gate(value ? GateKind::const1 : GateKind::const0);
}

Net Netlist::add_input(std::string name) {
  if (input_index_.contains(name)) {
    throw std::invalid_argument{"rtl: duplicate input name '" + name + "'"};
  }
  const Net n = add_gate(GateKind::input);
  inputs_.push_back(n);
  input_index_.emplace(name, n);
  names_.emplace(n, std::move(name));
  return n;
}

Net Netlist::add_and(Net a, Net b) {
  check_operand(a);
  check_operand(b);
  return add_gate(GateKind::and_gate, a, b);
}

Net Netlist::add_or(Net a, Net b) {
  check_operand(a);
  check_operand(b);
  return add_gate(GateKind::or_gate, a, b);
}

Net Netlist::add_xor(Net a, Net b) {
  check_operand(a);
  check_operand(b);
  return add_gate(GateKind::xor_gate, a, b);
}

Net Netlist::add_not(Net a) {
  check_operand(a);
  return add_gate(GateKind::not_gate, a);
}

Net Netlist::add_mux(Net sel, Net then_net, Net else_net) {
  check_operand(sel);
  check_operand(then_net);
  check_operand(else_net);
  return add_gate(GateKind::mux, sel, then_net, else_net);
}

Net Netlist::add_dff(bool init, std::string name) {
  const Net n = add_gate(GateKind::dff);
  gates_.back().init = init;
  dffs_.push_back(n);
  if (!name.empty()) names_.emplace(n, std::move(name));
  return n;
}

void Netlist::connect_next(Net dff, Net next) {
  check_operand(dff);
  check_operand(next);
  auto& g = gates_[static_cast<std::size_t>(dff)];
  if (g.kind != GateKind::dff) throw std::invalid_argument{"rtl: connect_next on non-dff"};
  if (g.a >= 0) throw std::logic_error{"rtl: dff next-state already connected"};
  g.a = next;
}

void Netlist::set_output(const std::string& name, Net net) {
  check_operand(net);
  outputs_[name] = net;
}

Net Netlist::input(const std::string& name) const {
  const auto it = input_index_.find(name);
  if (it == input_index_.end()) throw std::out_of_range{"rtl: no input '" + name + "'"};
  return it->second;
}

Net Netlist::output(const std::string& name) const {
  const auto it = outputs_.find(name);
  if (it == outputs_.end()) throw std::out_of_range{"rtl: no output '" + name + "'"};
  return it->second;
}

const std::string& Netlist::net_name(Net n) const {
  static const std::string kEmpty;
  const auto it = names_.find(n);
  return it == names_.end() ? kEmpty : it->second;
}

std::vector<char> Netlist::cone_of_influence(const std::vector<Net>& roots) const {
  std::vector<char> cone(gates_.size(), 0);
  std::vector<Net> frontier;
  for (const Net root : roots) {
    check_operand(root);
    if (cone[static_cast<std::size_t>(root)] == 0) {
      cone[static_cast<std::size_t>(root)] = 1;
      frontier.push_back(root);
    }
  }
  auto visit = [&](Net n) {
    if (n < 0) return;  // unconnected operand slot
    auto& mark = cone[static_cast<std::size_t>(n)];
    if (mark == 0) {
      mark = 1;
      frontier.push_back(n);
    }
  };
  while (!frontier.empty()) {
    const Gate& g = gates_[static_cast<std::size_t>(frontier.back())];
    frontier.pop_back();
    switch (g.kind) {
      case GateKind::not_gate: visit(g.a); break;
      case GateKind::and_gate:
      case GateKind::or_gate:
      case GateKind::xor_gate:
        visit(g.a);
        visit(g.b);
        break;
      case GateKind::mux:
        visit(g.a);
        visit(g.b);
        visit(g.c);
        break;
      case GateKind::dff:
        // Crossing the register boundary: the dff's value next frame is its
        // next-state net this frame, so the closure holds at every frame.
        visit(g.a);
        break;
      default:
        break;  // inputs and constants have no operands
    }
  }
  return cone;
}

std::vector<Net> Netlist::register_support(const std::vector<Net>& roots) const {
  const auto cone = cone_of_influence(roots);
  std::vector<Net> support;
  for (const Net d : dffs_) {
    if (cone[static_cast<std::size_t>(d)] != 0) support.push_back(d);
  }
  return support;
}

double Netlist::area_estimate() const {
  // Unit-area weights loosely modelled on standard-cell relative sizes.
  double area = 0.0;
  for (const auto& g : gates_) {
    switch (g.kind) {
      case GateKind::and_gate:
      case GateKind::or_gate: area += 1.0; break;
      case GateKind::xor_gate: area += 1.5; break;
      case GateKind::not_gate: area += 0.5; break;
      case GateKind::mux: area += 2.0; break;
      case GateKind::dff: area += 4.0; break;
      default: break;  // constants and inputs are free
    }
  }
  return area;
}

void Netlist::validate() const {
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    const auto& g = gates_[i];
    auto check = [this, i](Net n, bool allow_any_index) {
      if (n < 0 || static_cast<std::size_t>(n) >= gates_.size()) {
        throw std::logic_error{"rtl: gate " + std::to_string(i) + " has invalid operand"};
      }
      if (!allow_any_index && static_cast<std::size_t>(n) >= i) {
        throw std::logic_error{"rtl: combinational gate " + std::to_string(i) +
                               " references a later net"};
      }
    };
    switch (g.kind) {
      case GateKind::and_gate:
      case GateKind::or_gate:
      case GateKind::xor_gate:
        check(g.a, false);
        check(g.b, false);
        break;
      case GateKind::not_gate:
        check(g.a, false);
        break;
      case GateKind::mux:
        check(g.a, false);
        check(g.b, false);
        check(g.c, false);
        break;
      case GateKind::dff:
        if (g.a < 0) {
          throw std::logic_error{"rtl: flip-flop " + std::to_string(i) +
                                 " has no next-state net"};
        }
        check(g.a, true);  // sequential loop allowed
        break;
      default:
        break;
    }
  }
}

// ----------------------------------------------------------- Simulator

Simulator::Simulator(const Netlist& netlist)
    : Simulator{netlist, std::vector<char>(netlist.gate_count(), 1)} {}

Simulator::Simulator(const Netlist& netlist, const std::vector<char>& cone)
    : netlist_{&netlist} {
  netlist.validate();
  const std::size_t n = netlist.gate_count();
  if (cone.size() != n) throw std::invalid_argument{"rtl: cone mask is not sized to the netlist"};
  const auto walked = static_cast<std::uint32_t>(
      std::count_if(cone.begin(), cone.end(), [](char c) { return c != 0; }));
  slot_.resize(n);
  for (std::uint32_t i = 0, at = 0; i < n; ++i) slot_[i] = cone[i] != 0 ? at++ : walked;
  // Unused operand slots (-1) read slot 0; the gate switch never looks.
  const auto operand = [&](Net x) {
    if (x < 0) return 0u;
    if (cone[static_cast<std::size_t>(x)] == 0) {
      throw std::invalid_argument{"rtl: cone mask is not closed under fan-in"};
    }
    return slot_[static_cast<std::size_t>(x)];
  };
  std::vector<std::uint32_t> cut(n, 0);  // per walked input / flip-flop: its slot
  for (const Net d : netlist.flip_flops()) {
    if (cone[static_cast<std::size_t>(d)] == 0) continue;
    const Gate& g = netlist.gate(d);
    cut[static_cast<std::size_t>(d)] = static_cast<std::uint32_t>(next_.size());
    next_.push_back(operand(g.a));
    init_.push_back(g.init ? kAllLanes : 0);
  }
  std::uint32_t inputs = 0;
  for (const Net in : netlist.inputs()) {
    if (cone[static_cast<std::size_t>(in)] != 0) cut[static_cast<std::size_t>(in)] = inputs++;
  }
  ops_.reserve(walked);
  for (std::size_t i = 0; i < n; ++i) {
    if (cone[i] == 0) continue;
    const Gate& g = netlist.gate(static_cast<Net>(i));
    if (g.kind == GateKind::input || g.kind == GateKind::dff) {
      ops_.push_back(Op{g.kind, cut[i], 0, 0});
    } else {
      ops_.push_back(Op{g.kind, operand(g.a), operand(g.b), operand(g.c)});
    }
  }
  values_.assign(walked + std::size_t{1}, 0);
  state_.assign(next_.size(), 0);
  inputs_.assign(inputs, 0);
  reset();
}

void Simulator::reset() {
  state_ = init_;
  std::fill(inputs_.begin(), inputs_.end(), LaneWord{0});
  cycles_ = 0;
  eval();
}

void Simulator::set_input(const std::string& name, bool value) {
  set_input(netlist_->input(name), value);
}

void Simulator::set_input(Net input_net, bool value) {
  if (input_net < 0 || static_cast<std::size_t>(input_net) >= slot_.size() ||
      netlist_->gate(input_net).kind != GateKind::input) {
    throw std::invalid_argument{"rtl: not an input net"};
  }
  set_word(input_net, value ? kAllLanes : 0);
}

void Simulator::set_word(Net cut, LaneWord lanes) {
  if (cut < 0 || static_cast<std::size_t>(cut) >= slot_.size()) {
    throw std::invalid_argument{"rtl: set_word on unknown net"};
  }
  const std::uint32_t at = slot_[static_cast<std::size_t>(cut)];
  if (at == ops_.size()) {  // outside the cone: no walked gate reads it
    const GateKind kind = netlist_->gate(cut).kind;
    if (kind == GateKind::input || kind == GateKind::dff) return;
  } else if (const Op& op = ops_[at]; op.kind == GateKind::input || op.kind == GateKind::dff) {
    (op.kind == GateKind::input ? inputs_ : state_)[op.a] = lanes;
    stale_ = true;
    return;
  }
  throw std::invalid_argument{"rtl: set_word on a net that is neither input nor flip-flop"};
}

void Simulator::eval() {
  // The one gate switch of the repository's simulation paths. Faulted
  // slots are visited in order alongside the walk, so a fault-free netlist
  // pays one compare per gate.
  const std::size_t n = ops_.size();
  LaneWord* const v = values_.data();
  const StuckAt* fault = faults_.data();
  const StuckAt* const fault_end = fault + faults_.size();
  std::size_t next_fault = fault != fault_end ? fault->slot : n;
  for (std::size_t i = 0; i < n; ++i) {
    const Op& op = ops_[i];
    LaneWord w = 0;
    switch (op.kind) {
      case GateKind::const0: w = 0; break;
      case GateKind::const1: w = kAllLanes; break;
      case GateKind::input: w = inputs_[op.a]; break;
      case GateKind::dff: w = state_[op.a]; break;
      case GateKind::and_gate: w = v[op.a] & v[op.b]; break;
      case GateKind::or_gate: w = v[op.a] | v[op.b]; break;
      case GateKind::xor_gate: w = v[op.a] ^ v[op.b]; break;
      case GateKind::not_gate: w = ~v[op.a]; break;
      case GateKind::mux: w = (v[op.a] & v[op.b]) | (~v[op.a] & v[op.c]); break;
    }
    if (i == next_fault) {
      w = (w & fault->keep) | fault->force;
      ++fault;
      next_fault = fault != fault_end ? fault->slot : n;
    }
    v[i] = w;
  }
  stale_ = false;
}

void Simulator::step() {
  if (stale_) eval();
  for (std::size_t i = 0; i < state_.size(); ++i) state_[i] = values_[next_[i]];
  ++cycles_;
  eval();  // outputs reflect the new state
}

bool Simulator::output(const std::string& name) const {
  return value(netlist_->output(name));
}

void Simulator::inject_stuck_at(Net net, bool value, LaneWord lanes) {
  if (net < 0 || static_cast<std::size_t>(net) >= slot_.size()) {
    throw std::out_of_range{"rtl: fault on unknown net"};
  }
  const std::size_t at = slot_[static_cast<std::size_t>(net)];
  if (at == ops_.size()) return;  // outside the cone: no walked gate reads it
  auto it = std::lower_bound(faults_.begin(), faults_.end(), at,
                             [](const StuckAt& f, std::size_t x) { return f.slot < x; });
  if (it == faults_.end() || it->slot != at) it = faults_.insert(it, StuckAt{at, kAllLanes, 0});
  it->keep &= ~lanes;
  it->force = value ? it->force | lanes : it->force & ~lanes;
  stale_ = true;
}

void Simulator::clear_faults() {
  faults_.clear();
  stale_ = true;
}

}  // namespace symbad::rtl
