#pragma once
// A stuck-at reference that needs no fault support from any engine.
//
// `with_stuck_at` copies a netlist with one net rebuilt as a constant gate,
// so a plain fault-free check of the copy answers what a check of the
// original with that fault injected must answer. The encoder's fault
// overrides, its reset-pin skip for a stuck flip-flop and mc's forced-input
// read-out all stay out of that path.

#include <cstddef>
#include <vector>

#include "rtl/netlist.hpp"

namespace symbad::test {

/// `n` with net `site` stuck at `value`: same gates in the same order, the
/// site's gate replaced by a constant and every reader rewired to it. A
/// stuck primary input stays declared (unread), so a counterexample of the
/// copy still names every input; it reads false there, not `value`.
[[nodiscard]] inline rtl::Netlist with_stuck_at(const rtl::Netlist& n, rtl::Net site,
                                                bool value) {
  using rtl::GateKind;
  rtl::Netlist copy{n.name()};
  std::vector<rtl::Net> map(n.gate_count(), -1);
  const auto m = [&map](rtl::Net net) { return map[static_cast<std::size_t>(net)]; };
  for (std::size_t i = 0; i < n.gate_count(); ++i) {
    const auto net = static_cast<rtl::Net>(i);
    const rtl::Gate& g = n.gate(net);
    rtl::Net& out = map[i];
    if (g.kind == GateKind::input) out = copy.add_input(n.net_name(net));
    if (net == site) {
      out = copy.constant(value);
      continue;
    }
    switch (g.kind) {
      case GateKind::const0: out = copy.constant(false); break;
      case GateKind::const1: out = copy.constant(true); break;
      case GateKind::input: break;
      case GateKind::and_gate: out = copy.add_and(m(g.a), m(g.b)); break;
      case GateKind::or_gate: out = copy.add_or(m(g.a), m(g.b)); break;
      case GateKind::xor_gate: out = copy.add_xor(m(g.a), m(g.b)); break;
      case GateKind::not_gate: out = copy.add_not(m(g.a)); break;
      case GateKind::mux: out = copy.add_mux(m(g.a), m(g.b), m(g.c)); break;
      case GateKind::dff: out = copy.add_dff(g.init); break;
    }
  }
  for (const rtl::Net d : n.flip_flops()) {
    if (d != site) copy.connect_next(m(d), m(n.gate(d).a));
  }
  for (const auto& [name, net] : n.outputs()) copy.set_output(name, m(net));
  return copy;
}

}  // namespace symbad::test
