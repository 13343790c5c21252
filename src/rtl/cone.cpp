#include "rtl/cone.hpp"

#include <stdexcept>

namespace symbad::rtl {

ConeTracer::ConeTracer(const Netlist& netlist) : netlist_{&netlist} {
  comb_fanout_.resize(netlist.gate_count());
  for (std::size_t i = 0; i < netlist.gate_count(); ++i) {
    const Gate& g = netlist.gate(static_cast<Net>(i));
    const Net reader = static_cast<Net>(i);
    switch (g.kind) {
      case GateKind::not_gate:
        comb_fanout_[static_cast<std::size_t>(g.a)].push_back(reader);
        break;
      case GateKind::and_gate:
      case GateKind::or_gate:
      case GateKind::xor_gate:
        comb_fanout_[static_cast<std::size_t>(g.a)].push_back(reader);
        comb_fanout_[static_cast<std::size_t>(g.b)].push_back(reader);
        break;
      case GateKind::mux:
        comb_fanout_[static_cast<std::size_t>(g.a)].push_back(reader);
        comb_fanout_[static_cast<std::size_t>(g.b)].push_back(reader);
        comb_fanout_[static_cast<std::size_t>(g.c)].push_back(reader);
        break;
      case GateKind::dff:
        dff_edges_.emplace_back(g.a, reader);
        break;
      default:
        break;
    }
  }
}

std::vector<std::vector<char>> ConeTracer::fault_cones(Net fault_net, int frames) const {
  const std::size_t n = netlist_->gate_count();
  if (fault_net < 0 || static_cast<std::size_t>(fault_net) >= n) {
    throw std::out_of_range{"rtl: fault net outside the netlist"};
  }
  if (frames < 0) throw std::invalid_argument{"rtl: negative fault-cone frame count"};
  std::vector<std::vector<char>> cone(static_cast<std::size_t>(frames),
                                      std::vector<char>(n, 0));
  std::vector<Net> frontier;
  for (int f = 0; f < frames; ++f) {
    auto& marks = cone[static_cast<std::size_t>(f)];
    // The stuck-at fault forces its net in every frame; flip-flops whose
    // next-state fell in the previous frame's cone differ from this frame on.
    frontier.clear();
    frontier.push_back(fault_net);
    if (f > 0) {
      const auto& prev = cone[static_cast<std::size_t>(f - 1)];
      for (const auto& [next_net, dff_net] : dff_edges_) {
        if (prev[static_cast<std::size_t>(next_net)] != 0) frontier.push_back(dff_net);
      }
    }
    for (const Net seed : frontier) marks[static_cast<std::size_t>(seed)] = 1;
    while (!frontier.empty()) {
      const Net net = frontier.back();
      frontier.pop_back();
      for (const Net reader : comb_fanout_[static_cast<std::size_t>(net)]) {
        auto& mark = marks[static_cast<std::size_t>(reader)];
        if (mark == 0) {
          mark = 1;
          frontier.push_back(reader);
        }
      }
    }
  }
  return cone;
}

}  // namespace symbad::rtl
