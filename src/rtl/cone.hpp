#pragma once
// Structural cone traversals over a Netlist, shared by the two formal
// engines:
//
//  * forward fault cones (ATPG): from a stuck-at fault site, which nets at
//    which time frame can differ from the good circuit? Only those need a
//    faulty-copy encoding; everything else reuses the good copy's literals.
//  * backward cone of influence (model checking): from the output nets a
//    property observes, which nets — traced back through gate operands and
//    across register boundaries — can influence the property at any frame?
//    Only those need to be encoded at all.
//
// `ConeTracer` owns the fanout adjacency (built once per netlist, reused
// across faults); the backward queries live on `Netlist` itself
// (`cone_of_influence` / `register_support`) since they need no adjacency.

#include <utility>
#include <vector>

#include "rtl/netlist.hpp"

namespace symbad::rtl {

/// Forward fault-cone tracer. Construction builds the combinational fanout
/// adjacency and the sequential (next-state net -> flip-flop) edges; each
/// `fault_cones` call is then a per-frame BFS over them.
class ConeTracer {
public:
  explicit ConeTracer(const Netlist& netlist);

  /// Per-frame fault cone of a stuck-at fault forced in every frame:
  /// cone[f][net] != 0 iff `net` at frame f can differ from the good
  /// circuit. Flip-flops whose next-state net fell in frame f-1's cone
  /// seed frame f (the corruption crosses the register boundary). Throws
  /// std::out_of_range for a net outside [0, gate_count) and
  /// std::invalid_argument for `frames` < 0.
  [[nodiscard]] std::vector<std::vector<char>> fault_cones(Net fault_net,
                                                           int frames) const;

  [[nodiscard]] const Netlist& netlist() const noexcept { return *netlist_; }

private:
  const Netlist* netlist_;
  std::vector<std::vector<Net>> comb_fanout_;         ///< net -> combinational readers
  std::vector<std::pair<Net, Net>> dff_edges_;        ///< (next-state net, dff net)
};

}  // namespace symbad::rtl
