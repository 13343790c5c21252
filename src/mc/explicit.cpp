#include "mc/explicit.hpp"

#include <deque>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace symbad::mc {

namespace {

struct Exploration {
  rtl::Simulator sim;
  const std::uint64_t input_combos;

  explicit Exploration(const rtl::Netlist& n, const ExplicitOptions& options)
      : sim{n},
        input_combos{std::uint64_t{1} << n.inputs().size()} {
    if (static_cast<int>(n.inputs().size()) > options.max_input_bits) {
      throw std::invalid_argument{
          "mc explicit: too many primary inputs for exhaustive enumeration"};
    }
    if (n.flip_flops().size() > 64) {
      throw std::invalid_argument{"mc explicit: > 64 flip-flops"};
    }
  }

  /// Successor of `state` under `inputs` (also leaves sim evaluated there).
  std::uint64_t successor(std::uint64_t state, std::uint64_t inputs) {
    sim.force_inputs(inputs);
    sim.force_state(state);  // evaluates, so step() is latch plus one eval
    sim.step();
    return sim.state_bits();
  }

  /// Evaluates an expression at (state, inputs) without clocking.
  bool eval_at(const CompiledExpr& e, std::uint64_t state, std::uint64_t inputs) {
    sim.force_inputs(inputs);
    sim.force_state(state);  // evaluates
    return (e.eval(sim) & 1) != 0;
  }

  std::uint64_t reset_state() {
    sim.reset();
    return sim.state_bits();
  }
};

}  // namespace

ExplicitResult check_explicit(const rtl::Netlist& netlist, const Property& property,
                              const ExplicitOptions& options) {
  ExplicitResult result;
  if (property.kind == PropertyKind::bounded_response) {
    return result;  // unsupported by this engine
  }
  Exploration ex{netlist, options};
  const CompiledExpr p_expr = property.antecedent.compile(netlist);
  const CompiledExpr q_expr = property.consequent.compile(netlist);

  std::unordered_set<std::uint64_t> visited;
  std::deque<std::uint64_t> frontier;
  const std::uint64_t reset = ex.reset_state();
  visited.insert(reset);
  frontier.push_back(reset);

  while (!frontier.empty()) {
    const std::uint64_t state = frontier.front();
    frontier.pop_front();
    ++result.states_visited;

    for (std::uint64_t in = 0; in < ex.input_combos; ++in) {
      ++result.edges_explored;
      const bool p = ex.eval_at(p_expr, state, in);
      if (property.kind == PropertyKind::invariant && !p) {
        result.status = CheckStatus::falsified;
        return result;
      }
      const std::uint64_t next = ex.successor(state, in);
      if (property.kind == PropertyKind::next_implication && p) {
        // X q: q must hold at the successor under every next input.
        for (std::uint64_t in2 = 0; in2 < ex.input_combos; ++in2) {
          if (!ex.eval_at(q_expr, next, in2)) {
            result.status = CheckStatus::falsified;
            return result;
          }
        }
      }
      if (visited.insert(next).second) {
        if (visited.size() > options.max_states) {
          return result;  // gave up: not exhaustive
        }
        frontier.push_back(next);
      }
    }
  }
  result.exhaustive = true;
  result.status = CheckStatus::proved;
  return result;
}

std::uint64_t count_reachable_states(const rtl::Netlist& netlist,
                                     const ExplicitOptions& options) {
  Exploration ex{netlist, options};
  std::unordered_set<std::uint64_t> visited;
  std::deque<std::uint64_t> frontier;
  const std::uint64_t reset = ex.reset_state();
  visited.insert(reset);
  frontier.push_back(reset);
  while (!frontier.empty()) {
    const std::uint64_t state = frontier.front();
    frontier.pop_front();
    for (std::uint64_t in = 0; in < ex.input_combos; ++in) {
      const std::uint64_t next = ex.successor(state, in);
      if (visited.insert(next).second) {
        if (visited.size() > options.max_states) return visited.size();
        frontier.push_back(next);
      }
    }
  }
  return visited.size();
}

}  // namespace symbad::mc
