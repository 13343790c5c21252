#include "lint/lint.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "core/env.hpp"
#include "obs/obs.hpp"
#include "rtl/cnf.hpp"
#include "sat/solver.hpp"
#include "verif/rng.hpp"

namespace symbad::lint {

namespace {

using rtl::Gate;
using rtl::GateKind;
using rtl::Net;

[[nodiscard]] bool kind_in_range(GateKind k) noexcept {
  return static_cast<std::size_t>(k) < rtl::kGateKindCount;
}

[[nodiscard]] bool is_comb(GateKind k) noexcept {
  switch (k) {
    case GateKind::and_gate:
    case GateKind::or_gate:
    case GateKind::xor_gate:
    case GateKind::not_gate:
    case GateKind::mux:
      return true;
    default:
      return false;
  }
}

/// Operand slots a kind reads: bit 0 = a, bit 1 = b, bit 2 = c.
[[nodiscard]] unsigned used_slots(GateKind k) noexcept {
  switch (k) {
    case GateKind::const0:
    case GateKind::const1:
    case GateKind::input: return 0u;
    case GateKind::not_gate:
    case GateKind::dff: return 0b001u;
    case GateKind::and_gate:
    case GateKind::or_gate:
    case GateKind::xor_gate: return 0b011u;
    case GateKind::mux: return 0b111u;
  }
  return 0u;
}

[[nodiscard]] std::string net_str(Net n) { return "net " + std::to_string(n); }

// --------------------------------------------------- const-net proving

/// 64-pattern signature words filtering const-net candidates before any SAT
/// proof, and the seed of their deterministic patterns.
constexpr int kSignatureRounds = 4;
constexpr std::uint64_t kSignatureSeed = 0x11A75EEDULL;

/// The semantic tier's constant proofs: random free-state signature
/// simulation filters candidates, then one-frame StateInit::free_state
/// assumption solves prove them (candidates compare against constants).
struct ConstProof {
  std::vector<signed char> value;  ///< -1 unknown, 0/1 proven per net
  std::size_t proofs = 0;          ///< assumption solves issued
  std::uint64_t conflicts = 0;
};

ConstProof prove_constants(const rtl::Netlist& n) {
  const std::size_t count = n.gate_count();
  ConstProof out;
  out.value.assign(count, -1);
  if (count == 0) return out;

  // Signature pass: 64 free-input/free-state patterns per round, one
  // free-state evaluation of the lane-parallel simulator each, the cut
  // points drawn from one stream in net order. A net whose word never
  // leaves all-zeros / all-ones across every round is a const candidate;
  // everything else is refuted for free.
  verif::Rng rng{kSignatureSeed};
  std::vector<Net> cuts;
  for (std::size_t i = 0; i < count; ++i) {
    const GateKind k = n.gate(static_cast<Net>(i)).kind;
    if (k == GateKind::input || k == GateKind::dff) cuts.push_back(static_cast<Net>(i));
  }
  rtl::Simulator sim{n};
  std::vector<signed char> cand(count, -2);  // -2 unseen, -1 refuted, 0/1 value
  for (int r = 0; r < kSignatureRounds; ++r) {
    for (const Net cut : cuts) sim.set_word(cut, rng.next());  // free variables
    sim.eval();
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t w = sim.word(static_cast<Net>(i));
      const signed char v = w == 0 ? 0 : w == ~0ull ? 1 : -1;
      if (cand[i] == -2) {
        cand[i] = v;
      } else if (cand[i] >= 0 && cand[i] != v) {
        cand[i] = -1;
      }
    }
  }

  // Proof pass: one solver, one free-state frame, one assumption solve per
  // surviving candidate. UNSAT under "net != v" proves net == v over every
  // input and every (reachable or not) state.
  sat::Solver solver;
  rtl::CnfEncoder encoder{n, solver};
  rtl::CnfEncoder::Options eo;
  eo.state = rtl::StateInit::free_state;
  const rtl::Frame frame = encoder.encode(eo);
  for (std::size_t i = 0; i < count; ++i) {
    if (cand[i] < 0) continue;
    const GateKind k = n.gate(static_cast<Net>(i)).kind;
    // Constants are constant by kind (not a discovery), and input/dff
    // literals are free variables — never provably constant.
    if (!is_comb(k)) continue;
    const sat::Lit l = frame.lit(static_cast<Net>(i));
    const sat::Lit counter = cand[i] == 1 ? ~l : l;
    ++out.proofs;
    const bool proven = solver.solve({counter}) == sat::Result::unsat;
    out.conflicts += solver.last_solve_statistics().conflicts;
    if (proven) out.value[i] = cand[i];
  }
  return out;
}

/// Proven-or-by-kind constant value of a net (-1 unknown).
[[nodiscard]] signed char const_of(const rtl::Netlist& n, Net net,
                                   const std::vector<signed char>& proven) {
  const GateKind k = n.gate(net).kind;
  if (k == GateKind::const0) return 0;
  if (k == GateKind::const1) return 1;
  return proven[static_cast<std::size_t>(net)];
}

}  // namespace

// ------------------------------------------------------------------ rules

const char* rule_id(Rule rule) noexcept {
  switch (rule) {
    case Rule::operand_range: return "NL001";
    case Rule::operand_arity: return "NL002";
    case Rule::bad_kind: return "NL003";
    case Rule::forward_ref: return "NL004";
    case Rule::comb_cycle: return "NL005";
    case Rule::undriven_dff: return "NL006";
    case Rule::dangling_logic: return "NL007";
    case Rule::autonomous_register: return "NL008";
    case Rule::const_net: return "NL101";
    case Rule::unreachable_mux_arm: return "NL102";
    case Rule::undetectable_fault: return "NL103";
    case Rule::graph_cycle: return "TG001";
    case Rule::graph_self_loop: return "TG002";
    case Rule::graph_duplicate_channel: return "TG003";
    case Rule::graph_isolated_task: return "TG004";
  }
  return "??";
}

const char* rule_name(Rule rule) noexcept {
  switch (rule) {
    case Rule::operand_range: return "operand-range";
    case Rule::operand_arity: return "operand-arity";
    case Rule::bad_kind: return "bad-kind";
    case Rule::forward_ref: return "forward-ref";
    case Rule::comb_cycle: return "comb-cycle";
    case Rule::undriven_dff: return "undriven-dff";
    case Rule::dangling_logic: return "dangling-logic";
    case Rule::autonomous_register: return "autonomous-register";
    case Rule::const_net: return "const-net";
    case Rule::unreachable_mux_arm: return "unreachable-mux-arm";
    case Rule::undetectable_fault: return "undetectable-fault";
    case Rule::graph_cycle: return "graph-cycle";
    case Rule::graph_self_loop: return "graph-self-loop";
    case Rule::graph_duplicate_channel: return "graph-duplicate-channel";
    case Rule::graph_isolated_task: return "graph-isolated-task";
  }
  return "?";
}

Severity rule_severity(Rule rule) noexcept {
  switch (rule) {
    case Rule::operand_range:
    case Rule::operand_arity:
    case Rule::bad_kind:
    case Rule::forward_ref:
    case Rule::comb_cycle:
    case Rule::undriven_dff:
    case Rule::graph_cycle:
    case Rule::graph_self_loop:
      return Severity::error;
    // Expected-by-construction structure: generator pool nets are
    // dangling on purpose; free-running registers and provable constants
    // are style findings, not corruption.
    case Rule::dangling_logic:
    case Rule::autonomous_register:
    case Rule::const_net:
    case Rule::unreachable_mux_arm:
    case Rule::undetectable_fault:
    case Rule::graph_duplicate_channel:
    case Rule::graph_isolated_task:
      return Severity::warning;
  }
  return Severity::error;
}

// --------------------------------------------------------------- findings

std::size_t LintReport::error_count() const noexcept {
  std::size_t n = 0;
  for (const auto& f : findings) {
    if (f.severity == Severity::error) ++n;
  }
  return n;
}

std::size_t LintReport::warning_count() const noexcept {
  return findings.size() - error_count();
}

bool LintReport::has(Rule rule) const noexcept { return count(rule) > 0; }

std::size_t LintReport::count(Rule rule) const noexcept {
  std::size_t n = 0;
  for (const auto& f : findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

std::string LintReport::to_string() const {
  std::string out;
  for (const auto& f : findings) {
    out += subject + ": " + rule_id(f.rule) + " " + rule_name(f.rule) + " " +
           f.object + ": " + f.detail + "\n";
  }
  return out;
}

// ----------------------------------------------------------- netlist view

NetlistView NetlistView::of(const rtl::Netlist& netlist) {
  NetlistView v;
  v.name = netlist.name();
  v.gates.reserve(netlist.gate_count());
  for (std::size_t i = 0; i < netlist.gate_count(); ++i) {
    v.gates.push_back(netlist.gate(static_cast<Net>(i)));
  }
  v.inputs = netlist.inputs();
  v.dffs = netlist.flip_flops();
  v.outputs = netlist.outputs();
  return v;
}

// ----------------------------------------------------------------- linter

bool Linter::suppressed(Rule rule) const noexcept {
  return std::find(options_.suppress.begin(), options_.suppress.end(), rule) !=
         options_.suppress.end();
}

void Linter::structural(const NetlistView& v, LintReport& r) const {
  const auto count = static_cast<Net>(v.gates.size());
  const auto in_range = [&](Net n) { return n >= 0 && n < count; };
  const auto emit = [&](Rule rule, std::string object, std::string detail) {
    if (!suppressed(rule)) {
      r.findings.push_back(
          Finding{rule, rule_severity(rule), std::move(object), std::move(detail)});
    }
  };
  for (const Rule rule :
       {Rule::operand_range, Rule::operand_arity, Rule::bad_kind, Rule::forward_ref,
        Rule::comb_cycle, Rule::undriven_dff, Rule::dangling_logic,
        Rule::autonomous_register}) {
    if (!suppressed(rule)) ++r.rules_checked;
  }

  // --- per-gate rules: kind, arity, operand range, order -----------------
  for (Net i = 0; i < count; ++i) {
    const Gate& g = v.gates[static_cast<std::size_t>(i)];
    if (!kind_in_range(g.kind)) {
      emit(Rule::bad_kind, net_str(i),
           "kind encoding " + std::to_string(static_cast<int>(g.kind)) +
               " outside the GateKind enum");
      continue;  // nothing else about this gate is interpretable
    }
    const unsigned used = used_slots(g.kind);
    const std::array<std::pair<char, Net>, 3> slots{
        {{'a', g.a}, {'b', g.b}, {'c', g.c}}};
    for (unsigned s = 0; s < 3; ++s) {
      const auto [slot_name, operand] = slots[s];
      const std::string slot{1, slot_name};
      if ((used & (1u << s)) == 0) {
        if (operand != -1) {
          emit(Rule::operand_arity, net_str(i),
               std::string{rtl::to_string(g.kind)} + " sets unused operand " + slot +
                   " = " + std::to_string(operand));
        }
        continue;
      }
      if (operand < 0) {
        // A disconnected dff is its own defect class (the builder API's
        // connect_next contract); any other kind can't be built this way.
        if (g.kind == GateKind::dff) continue;  // undriven_dff below
        emit(Rule::operand_range, net_str(i),
             std::string{rtl::to_string(g.kind)} + " operand " + slot + " is unset");
        continue;
      }
      if (operand >= count) {
        emit(Rule::operand_range, net_str(i),
             std::string{rtl::to_string(g.kind)} + " operand " + slot + " = " +
                 std::to_string(operand) + " outside [0, " + std::to_string(count) +
                 ")");
        continue;
      }
      // Declaration order is the IR's evaluability contract: combinational
      // logic must be computable in a single forward pass.
      if (is_comb(g.kind) && operand >= i) {
        emit(Rule::forward_ref, net_str(i),
             std::string{rtl::to_string(g.kind)} + " operand " + slot + " = " +
                 std::to_string(operand) + " declared at or after its reader");
      }
    }
    if (g.kind == GateKind::dff && g.a < 0) {
      emit(Rule::undriven_dff, net_str(i), "flip-flop next-state net never connected");
    }
  }

  // --- interface lists: the out-of-range-ref rule covers them too --------
  for (std::size_t k = 0; k < v.inputs.size(); ++k) {
    const Net n = v.inputs[k];
    if (!in_range(n)) {
      emit(Rule::operand_range, "inputs[" + std::to_string(k) + "]",
           "input list entry " + std::to_string(n) + " outside [0, " +
               std::to_string(count) + ")");
    } else if (kind_in_range(v.gates[static_cast<std::size_t>(n)].kind) &&
               v.gates[static_cast<std::size_t>(n)].kind != GateKind::input) {
      emit(Rule::operand_range, "inputs[" + std::to_string(k) + "]",
           net_str(n) + " is not an input gate");
    }
  }
  for (std::size_t k = 0; k < v.dffs.size(); ++k) {
    const Net n = v.dffs[k];
    if (!in_range(n)) {
      emit(Rule::operand_range, "dffs[" + std::to_string(k) + "]",
           "flip-flop list entry " + std::to_string(n) + " outside [0, " +
               std::to_string(count) + ")");
    } else if (kind_in_range(v.gates[static_cast<std::size_t>(n)].kind) &&
               v.gates[static_cast<std::size_t>(n)].kind != GateKind::dff) {
      emit(Rule::operand_range, "dffs[" + std::to_string(k) + "]",
           net_str(n) + " is not a flip-flop");
    }
  }
  for (const auto& [name, n] : v.outputs) {
    if (!in_range(n)) {
      emit(Rule::operand_range, "output '" + name + "'",
           "bound to net " + std::to_string(n) + " outside [0, " +
               std::to_string(count) + ")");
    }
  }

  // --- combinational cycles: iterative SCC (registers cut) ---------------
  // forward_ref already flags every declaration-order violation; the SCC
  // pass tells genuine cycles (unevaluable in ANY order) apart from benign
  // forward DAG references a view mutation may have introduced.
  {
    std::vector<int> color(static_cast<std::size_t>(count), 0);  // 0 new 1 open 2 done
    std::vector<std::pair<Net, unsigned>> stack;  // (node, next operand slot)
    for (Net root = 0; root < count; ++root) {
      if (color[static_cast<std::size_t>(root)] != 0) continue;
      stack.emplace_back(root, 0u);
      while (!stack.empty()) {
        const auto [node, slot] = stack.back();  // copy — pushes reallocate
        const std::size_t ni = static_cast<std::size_t>(node);
        if (slot == 0) color[ni] = 1;
        const Gate& g = v.gates[ni];
        const unsigned used =
            kind_in_range(g.kind) && is_comb(g.kind) ? used_slots(g.kind) : 0u;
        bool descended = false;
        for (unsigned s = slot; s < 3; ++s) {
          if ((used & (1u << s)) == 0) continue;
          const Net op = s == 0 ? g.a : s == 1 ? g.b : g.c;
          if (!in_range(op)) continue;
          const std::size_t oi = static_cast<std::size_t>(op);
          if (color[oi] == 1) {
            emit(Rule::comb_cycle, net_str(node),
                 "combinational cycle through " + net_str(op));
          } else if (color[oi] == 0) {
            stack.back().second = s + 1;
            stack.emplace_back(op, 0u);
            descended = true;
            break;
          }
        }
        if (!descended) {
          color[ni] = 2;
          stack.pop_back();
        }
      }
    }
  }

  // --- dangling logic: union backward cone of every output ---------------
  // Registers pull in their next-state nets, so "reachable" means
  // observable at SOME frame. Warning severity: the generator's pool nets
  // are dangling by construction.
  {
    std::vector<char> cone(static_cast<std::size_t>(count), 0);
    std::vector<Net> work;
    const auto mark = [&](Net n) {
      if (in_range(n) && cone[static_cast<std::size_t>(n)] == 0) {
        cone[static_cast<std::size_t>(n)] = 1;
        work.push_back(n);
      }
    };
    for (const auto& [name, n] : v.outputs) mark(n);
    while (!work.empty()) {
      const Gate& g = v.gates[static_cast<std::size_t>(work.back())];
      work.pop_back();
      if (!kind_in_range(g.kind)) continue;
      const unsigned used = used_slots(g.kind);
      if (used & 1u) mark(g.a);
      if (used & 2u) mark(g.b);
      if (used & 4u) mark(g.c);
    }
    std::size_t dangling = 0;
    Net first = -1;
    for (Net i = 0; i < count; ++i) {
      const GateKind k = v.gates[static_cast<std::size_t>(i)].kind;
      if (!kind_in_range(k) || k == GateKind::input || k == GateKind::const0 ||
          k == GateKind::const1) {
        continue;
      }
      if (cone[static_cast<std::size_t>(i)] == 0) {
        if (first < 0) first = i;
        ++dangling;
      }
    }
    if (dangling > 0) {
      emit(Rule::dangling_logic, "netlist",
           std::to_string(dangling) + " gates outside every output cone (first: " +
               net_str(first) + ")");
    }
  }

  // --- autonomous registers ----------------------------------------------
  // A register is autonomous when no primary input reaches its next-state
  // logic even transitively through other registers: once past reset its
  // trajectory is fixed, which is legitimate for free-running counters but
  // worth a warning everywhere else. Fixpoint over the register dependency
  // graph: direct input dependence seeds, register-to-register edges
  // propagate.
  {
    std::vector<char> depends(v.dffs.size(), 0);
    std::vector<std::vector<std::size_t>> feeds(v.dffs.size());  // dff -> readers
    std::map<Net, std::size_t> dff_slot;
    bool lists_ok = true;
    for (std::size_t k = 0; k < v.dffs.size(); ++k) {
      if (!in_range(v.dffs[k])) lists_ok = false;
      dff_slot[v.dffs[k]] = k;
    }
    if (lists_ok) {
      for (std::size_t k = 0; k < v.dffs.size(); ++k) {
        const Gate& d = v.gates[static_cast<std::size_t>(v.dffs[k])];
        if (d.kind != GateKind::dff || !in_range(d.a)) continue;
        // Backward comb walk from the next-state net; stop at inputs
        // (direct dependence) and at registers (dependency edge).
        std::vector<char> seen(static_cast<std::size_t>(count), 0);
        std::vector<Net> work{d.a};
        seen[static_cast<std::size_t>(d.a)] = 1;
        while (!work.empty()) {
          const Net n = work.back();
          work.pop_back();
          const Gate& g = v.gates[static_cast<std::size_t>(n)];
          if (!kind_in_range(g.kind)) continue;
          if (g.kind == GateKind::input) {
            depends[k] = 1;
            continue;
          }
          if (g.kind == GateKind::dff) {
            if (const auto it = dff_slot.find(n); it != dff_slot.end()) {
              feeds[it->second].push_back(k);
            }
            continue;
          }
          const unsigned used = used_slots(g.kind);
          const auto visit = [&](Net op) {
            if (in_range(op) && seen[static_cast<std::size_t>(op)] == 0) {
              seen[static_cast<std::size_t>(op)] = 1;
              work.push_back(op);
            }
          };
          if (used & 1u) visit(g.a);
          if (used & 2u) visit(g.b);
          if (used & 4u) visit(g.c);
        }
      }
      std::vector<std::size_t> frontier;
      for (std::size_t k = 0; k < depends.size(); ++k) {
        if (depends[k] != 0) frontier.push_back(k);
      }
      while (!frontier.empty()) {
        const std::size_t k = frontier.back();
        frontier.pop_back();
        for (const std::size_t reader : feeds[k]) {
          if (depends[reader] == 0) {
            depends[reader] = 1;
            frontier.push_back(reader);
          }
        }
      }
      std::size_t autonomous = 0;
      Net first = -1;
      for (std::size_t k = 0; k < depends.size(); ++k) {
        if (depends[k] == 0) {
          if (first < 0) first = v.dffs[k];
          ++autonomous;
        }
      }
      if (autonomous > 0) {
        emit(Rule::autonomous_register, "netlist",
             std::to_string(autonomous) +
                 " registers whose next state never depends on a primary input "
                 "(first: " +
                 net_str(first) + ")");
      }
    }
  }
}

void Linter::semantic(const rtl::Netlist& n, LintReport& r) const {
  const auto emit = [&](Rule rule, std::string object, std::string detail) {
    if (!suppressed(rule)) {
      r.findings.push_back(
          Finding{rule, rule_severity(rule), std::move(object), std::move(detail)});
    }
  };
  for (const Rule rule :
       {Rule::const_net, Rule::unreachable_mux_arm, Rule::undetectable_fault}) {
    if (!suppressed(rule)) ++r.rules_checked;
  }

  const ConstProof proof = prove_constants(n);
  r.sat_proofs += proof.proofs;
  r.sat_conflicts += proof.conflicts;

  for (std::size_t i = 0; i < proof.value.size(); ++i) {
    if (proof.value[i] >= 0) {
      emit(Rule::const_net, net_str(static_cast<Net>(i)),
           std::string{"provably constant "} + (proof.value[i] == 1 ? "1" : "0") +
               " over free inputs and state");
    }
  }
  for (std::size_t i = 0; i < n.gate_count(); ++i) {
    const Gate& g = n.gate(static_cast<Net>(i));
    if (g.kind != GateKind::mux) continue;
    const signed char sel = const_of(n, g.a, proof.value);
    if (sel < 0) continue;
    emit(Rule::unreachable_mux_arm, net_str(static_cast<Net>(i)),
         std::string{"select "} + net_str(g.a) + " is constant " +
             (sel == 1 ? "1" : "0") + "; the " + (sel == 1 ? "else" : "then") +
             " arm (" + net_str(sel == 1 ? g.c : g.b) + ") is unreachable");
  }

  // Provably-undetectable stuck-at sites relative to the netlist's own
  // outputs, as a summary figure. PCC prunes the out-of-cone half itself,
  // against the outputs its properties observe (mc::table_cone); a site
  // stuck at its proven constant it grades like any other.
  if (!suppressed(Rule::undetectable_fault)) {
    std::vector<Net> roots;
    for (const auto& [name, net] : n.outputs()) roots.push_back(net);
    const std::vector<char> cone = n.cone_of_influence(roots);
    std::size_t sites = 0;
    Net first = -1;
    for (std::size_t i = 0; i < n.gate_count(); ++i) {
      const GateKind k = n.gate(static_cast<Net>(i)).kind;
      if (k == GateKind::const0 || k == GateKind::const1 || k == GateKind::input) {
        continue;
      }
      std::size_t here = 0;
      if (cone[i] == 0) {
        here = 2;  // both polarities are invisible to every output
      } else if (proof.value[i] >= 0) {
        here = 1;  // stuck at the proven value is a functional no-op
      }
      if (here > 0 && first < 0) first = static_cast<Net>(i);
      sites += here;
    }
    if (sites > 0) {
      emit(Rule::undetectable_fault, "netlist",
           std::to_string(sites) +
               " stuck-at sites provably undetectable by any property over "
               "the declared outputs (first: " +
               net_str(first) + ")");
    }
  }
}

namespace {

// Registry bridge, published exactly once per public analyze() call — the
// netlist overload deliberately does NOT delegate to the view overload, so
// an analysis is never counted twice (and its semantic findings are
// included in the published totals).
void publish_obs(const LintReport& r) {
  struct LintObs {
    obs::Counter analyses, rules_checked, findings, sat_proofs, sat_conflicts;
  };
  auto& registry = obs::Registry::instance();
  static const LintObs counters{
      registry.counter("lint.analyses"),
      registry.counter("lint.rules_checked"),
      registry.counter("lint.findings"),
      registry.counter("lint.sat_proofs"),
      registry.counter("lint.sat_conflicts"),
  };
  counters.analyses.inc();
  counters.rules_checked.add(r.rules_checked);
  counters.findings.add(r.findings.size());
  counters.sat_proofs.add(r.sat_proofs);
  counters.sat_conflicts.add(r.sat_conflicts);
}

}  // namespace

LintReport Linter::analyze(const NetlistView& view) const {
  OBS_SPAN("lint.analyze");
  LintReport r;
  r.subject = view.name;
  structural(view, r);
  publish_obs(r);
  return r;
}

LintReport Linter::analyze(const rtl::Netlist& netlist) const {
  OBS_SPAN("lint.analyze");
  const NetlistView view = NetlistView::of(netlist);
  LintReport r;
  r.subject = view.name;
  structural(view, r);
  // The semantic tier encodes the netlist; structural errors mean the
  // encoder's preconditions may not hold, so it only runs on sane inputs
  // (a real rtl::Netlist is sane by construction — this guard is for
  // belt-and-braces symmetry with the view path).
  if (options_.semantic && r.error_count() == 0) semantic(netlist, r);
  publish_obs(r);
  return r;
}

LintReport Linter::analyze(const core::TaskGraph& graph) const {
  OBS_SPAN("lint.analyze");
  LintReport r;
  r.subject = "task_graph";
  const auto emit = [&](Rule rule, std::string object, std::string detail) {
    if (!suppressed(rule)) {
      r.findings.push_back(
          Finding{rule, rule_severity(rule), std::move(object), std::move(detail)});
    }
  };
  for (const Rule rule : {Rule::graph_cycle, Rule::graph_self_loop,
                          Rule::graph_duplicate_channel, Rule::graph_isolated_task}) {
    if (!suppressed(rule)) ++r.rules_checked;
  }

  const auto& tasks = graph.tasks();
  const auto& channels = graph.channels();
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < tasks.size(); ++i) index[tasks[i].name] = i;

  std::vector<std::vector<std::size_t>> succ(tasks.size());
  std::vector<std::size_t> indegree(tasks.size(), 0);
  std::vector<char> touched(tasks.size(), 0);
  std::map<std::pair<std::string, std::string>, std::size_t> edge_count;
  for (const auto& ch : channels) {
    // Endpoints always resolve — TaskGraph::add_channel rejects unknown
    // tasks — so the lookups here cannot miss.
    const std::size_t from = index.at(ch.from);
    const std::size_t to = index.at(ch.to);
    touched[from] = touched[to] = 1;
    if (from == to) {
      emit(Rule::graph_self_loop, "task '" + ch.from + "'",
           "channel from a task to itself");
      continue;  // keep Kahn's indegrees self-loop-free
    }
    succ[from].push_back(to);
    ++indegree[to];
    ++edge_count[{ch.from, ch.to}];
  }
  for (const auto& [edge, count] : edge_count) {
    if (count > 1) {
      emit(Rule::graph_duplicate_channel,
           "channel '" + edge.first + "' -> '" + edge.second + "'",
           std::to_string(count) + " parallel channels between the same tasks");
    }
  }

  // Kahn: whatever survives with nonzero indegree sits on a cycle.
  std::vector<std::size_t> ready;
  std::vector<std::size_t> degree = indegree;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (degree[i] == 0) ready.push_back(i);
  }
  std::size_t ordered = 0;
  while (!ready.empty()) {
    const std::size_t t = ready.back();
    ready.pop_back();
    ++ordered;
    for (const std::size_t s : succ[t]) {
      if (--degree[s] == 0) ready.push_back(s);
    }
  }
  if (ordered < tasks.size()) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (degree[i] != 0) {
        emit(Rule::graph_cycle, "task '" + tasks[i].name + "'",
             "channel cycle — deadlock under bounded FIFOs");
        break;  // one finding per cycle-carrying graph keeps reports small
      }
    }
  }

  if (tasks.size() > 1) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (touched[i] == 0) {
        emit(Rule::graph_isolated_task, "task '" + tasks[i].name + "'",
             "no channel reads from or writes to this task");
      }
    }
  }
  publish_obs(r);
  return r;
}

// ---------------------------------------------------- boundary self-check

Mode mode_from_env() {
  if (const auto v = core::parse_env_int("SYMBAD_LINT", 0, 2)) {
    return static_cast<Mode>(*v);
  }
  return Mode::structural;
}

void enforce(const LintReport& report) {
  const std::size_t errors = report.error_count();
  if (errors == 0) return;
  std::string msg = "lint: " + report.subject + " has " + std::to_string(errors) +
                    " error finding(s):\n";
  std::size_t listed = 0;
  for (const auto& f : report.findings) {
    if (f.severity != Severity::error) continue;
    msg += "  " + std::string{rule_id(f.rule)} + " " + rule_name(f.rule) + " " +
           f.object + ": " + f.detail + "\n";
    if (++listed == 8) break;  // keep campaign-sized exceptions readable
  }
  throw std::logic_error{msg};
}

void check_netlist(const rtl::Netlist& netlist, const char* where) {
  const Mode mode = mode_from_env();
  if (mode == Mode::off) return;
  Options o;
  o.semantic = mode == Mode::semantic;
  LintReport report = Linter{std::move(o)}.analyze(netlist);
  report.subject = std::string{where} + ": " + report.subject;
  enforce(report);
}

void check_graph(const core::TaskGraph& graph, const char* where) {
  if (mode_from_env() == Mode::off) return;
  LintReport report = Linter{}.analyze(graph);
  report.subject = std::string{where} + ": " + report.subject;
  enforce(report);
}

}  // namespace symbad::lint
