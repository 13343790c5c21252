#include "opt/optimizer.hpp"

#include <array>
#include <stdexcept>
#include <utility>

#include "core/env.hpp"
#include "lint/lint.hpp"
#include "obs/obs.hpp"
#include "opt/rebuild.hpp"
#include "opt/sweep.hpp"

namespace symbad::opt {

using rtl::Gate;
using rtl::GateKind;
using rtl::Net;
using rtl::Netlist;

using detail::Builder;  // the shared hashing/rewriting core (rebuild.hpp)

namespace {

// ------------------------------------------------------------ rewrite pass

struct Rebuild {
  Netlist netlist{"opt"};
  NetMap map;
};

struct RebuildOptions {
  /// Output names to keep (nullptr or empty = all).
  const std::vector<std::string>* preserve_outputs = nullptr;
  bool keep_all_nets = false;
  const std::map<Net, bool>* faults = nullptr;
  /// Proven merges to apply (net -> representative), from SatSweeper.
  const std::vector<SatSweeper::Merge>* merges = nullptr;
};

/// One full rebuild of `in`: dead-gate elimination (unless keep_all_nets),
/// fault baking, sweeping merges, and the Builder's hashing/rewriting.
Rebuild rewrite_pass(const Netlist& in, const RebuildOptions& ro) {
  // Which outputs survive.
  std::vector<std::pair<std::string, Net>> kept_outputs;
  for (const auto& [name, net] : in.outputs()) {
    if (ro.preserve_outputs == nullptr || ro.preserve_outputs->empty()) {
      kept_outputs.emplace_back(name, net);
      continue;
    }
    for (const auto& keep : *ro.preserve_outputs) {
      if (keep == name) {
        kept_outputs.emplace_back(name, net);
        break;
      }
    }
  }

  // Liveness relative to the kept outputs (closure under structural
  // support, crossing registers — Netlist::cone_of_influence).
  std::vector<char> live;
  if (!ro.keep_all_nets) {
    std::vector<Net> roots;
    roots.reserve(kept_outputs.size());
    for (const auto& [name, net] : kept_outputs) roots.push_back(net);
    live = in.cone_of_influence(roots);
  }
  const auto is_live = [&](std::size_t i) {
    return ro.keep_all_nets || live[i] != 0;
  };

  std::vector<Net> merge_onto(in.gate_count(), -1);
  std::vector<char> merge_comp(in.gate_count(), 0);
  if (ro.merges != nullptr) {
    for (const auto& m : *ro.merges) {
      merge_onto[static_cast<std::size_t>(m.net)] = m.onto;
      merge_comp[static_cast<std::size_t>(m.net)] = m.complement ? 1 : 0;
    }
  }

  Builder b{in.name()};
  NetMap map;
  map.old_to_new.assign(in.gate_count(), -1);
  std::vector<std::pair<Net, Net>> pending_dffs;  // (new dff, old next net)

  for (std::size_t i = 0; i < in.gate_count(); ++i) {
    const Net old = static_cast<Net>(i);
    const Gate& g = in.gate(old);
    // Primary inputs are always declared (same names, same order) so the
    // formal clients can extract input traces without translation; their
    // *readers* may still be redirected below (fault baking).
    if (g.kind == GateKind::input) {
      const Net fresh = b.input(in.net_name(old));
      if (ro.faults != nullptr) {
        if (const auto it = ro.faults->find(old); it != ro.faults->end()) {
          map.old_to_new[i] = b.constant(it->second);
          continue;
        }
      }
      map.old_to_new[i] = fresh;
      continue;
    }
    if (!is_live(i)) continue;  // dead: no image
    if (ro.faults != nullptr) {
      if (const auto it = ro.faults->find(old); it != ro.faults->end()) {
        map.old_to_new[i] = b.constant(it->second);
        continue;
      }
    }
    if (const Net onto = merge_onto[i]; onto >= 0) {
      const Net target = map.old_to_new[static_cast<std::size_t>(onto)];
      if (target < 0) throw std::logic_error{"opt: merge onto a dead net"};
      map.old_to_new[i] = merge_comp[i] != 0 ? b.mk_not(target) : target;
      continue;
    }
    const auto op = [&](Net n) { return map.old_to_new[static_cast<std::size_t>(n)]; };
    switch (g.kind) {
      case GateKind::const0: map.old_to_new[i] = b.constant(false); break;
      case GateKind::const1: map.old_to_new[i] = b.constant(true); break;
      case GateKind::and_gate: map.old_to_new[i] = b.mk_and(op(g.a), op(g.b)); break;
      case GateKind::or_gate: map.old_to_new[i] = b.mk_or(op(g.a), op(g.b)); break;
      case GateKind::xor_gate: map.old_to_new[i] = b.mk_xor(op(g.a), op(g.b)); break;
      case GateKind::not_gate: map.old_to_new[i] = b.mk_not(op(g.a)); break;
      case GateKind::mux:
        map.old_to_new[i] = b.mk_mux(op(g.a), op(g.b), op(g.c));
        break;
      case GateKind::dff: {
        const Net fresh = b.dff(g.init, in.net_name(old));
        map.old_to_new[i] = fresh;
        pending_dffs.emplace_back(fresh, g.a);  // next-state may be a later net
        break;
      }
      case GateKind::input: break;  // handled above
    }
  }

  for (const auto& [fresh, old_next] : pending_dffs) {
    const Net next = map.old_to_new[static_cast<std::size_t>(old_next)];
    if (next < 0) throw std::logic_error{"opt: dff next-state lost its image"};
    b.connect_next(fresh, next);
  }
  for (const auto& [name, net] : kept_outputs) {
    b.set_output(name, map.old_to_new[static_cast<std::size_t>(net)]);
  }

  Rebuild result;
  result.netlist = b.take();
  result.map = std::move(map);
  return result;
}

}  // namespace

NetMap compose(const NetMap& first, const NetMap& second) {
  NetMap out;
  out.old_to_new.reserve(first.old_to_new.size());
  for (const Net mid : first.old_to_new) {
    out.old_to_new.push_back(mid < 0 ? -1 : second.translate(mid));
  }
  return out;
}

OptimizerOptions OptimizerOptions::from_env() {
  // Strict shared parsing (core::parse_env_int): a misconfigured knob
  // throws instead of silently running with defaults.
  OptimizerOptions o;
  if (const auto v = core::parse_env_flag("SYMBAD_OPT")) o.enabled = *v;
  if (const auto v = core::parse_env_flag("SYMBAD_OPT_SWEEP")) o.sweep = *v;
  if (const auto v = core::parse_env_int("SYMBAD_OPT_SWEEP_ROUNDS", 1, 64)) {
    o.sweep_rounds = static_cast<int>(*v);
  }
  if (const auto v = core::parse_env_int("SYMBAD_OPT_SWEEP_MAX_PROOFS", 0, 1'000'000'000)) {
    o.sweep_max_proofs = static_cast<std::size_t>(*v);
  }
  return o;
}

namespace {

// One batch of adds per pipeline run (disabled identity runs excluded — no
// pipeline ran). Gate counts, candidates and solver conflicts are all
// deterministic for a fixed input.
void publish_obs(const OptimizeResult& result) {
  struct OptObs {
    obs::Counter runs, gates_before, gates_after, sweep_candidates,
        sweep_proved, sweep_refuted, sweep_conflicts;
  };
  auto& registry = obs::Registry::instance();
  static const OptObs counters{
      registry.counter("opt.runs"),
      registry.counter("opt.gates_before"),
      registry.counter("opt.gates_after"),
      registry.counter("opt.sweep_candidates"),
      registry.counter("opt.sweep_proved"),
      registry.counter("opt.sweep_refuted"),
      registry.counter("opt.sweep_conflicts"),
  };
  counters.runs.inc();
  counters.gates_before.add(result.gates_before());
  counters.gates_after.add(result.gates_after());
  for (const auto& p : result.passes) {
    counters.sweep_candidates.add(p.sweep_candidates);
    counters.sweep_proved.add(p.sweep_proved);
    counters.sweep_refuted.add(p.sweep_refuted);
    counters.sweep_conflicts.add(p.sweep_conflicts);
  }
}

}  // namespace

OptimizeResult Optimizer::run(const Netlist& input) const {
  input.validate();
  OBS_SPAN("opt.run");
  OptimizeResult result;

  if (!options_.enabled) {
    // The master switch means what it says even for direct callers: an
    // identity result (netlist copy, identity map), no pipeline run.
    result.netlist = input;
    result.map.old_to_new.resize(input.gate_count());
    for (std::size_t i = 0; i < input.gate_count(); ++i) {
      result.map.old_to_new[i] = static_cast<Net>(i);
    }
    result.passes.push_back(PassStats{"disabled", input.gate_count(),
                                      input.gate_count(), 0, 0, 0, 0,
                                      input.gate_histogram()});
    return result;
  }

  RebuildOptions ro;
  ro.preserve_outputs = &options_.preserve_outputs;
  ro.faults = options_.faults;

  // Pass 1: structural rewrite (hash + fold + dead elimination + faults).
  auto r1 = rewrite_pass(input, ro);
  result.passes.push_back(PassStats{"rewrite", input.gate_count(),
                                    r1.netlist.gate_count(), 0, 0, 0, 0,
                                    r1.netlist.gate_histogram()});

  if (options_.sweep) {
    SatSweeper sweeper{r1.netlist,
                       {options_.sweep_rounds, options_.sweep_seed,
                        options_.sweep_max_proofs}};
    const auto merges = sweeper.find_merges();
    const auto& st = sweeper.stats();
    // Pass 2: apply the proven merges with another rebuild (the Builder
    // then collapses the gates the merges made structurally redundant).
    // All outputs of the intermediate netlist are already the preserved
    // set, and faults are already baked. The merge rebuild keeps every
    // net (a merge may redirect a live net onto a representative whose
    // own cone went dead); the final rebuild then sweeps the dead logic.
    PassStats sweep_stats{"sweep", r1.netlist.gate_count(), r1.netlist.gate_count(),
                          st.candidates, st.proved, st.refuted, st.conflicts,
                          r1.netlist.gate_histogram()};
    if (!merges.empty()) {
      RebuildOptions ro2;
      ro2.keep_all_nets = true;
      ro2.merges = &merges;
      auto r2 = rewrite_pass(r1.netlist, ro2);
      r1.map = compose(r1.map, r2.map);
      r1.netlist = std::move(r2.netlist);
      auto r3 = rewrite_pass(r1.netlist, RebuildOptions{});
      r1.map = compose(r1.map, r3.map);
      r1.netlist = std::move(r3.netlist);
      sweep_stats.gates_after = r1.netlist.gate_count();
      sweep_stats.histogram_after = r1.netlist.gate_histogram();
    }
    result.passes.push_back(std::move(sweep_stats));
  }

  result.netlist = std::move(r1.netlist);
  result.map = std::move(r1.map);
  // Default-on boundary self-check (SYMBAD_LINT): every pipeline output
  // must be free of error-severity findings.
  lint::check_netlist(result.netlist, "opt");
  publish_obs(result);
  return result;
}

}  // namespace symbad::opt
