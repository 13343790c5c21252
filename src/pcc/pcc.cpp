#include "pcc/pcc.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <optional>
#include <span>
#include <utility>

#include "mc/tables.hpp"
#include "obs/obs.hpp"
#include "verif/rng.hpp"

namespace symbad::pcc {

namespace {

using LaneWord = rtl::Simulator::LaneWord;

/// One property's simulation check, word-parallel over the simulator's
/// lanes, with the per-fault semantics: an invariant fails in a cycle where
/// p is false; a next-implication where p held in the previous cycle of the
/// run and q is false now; a bounded response where q is false and the
/// oldest deadline opened since q last held (by a cycle with p and !q) is
/// more than `bound` cycles old.
class LaneCheck {
public:
  LaneCheck(const mc::Property& property, const rtl::Netlist& netlist)
      : kind_{property.kind},
        bound_{property.response_bound},
        p_{property.antecedent.compile(netlist)},
        q_{property.consequent.compile(netlist)} {}

  /// Clears the windows at the start of a run.
  void restart() noexcept {
    prev_ = 0;
    pending_ = 0;
  }

  /// Lanes among `live` that violate the property at `cycle` of the run,
  /// with the simulator evaluated there; advances the windows.
  [[nodiscard]] LaneWord violations(const rtl::Simulator& sim, int cycle, LaneWord live) {
    const LaneWord p = p_.eval(sim);
    switch (kind_) {
      case mc::PropertyKind::invariant:
        return ~p & live;
      case mc::PropertyKind::next_implication: {
        const LaneWord violated = prev_ & ~q_.eval(sim) & live;
        prev_ = p;
        return violated;
      }
      case mc::PropertyKind::bounded_response: {
        const LaneWord q = q_.eval(sim);
        pending_ &= ~q;  // a response retires every open deadline
        LaneWord violated = 0;
        for (LaneWord open = pending_ & live; open != 0; open &= open - 1) {
          const int lane = std::countr_zero(open);
          if (cycle - opened_[static_cast<std::size_t>(lane)] > bound_) {
            violated |= LaneWord{1} << lane;
          }
        }
        const LaneWord fresh = p & ~q & ~pending_ & live;
        for (LaneWord f = fresh; f != 0; f &= f - 1) {
          opened_[static_cast<std::size_t>(std::countr_zero(f))] = cycle;
        }
        pending_ |= fresh;
        return violated;
      }
    }
    return 0;
  }

private:
  mc::PropertyKind kind_;
  int bound_;
  mc::CompiledExpr p_;
  mc::CompiledExpr q_;
  LaneWord prev_ = 0;     // next_implication: lanes where p held last cycle
  LaneWord pending_ = 0;  // bounded_response: lanes with an open deadline
  std::array<int, rtl::Simulator::kLanes> opened_{};  // cycle of the oldest one
};

/// Random-simulation pre-pass: for each fault, whether random stimulus
/// violates some property on the faulty design.
///
/// Faults are graded up to 64 per pass, one per simulator lane, on the one
/// sequential stimulus stream a per-fault loop would draw. That loop draws
/// D = runs x cycles x |inputs| bits for an undetected fault and stops at
/// the detecting cycle of a detected one, so lane j reads the stream at
/// offset j·D — exact as long as every lane below j goes undetected. When
/// the lowest detecting lane j* fires, lanes 0..j* are exact and committed;
/// lanes above j* read the wrong offsets, stop drawing, and are re-graded
/// by the next pass, which starts where the per-fault loop would: j*·D plus
/// the draws j* used.
///
/// The simulator walks only `cone`, the properties' cone of influence, and
/// only cone inputs are drawn, each at its unchanged offset (input k of a
/// cycle reads draw k): nothing outside the cone reaches a property, so a
/// lane's verdict and the committed draws are the full walk's.
std::vector<char> simulate_detects(const rtl::Netlist& netlist, const std::vector<char>& cone,
                                   const std::vector<mc::Property>& properties,
                                   const std::vector<std::pair<rtl::Net, bool>>& faults,
                                   const PccOptions& options, std::uint64_t& passes) {
  OBS_SPAN("pcc.simulate");
  std::vector<char> detected(faults.size(), 0);
  const auto& inputs = netlist.inputs();
  const int runs = std::max(0, options.simulation_runs);
  const int cycles = std::max(0, options.simulation_cycles);
  const std::uint64_t draws_per_cycle = inputs.size();
  const std::uint64_t draws_per_fault = static_cast<std::uint64_t>(runs) *
                                        static_cast<std::uint64_t>(cycles) * draws_per_cycle;

  rtl::Simulator sim{netlist, cone};
  std::vector<std::size_t> drawn_inputs;  // declaration indices of the cone's inputs
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    if (cone[static_cast<std::size_t>(inputs[k])] != 0) drawn_inputs.push_back(k);
  }
  std::vector<LaneCheck> checks;
  checks.reserve(properties.size());
  for (const auto& prop : properties) checks.emplace_back(prop, netlist);
  verif::Rng rng{options.seed};

  for (std::size_t first = 0; first < faults.size();) {
    ++passes;
    const std::size_t lanes =
        std::min<std::size_t>(rtl::Simulator::kLanes, faults.size() - first);
    sim.clear_faults();
    for (std::size_t j = 0; j < lanes; ++j) {
      sim.inject_stuck_at(faults[first + j].first, faults[first + j].second,
                          LaneWord{1} << j);
    }
    // Lanes still drawing: undetected, and below the lowest detection.
    LaneWord live = lanes == rtl::Simulator::kLanes ? rtl::Simulator::kAllLanes
                                                    : (LaneWord{1} << lanes) - 1;
    std::size_t hit_lane = lanes;  // lowest detecting lane; `lanes` = none
    std::uint64_t hit_draws = 0;  // stream draws the hit lane used
    for (int run = 0; run < runs && live != 0; ++run) {
      sim.reset();
      for (auto& check : checks) check.restart();
      for (int cycle = 0; cycle < cycles && live != 0; ++cycle) {
        const std::uint64_t drawn =
            (static_cast<std::uint64_t>(run) * static_cast<std::uint64_t>(cycles) +
             static_cast<std::uint64_t>(cycle)) *
            draws_per_cycle;
        for (const std::size_t k : drawn_inputs) {
          LaneWord bits = 0;
          for (LaneWord l = live; l != 0; l &= l - 1) {
            const int j = std::countr_zero(l);
            bits |= (rng.at(static_cast<std::uint64_t>(j) * draws_per_fault + drawn + k) & 1)
                    << j;
          }
          sim.set_word(inputs[k], bits);
        }
        sim.eval();
        LaneWord violated = 0;
        for (auto& check : checks) violated |= check.violations(sim, cycle, live);
        if (violated != 0) {
          const int j = std::countr_zero(violated);
          hit_lane = static_cast<std::size_t>(j);
          hit_draws = drawn + draws_per_cycle;
          live &= (LaneWord{1} << j) - 1;
        }
        sim.step();
      }
    }
    if (hit_lane == lanes) {
      rng.discard(lanes * draws_per_fault);
      first += lanes;
    } else {
      detected[first + hit_lane] = 1;
      rng.discard(hit_lane * draws_per_fault + hit_draws);
      first += hit_lane + 1;
    }
  }
  return detected;
}

}  // namespace

PccReport check_property_coverage(const rtl::Netlist& netlist,
                                  const std::vector<mc::Property>& properties,
                                  const PccOptions& options) {
  OBS_SPAN("pcc.check_property_coverage");
  const std::span<const mc::Property> observed{properties.data(), properties.size()};
  // The observed cone, computed before anything else (it rejects property
  // sets no engine can check): the pre-pass simulates it, the table engine
  // enumerates it, and the prune below reads it.
  const mc::TableCone cone = mc::table_cone(netlist, observed);

  // Candidate faults: both stuck-at polarities on every internal net.
  std::vector<std::pair<rtl::Net, bool>> faults;
  for (std::size_t i = 0; i < netlist.gate_count(); ++i) {
    const auto kind = netlist.gate(static_cast<rtl::Net>(i)).kind;
    if (kind == rtl::GateKind::const0 || kind == rtl::GateKind::const1 ||
        kind == rtl::GateKind::input) {
      continue;
    }
    faults.emplace_back(static_cast<rtl::Net>(i), false);
    faults.emplace_back(static_cast<rtl::Net>(i), true);
  }
  if (options.max_faults > 0 && faults.size() > options.max_faults) {
    // Deterministic uniform sampling.
    std::vector<std::pair<rtl::Net, bool>> sampled;
    const double stride = static_cast<double>(faults.size()) /
                          static_cast<double>(options.max_faults);
    for (std::size_t k = 0; k < options.max_faults; ++k) {
      sampled.push_back(faults[static_cast<std::size_t>(k * stride)]);
    }
    faults = std::move(sampled);
  }

  // Registry bridge: the verdict tallies and sim_passes are added once per
  // campaign, the formal-grading footprint once per BMC-graded fault (read
  // back from that fault's mc.encoded_* counters). All deterministic
  // (fault order, sampling, grading verdicts and encode footprints are
  // seed-fixed).
  struct PccObs {
    obs::Counter campaigns, faults_total, detected, detected_by_simulation,
        detected_by_bmc, lint_pruned, encoded_vars, encoded_clauses, sim_passes;
  };
  auto& registry = obs::Registry::instance();
  static const PccObs counters{
      registry.counter("pcc.campaigns"),
      registry.counter("pcc.faults_total"),
      registry.counter("pcc.detected"),
      registry.counter("pcc.detected_by_simulation"),
      registry.counter("pcc.detected_by_bmc"),
      registry.counter("pcc.lint_pruned"),
      registry.counter("pcc.encoded_vars"),
      registry.counter("pcc.encoded_clauses"),
      registry.counter("pcc.sim_passes"),
  };

  PccReport report;
  report.total_faults = faults.size();
  mc::ModelChecker::Options mc_opts;
  mc_opts.max_bound = options.bmc_bound;
  // PCC only asks *whether* a property falsifies on the faulty netlist;
  // the traces are discarded, so skip counterexample canonicalisation.
  mc_opts.canonical_counterexample = false;

  // The pre-pass grades every fault, out-of-cone ones included: it draws
  // from the shared sequential rng, and dropping a fault's draws would
  // shift every later fault's stimuli.
  std::uint64_t sim_passes = 0;
  const std::vector<char> by_sim =
      simulate_detects(netlist, cone.nets, properties, faults, options, sim_passes);

  // Formal grading. A cone the table engine takes gets one engine for the
  // campaign: the probe and every fault reuse its cone simulator and
  // compiled properties. A larger cone sends each fault to the SAT engine.
  std::optional<mc::TableEngine> tables;
  if (cone.fits()) tables.emplace(netlist, cone, observed);
  // Portfolio BMC: all properties on one solver per fault — undetectable
  // faults (the common case) cost one UNSAT solve per bound for the whole
  // property set instead of one BMC sweep per property.
  const mc::BmcChecker sat{netlist};
  const auto grade = [&](const std::map<rtl::Net, bool>& fault_map) {
    return tables ? tables->check_all(fault_map, mc_opts)
                  : sat.check_all(properties, mc_opts, fault_map);
  };

  // A fault outside the cone leaves every observed output as the good
  // design drives it, so it is undetected exactly when the good design
  // passes every property. One fault-free check, run lazily by the first
  // such fault, settles that for the campaign; a dirty good design (a
  // property it already falsifies detects every fault) turns the prune off
  // and sends the out-of-cone faults to formal grading too.
  std::optional<bool> good_design_passes;
  for (std::size_t k = 0; k < faults.size(); ++k) {
    if (by_sim[k] != 0) {
      ++report.detected;
      ++report.detected_by_simulation;
      continue;
    }
    const auto [net, stuck_to] = faults[k];

    if (cone.nets[static_cast<std::size_t>(net)] == 0) {
      if (!good_design_passes) {
        good_design_passes = grade({}).count(mc::CheckStatus::falsified) == 0;
      }
      if (*good_design_passes) {
        ++report.lint_pruned_faults;
        report.undetected.push_back({net, stuck_to});
        continue;
      }
    }
    const obs::Scope bmc_cost;
    const auto multi = grade({{net, stuck_to}});
    counters.encoded_vars.add(bmc_cost.delta("mc.encoded_vars"));
    counters.encoded_clauses.add(bmc_cost.delta("mc.encoded_clauses"));
    if (multi.count(mc::CheckStatus::falsified) > 0) {
      ++report.detected;
      ++report.detected_by_bmc;
    } else {
      report.undetected.push_back({net, stuck_to});
    }
  }

  counters.campaigns.inc();
  counters.faults_total.add(report.total_faults);
  counters.detected.add(report.detected);
  counters.detected_by_simulation.add(report.detected_by_simulation);
  counters.detected_by_bmc.add(report.detected_by_bmc);
  counters.lint_pruned.add(report.lint_pruned_faults);
  counters.sim_passes.add(sim_passes);
  return report;
}

}  // namespace symbad::pcc
