#include "opt/sweep.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>

#include "rtl/cnf.hpp"
#include "sat/solver.hpp"
#include "verif/rng.hpp"

namespace symbad::opt {

using rtl::GateKind;
using rtl::Net;

namespace {

[[nodiscard]] bool is_comb_gate(GateKind k) {
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

}  // namespace

SatSweeper::SatSweeper(const rtl::Netlist& netlist, Options options)
    : netlist_{&netlist}, options_{options} {
  netlist.validate();
}

std::vector<SatSweeper::Merge> SatSweeper::find_merges() {
  const auto& n = *netlist_;
  const std::size_t rounds = static_cast<std::size_t>(options_.rounds);
  const std::size_t count = n.gate_count();

  // ---- random-pattern signatures (64 parallel patterns per word) --------
  // Cut points (inputs, flip-flop outputs) draw one independent Rng stream
  // each, so the signature of every net is a pure function of (netlist,
  // seed) — independent of evaluation order or platform. Each round is one
  // free-state evaluation of the lane-parallel simulator: the cut-point
  // words are written directly, the gate walk fills in the rest.
  std::vector<std::uint64_t> sig(count * rounds, 0);
  verif::Rng base{options_.seed};
  const auto words = [&](std::size_t i) { return &sig[i * rounds]; };
  std::vector<std::pair<Net, verif::Rng>> cuts;
  for (std::size_t i = 0; i < count; ++i) {
    const GateKind k = n.gate(static_cast<Net>(i)).kind;
    if (k == GateKind::input || k == GateKind::dff) {
      cuts.emplace_back(static_cast<Net>(i), base.fork(static_cast<std::uint64_t>(i)));
    }
  }
  rtl::Simulator sim{n};
  for (std::size_t r = 0; r < rounds; ++r) {
    for (auto& [net, stream] : cuts) sim.set_word(net, stream.next());
    sim.eval();
    for (std::size_t i = 0; i < count; ++i) words(i)[r] = sim.word(static_cast<Net>(i));
  }

  // ---- candidate classes: equal-or-complement signatures ----------------
  // The canonical key has bit 0 of word 0 cleared; the stored polarity says
  // whether the net equals the key or its complement.
  std::map<std::vector<std::uint64_t>, std::vector<std::pair<Net, bool>>> classes;
  std::vector<std::uint64_t> key(rounds);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t* w = words(i);
    const bool pol = (w[0] & 1) != 0;
    for (std::size_t r = 0; r < rounds; ++r) key[r] = pol ? ~w[r] : w[r];
    classes[key].emplace_back(static_cast<Net>(i), pol);
  }

  // ---- incremental proofs on one long-lived solver ----------------------
  sat::Solver solver;
  rtl::CnfEncoder encoder{n, solver};
  std::optional<rtl::Frame> frame;  // encoded lazily, free state = cut points
  const auto frame_lit = [&](Net net) {
    if (!frame) {
      rtl::CnfEncoder::Options opts;
      opts.state = rtl::StateInit::free_state;
      frame = encoder.encode(opts);
    }
    return frame->lit(net);
  };

  std::vector<Merge> merges;
  std::size_t solver_checks = 0;  // real SAT calls, the max_proofs budget
  for (const auto& [class_key, members] : classes) {
    if (members.size() < 2) continue;
    const auto [rep, rep_pol] = members.front();
    for (std::size_t k = 1; k < members.size(); ++k) {
      const auto [cand, cand_pol] = members[k];
      if (!is_comb_gate(n.gate(cand).kind)) continue;
      const bool complement = cand_pol != rep_pol;
      ++stats_.candidates;
      const sat::Lit a = frame_lit(rep);
      const sat::Lit b = frame_lit(cand);
      const sat::Lit want = complement ? ~a : a;
      if (b == want) {  // already literally identical in the encoding
        ++stats_.proved;
        merges.push_back(Merge{cand, rep, complement});
        continue;
      }
      // The budget caps *solver* calls only — literally-identical merges
      // above are free and must not starve the real proofs.
      if (options_.max_proofs > 0 && solver_checks >= options_.max_proofs) {
        continue;  // budget exhausted: leave remaining candidates unmerged
      }
      ++solver_checks;
      // Miter gated behind a fresh activation literal: assuming act asks
      // for an assignment where the two nets differ (in the expected
      // polarity); UNSAT proves the merge for every input/state.
      const sat::Lit act = sat::Lit::positive(solver.new_var());
      solver.add_ternary(~act, want, b);
      solver.add_ternary(~act, ~want, ~b);
      const bool differ = solver.solve({act}) == sat::Result::sat;
      stats_.conflicts += solver.last_solve_statistics().conflicts;
      solver.add_unit(~act);  // retire the miter either way
      if (differ) {
        ++stats_.refuted;
      } else {
        ++stats_.proved;
        merges.push_back(Merge{cand, rep, complement});
      }
    }
  }

  std::sort(merges.begin(), merges.end(),
            [](const Merge& x, const Merge& y) { return x.net < y.net; });
  return merges;
}

}  // namespace symbad::opt
