#pragma once
// An ATPG verdict reference that shares no code with the SAT engine.
//
// `exhaustive_detectable` decides, by simulating every input sequence of
// length U from reset on the 64-lane rtl::Simulator, whether a stuck-at
// fault changes some output within U frames. That is exactly the question
// atpg::SatEngine answers with a miter, but it goes through neither the CNF
// encoder nor the solver, so a bug the engine and `sat_generate_test` share
// (both encode through rtl::CnfEncoder) still shows up as a mismatch.
// The cost is 2^(inputs * U) sequences per fault: small netlists only.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "atpg/atpg.hpp"
#include "rtl/netlist.hpp"

namespace symbad::test {

/// Every stuck-at fault of `n`: each net (inputs, constants, gates and
/// flip-flops) stuck at 0, then at 1.
[[nodiscard]] inline std::vector<std::pair<rtl::Net, bool>> all_stuck_at_faults(
    const rtl::Netlist& n) {
  std::vector<std::pair<rtl::Net, bool>> faults;
  for (std::size_t i = 0; i < n.gate_count(); ++i) {
    faults.emplace_back(static_cast<rtl::Net>(i), false);
    faults.emplace_back(static_cast<rtl::Net>(i), true);
  }
  return faults;
}

/// result[i] is true iff some input sequence of `unroll` frames from reset
/// makes some output of `n` with faults[i] injected differ from the good
/// circuit at some frame. Sequence s drives input k at frame f with bit
/// (f * inputs + k) of s; pass p simulates sequences 64p .. 64p + 63.
[[nodiscard]] inline std::vector<bool> exhaustive_detectable(
    const rtl::Netlist& n, std::span<const std::pair<rtl::Net, bool>> faults, int unroll) {
  using Word = rtl::Simulator::LaneWord;
  const std::size_t inputs = n.inputs().size();
  const std::size_t bits = inputs * static_cast<std::size_t>(unroll);
  if (unroll < 1 || bits > 24) {
    throw std::invalid_argument{"exhaustive_detectable: needs 1..24 input bits"};
  }
  const std::uint64_t passes = bits <= 6 ? 1 : std::uint64_t{1} << (bits - 6);
  // Lane l of pass p carries bit k of 64p + l.
  static constexpr Word kLaneBit[6] = {0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL,
                                       0xF0F0F0F0F0F0F0F0ULL, 0xFF00FF00FF00FF00ULL,
                                       0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};
  const auto input_word = [&](std::uint64_t pass, int frame, std::size_t k) -> Word {
    const std::size_t bit = static_cast<std::size_t>(frame) * inputs + k;
    if (bit < 6) return kLaneBit[bit];
    return ((pass >> (bit - 6)) & 1) != 0 ? ~Word{0} : Word{0};
  };
  std::vector<rtl::Net> outputs;
  for (const auto& [name, net] : n.outputs()) outputs.push_back(net);

  // Runs every sequence on `sim`; `visit(pass, frame, output, word)` sees
  // each output word and stops the run by returning true. The registers
  // are written directly (reset values, then the next-state words), so
  // each frame costs one evaluation.
  const auto run = [&](rtl::Simulator& sim, auto&& visit) {
    for (std::uint64_t pass = 0; pass < passes; ++pass) {
      for (int f = 0; f < unroll; ++f) {
        for (const rtl::Net d : n.flip_flops()) {
          const rtl::Gate& g = n.gate(d);
          sim.set_word(d, f == 0 ? (g.init ? ~Word{0} : Word{0}) : sim.word(g.a));
        }
        for (std::size_t k = 0; k < inputs; ++k) {
          sim.set_word(n.inputs()[k], input_word(pass, f, k));
        }
        sim.eval();
        for (std::size_t o = 0; o < outputs.size(); ++o) {
          if (visit(pass, f, o, sim.word(outputs[o]))) return;
        }
      }
    }
  };
  const auto slot = [&](std::uint64_t pass, int f, std::size_t o) {
    return (pass * static_cast<std::uint64_t>(unroll) + static_cast<std::uint64_t>(f)) *
               outputs.size() + o;
  };

  std::vector<Word> good(passes * static_cast<std::uint64_t>(unroll) * outputs.size());
  rtl::Simulator good_sim{n};
  run(good_sim, [&](std::uint64_t pass, int f, std::size_t o, Word w) {
    good[slot(pass, f, o)] = w;
    return false;
  });

  std::vector<bool> detectable;
  detectable.reserve(faults.size());
  for (const auto& [net, stuck_to] : faults) {
    rtl::Simulator bad_sim{n};
    bad_sim.inject_stuck_at(net, stuck_to);
    bool differs = false;
    run(bad_sim, [&](std::uint64_t pass, int f, std::size_t o, Word w) {
      differs = w != good[slot(pass, f, o)];
      return differs;
    });
    detectable.push_back(differs);
  }
  return detectable;
}

/// Replays a generated test on a good and a faulty simulator from reset;
/// true iff some output differs at some frame.
[[nodiscard]] inline bool replay_detects(const rtl::Netlist& n, const atpg::SatTest& test,
                                         rtl::Net fault_net, bool stuck_to) {
  rtl::Simulator good{n};
  rtl::Simulator bad{n};
  bad.inject_stuck_at(fault_net, stuck_to);
  for (std::size_t f = 0; f < test.frames.size(); ++f) {
    if (f > 0) {
      good.step();
      bad.step();
    }
    for (const auto& [name, value] : test.frames[f]) {
      good.set_input(name, value);
      bad.set_input(name, value);
    }
    good.eval();
    bad.eval();
    for (const auto& [name, net] : n.outputs()) {
      if (good.value(net) != bad.value(net)) return true;
    }
  }
  return false;
}

/// ATPG results against the oracle: each fault's detectability must equal
/// `exhaustive_detectable`'s, and each returned test must span `unroll`
/// frames and detect its fault on replay. `what` labels the failures.
inline void expect_matches_oracle(const rtl::Netlist& n, int unroll,
                                  std::span<const atpg::SatEngine::FaultResult> results,
                                  const std::string& what) {
  std::vector<std::pair<rtl::Net, bool>> faults;
  for (const auto& r : results) faults.emplace_back(r.net, r.stuck_to);
  const auto oracle = exhaustive_detectable(n, faults, unroll);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const std::string label = what + " U=" + std::to_string(unroll) + " net " +
                              std::to_string(r.net) + " (" +
                              rtl::to_string(n.gate(r.net).kind) + ") stuck-at-" +
                              (r.stuck_to ? "1" : "0");
    EXPECT_EQ(r.test.has_value(), oracle[i]) << label;
    if (r.test.has_value()) {
      EXPECT_EQ(r.test->frames.size(), static_cast<std::size_t>(unroll)) << label;
      EXPECT_TRUE(replay_detects(n, *r.test, r.net, r.stuck_to)) << label;
    }
  }
}

}  // namespace symbad::test
