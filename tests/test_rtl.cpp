// Tests for the RTL netlist IR, word-level builders, simulator and CNF
// encoding (src/rtl).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "gen/gen.hpp"
#include "rtl/cnf.hpp"
#include "rtl/cone.hpp"
#include "rtl/netlist.hpp"
#include "rtl/wordops.hpp"
#include "sat/solver.hpp"
#include "support/test_util.hpp"

namespace gen = symbad::gen;
namespace rtl = symbad::rtl;
namespace sat = symbad::sat;
using rtl::Net;
using rtl::Netlist;
using rtl::Simulator;
using rtl::Word;

// ---------------------------------------------------------- construction

TEST(Netlist, OperandMustExist) {
  Netlist n;
  const Net a = n.add_input("a");
  EXPECT_THROW((void)n.add_and(a, 99), std::out_of_range);
}

TEST(Netlist, CombinationalOperandMustPrecedeItsGate) {
  // The next net is the gate being added: it does not exist yet, so no
  // combinational gate can read a later net (a forward reference) or itself
  // (a combinational loop). Only a flip-flop's next state closes a cycle.
  Netlist n;
  const Net a = n.add_input("a");
  EXPECT_THROW((void)n.add_and(a, static_cast<Net>(n.gate_count())), std::out_of_range);
  EXPECT_THROW((void)n.add_not(static_cast<Net>(n.gate_count())), std::out_of_range);
}

TEST(Netlist, DuplicateInputNameRejected) {
  Netlist n;
  (void)n.add_input("a");
  EXPECT_THROW((void)n.add_input("a"), std::invalid_argument);
}

TEST(Netlist, UnconnectedDffFailsValidation) {
  Netlist n;
  (void)n.add_dff(false, "r");
  EXPECT_THROW(n.validate(), std::logic_error);
}

TEST(Netlist, DoubleConnectRejected) {
  Netlist n;
  const Net d = n.add_dff(false, "r");
  const Net one = n.constant(true);
  n.connect_next(d, one);
  EXPECT_THROW(n.connect_next(d, one), std::logic_error);
}

TEST(Netlist, AreaEstimateCountsGates) {
  Netlist n;
  const Net a = n.add_input("a");
  const Net b = n.add_input("b");
  (void)n.add_and(a, b);
  const Net d = n.add_dff(false, "r");
  n.connect_next(d, a);
  EXPECT_DOUBLE_EQ(n.area_estimate(), 1.0 + 4.0);
}

// ------------------------------------------------------------- simulator

TEST(Simulator, BasicGates) {
  Netlist n;
  const Net a = n.add_input("a");
  const Net b = n.add_input("b");
  n.set_output("and", n.add_and(a, b));
  n.set_output("or", n.add_or(a, b));
  n.set_output("xor", n.add_xor(a, b));
  n.set_output("not", n.add_not(a));

  Simulator sim{n};
  for (int va = 0; va <= 1; ++va) {
    for (int vb = 0; vb <= 1; ++vb) {
      sim.set_input("a", va != 0);
      sim.set_input("b", vb != 0);
      sim.eval();
      EXPECT_EQ(sim.output("and"), (va & vb) != 0);
      EXPECT_EQ(sim.output("or"), (va | vb) != 0);
      EXPECT_EQ(sim.output("xor"), (va ^ vb) != 0);
      EXPECT_EQ(sim.output("not"), va == 0);
    }
  }
}

TEST(Simulator, MuxSelects) {
  Netlist n;
  const Net s = n.add_input("s");
  const Net t = n.add_input("t");
  const Net e = n.add_input("e");
  n.set_output("y", n.add_mux(s, t, e));
  Simulator sim{n};
  for (int bits = 0; bits < 8; ++bits) {
    const bool vs = (bits & 1) != 0;
    const bool vt = (bits & 2) != 0;
    const bool ve = (bits & 4) != 0;
    sim.set_input("s", vs);
    sim.set_input("t", vt);
    sim.set_input("e", ve);
    sim.eval();
    EXPECT_EQ(sim.output("y"), vs ? vt : ve) << bits;
  }
}

namespace {

/// Builds an 8-bit free-running counter.
Netlist make_counter(int width = 8) {
  Netlist n{"counter"};
  Word regs = rtl::make_registers(n, "cnt", width, 0);
  const Word one = rtl::make_constant(n, 1, width);
  const auto [next, carry] = rtl::add(n, regs, one);
  (void)carry;
  rtl::connect_registers(n, regs, next);
  rtl::set_output_word(n, "cnt", regs);
  return n;
}

std::uint64_t read_output_word(const Simulator& sim, const std::string& prefix,
                               int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    if (sim.output(prefix + "[" + std::to_string(i) + "]")) v |= std::uint64_t{1} << i;
  }
  return v;
}

}  // namespace

TEST(Simulator, CounterCountsAndWraps) {
  const Netlist n = make_counter(4);
  Simulator sim{n};
  for (std::uint64_t i = 0; i < 40; ++i) {
    EXPECT_EQ(read_output_word(sim, "cnt", 4), i % 16);
    sim.step();
  }
  EXPECT_EQ(sim.cycles(), 40u);
  sim.reset();
  EXPECT_EQ(read_output_word(sim, "cnt", 4), 0u);
}

TEST(Simulator, DffInitValueRespected) {
  Netlist n;
  const Net d = n.add_dff(true, "r");
  n.connect_next(d, d);  // holds value
  n.set_output("q", d);
  Simulator sim{n};
  EXPECT_TRUE(sim.output("q"));
  sim.step();
  EXPECT_TRUE(sim.output("q"));
}

TEST(Simulator, StuckAtFaultOverridesValue) {
  Netlist n;
  const Net a = n.add_input("a");
  const Net b = n.add_input("b");
  const Net g = n.add_and(a, b);
  n.set_output("y", g);
  Simulator sim{n};
  sim.set_input("a", true);
  sim.set_input("b", true);
  sim.eval();
  EXPECT_TRUE(sim.output("y"));
  sim.inject_stuck_at(g, false);
  sim.eval();
  EXPECT_FALSE(sim.output("y"));
  EXPECT_TRUE(sim.has_faults());
  sim.inject_stuck_at(g, true);  // re-injecting a net replaces its fault
  sim.inject_stuck_at(g, false);
  sim.eval();
  EXPECT_FALSE(sim.output("y"));
  sim.clear_faults();
  sim.eval();
  EXPECT_TRUE(sim.output("y"));
  // Per lane: the latest injection into a lane wins, other lanes keep theirs.
  sim.inject_stuck_at(g, true, 0b0010);
  sim.inject_stuck_at(g, false, 0b0011);
  sim.inject_stuck_at(b, false, 0b0100);
  sim.eval();
  EXPECT_EQ(sim.word(g) & 0b1111, Simulator::LaneWord{0b1000});
}

// ------------------------------------------------ lane-parallel simulator

namespace {

using LaneWord = Simulator::LaneWord;

constexpr gen::SizeTier kTiers[] = {gen::SizeTier::small, gen::SizeTier::medium,
                                    gen::SizeTier::large};

/// Fault sites the lane tests draw from: primary inputs, flip-flops and mux
/// selects — the nets the input load, the latch and the mux arm choice
/// each read first.
std::vector<Net> lane_fault_sites(const Netlist& n) {
  std::vector<Net> sites(n.inputs().begin(), n.inputs().end());
  sites.insert(sites.end(), n.flip_flops().begin(), n.flip_flops().end());
  for (std::size_t i = 0; i < n.gate_count(); ++i) {
    const rtl::Gate& g = n.gate(static_cast<Net>(i));
    if (g.kind == rtl::GateKind::mux) sites.push_back(g.a);
  }
  return sites;
}

/// Lane j of `lanes` equals `single`'s lane-0 value on every net.
::testing::AssertionResult lane_matches(const Simulator& lanes, int j, const Simulator& single,
                                        std::size_t nets) {
  for (std::size_t i = 0; i < nets; ++i) {
    const Net net = static_cast<Net>(i);
    if (((lanes.word(net) >> j) & 1) != (single.value(net) ? 1u : 0u)) {
      return ::testing::AssertionFailure() << "lane " << j << " differs at net " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace

TEST(LaneSimulator, MatchesOneLaneRunsUnderPerLaneFaults) {
  // Every lane of one 64-lane run — its own stimulus and its own random
  // stuck-at faults — must equal a one-lane run of that lane, on every net
  // after every eval and every clock, on generated netlists of all tiers.
  auto rng = symbad::test::rng("lane_simulator_faults");
  for (const auto tier : kTiers) {
    const Netlist n = gen::generate_netlist(rng.next(), tier);
    const auto sites = lane_fault_sites(n);
    ASSERT_FALSE(sites.empty());
    Simulator lanes{n};
    std::vector<Simulator> singles(Simulator::kLanes, Simulator{n});
    for (int j = 0; j < Simulator::kLanes; ++j) {
      const auto count = rng.below(3);  // 0..2 faults; a repeated site's last write wins
      for (std::uint64_t f = 0; f < count; ++f) {
        const Net site = sites[rng.below(sites.size())];
        const bool stuck_to = (rng.next() & 1) != 0;
        lanes.inject_stuck_at(site, stuck_to, LaneWord{1} << j);
        singles[static_cast<std::size_t>(j)].inject_stuck_at(site, stuck_to);
      }
    }
    EXPECT_TRUE(lanes.has_faults());
    for (int cycle = 0; cycle < 12; ++cycle) {
      for (const Net in : n.inputs()) {
        const LaneWord w = rng.next();
        lanes.set_word(in, w);
        for (int j = 0; j < Simulator::kLanes; ++j) {
          singles[static_cast<std::size_t>(j)].set_input(in, ((w >> j) & 1) != 0);
        }
      }
      lanes.eval();
      for (auto& single : singles) single.eval();
      for (int j = 0; j < Simulator::kLanes; ++j) {
        ASSERT_TRUE(lane_matches(lanes, j, singles[static_cast<std::size_t>(j)], n.gate_count()))
            << gen::to_string(tier) << " cycle " << cycle << " after eval";
      }
      lanes.step();
      for (auto& single : singles) single.step();
      for (int j = 0; j < Simulator::kLanes; ++j) {
        ASSERT_TRUE(lane_matches(lanes, j, singles[static_cast<std::size_t>(j)], n.gate_count()))
            << gen::to_string(tier) << " cycle " << cycle << " after step";
      }
    }
    lanes.clear_faults();
    EXPECT_FALSE(lanes.has_faults());
  }
}

TEST(LaneSimulator, FreeStateWordsMatchForcedOneLaneRuns) {
  // Free-state mode: input and flip-flop words written directly, bypassing
  // reset and latching. Lane j must equal a one-lane simulator driven to
  // lane j's inputs (set_input) and state (a broadcast set_word), both
  // after the eval and after one clock.
  auto rng = symbad::test::rng("lane_simulator_free_state");
  for (const auto tier : kTiers) {
    const Netlist n = gen::generate_netlist(rng.next(), tier);
    Simulator lanes{n};
    Simulator single{n};
    for (int round = 0; round < 3; ++round) {
      std::vector<LaneWord> in_words;
      std::vector<LaneWord> ff_words;
      for (const Net in : n.inputs()) lanes.set_word(in, in_words.emplace_back(rng.next()));
      for (const Net ff : n.flip_flops()) lanes.set_word(ff, ff_words.emplace_back(rng.next()));
      const auto drive_lane = [&](int j) {
        for (std::size_t i = 0; i < in_words.size(); ++i) {
          single.set_input(n.inputs()[i], ((in_words[i] >> j) & 1) != 0);
        }
        for (std::size_t i = 0; i < ff_words.size(); ++i) {
          single.set_word(n.flip_flops()[i],
                          ((ff_words[i] >> j) & 1) != 0 ? Simulator::kAllLanes : 0);
        }
      };
      lanes.eval();
      for (int j = 0; j < Simulator::kLanes; ++j) {
        drive_lane(j);
        single.eval();
        ASSERT_TRUE(lane_matches(lanes, j, single, n.gate_count()))
            << gen::to_string(tier) << " round " << round;
      }
      lanes.step();
      for (int j = 0; j < Simulator::kLanes; ++j) {
        drive_lane(j);
        single.step();
        ASSERT_TRUE(lane_matches(lanes, j, single, n.gate_count()))
            << gen::to_string(tier) << " round " << round << " after step";
      }
    }
  }
}

namespace {

/// Every net of `cone` reads `full`'s word in `part`; every other net reads 0.
::testing::AssertionResult cone_matches(const Simulator& part, const Simulator& full,
                                        const std::vector<char>& cone) {
  for (std::size_t i = 0; i < cone.size(); ++i) {
    const Net net = static_cast<Net>(i);
    const LaneWord want = cone[i] != 0 ? full.word(net) : 0;
    if (part.word(net) != want) {
      return ::testing::AssertionFailure()
             << "net " << i << (cone[i] != 0 ? " (in cone)" : " (outside)") << " reads "
             << part.word(net) << ", want " << want;
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace

TEST(LaneSimulator, ConeWalkMatchesTheFullWalk) {
  // The cone form against the every-net walk on the same writes: random and
  // generated netlists, the cone of a random output subset, lane-masked
  // faults inside and outside the cone, free-state flip-flop words, random
  // input words, several evals and clocks.
  auto rng = symbad::test::rng("lane_simulator_cone");
  std::vector<Netlist> netlists;
  for (const auto tier : kTiers) netlists.push_back(gen::generate_netlist(rng.next(), tier));
  for (int i = 0; i < 4; ++i) netlists.push_back(gen::random_netlist(rng, {5, 4, 60, 4, 0.25}));
  std::size_t partial = 0;
  for (const Netlist& n : netlists) {
    std::vector<Net> outputs;
    for (const auto& [name, net] : n.outputs()) outputs.push_back(net);
    ASSERT_FALSE(outputs.empty());
    for (int round = 0; round < 4; ++round) {
      std::vector<Net> roots;
      for (const Net out : outputs) {
        if ((rng.next() & 1) != 0) roots.push_back(out);
      }
      if (roots.empty()) roots.push_back(outputs[rng.below(outputs.size())]);
      const auto cone = n.cone_of_influence(roots);
      std::vector<Net> inside;
      std::vector<Net> outside;
      for (std::size_t i = 0; i < cone.size(); ++i) {
        (cone[i] != 0 ? inside : outside).push_back(static_cast<Net>(i));
      }
      if (!outside.empty()) ++partial;
      Simulator full{n};
      Simulator part{n, cone};
      for (const auto* sites : {&inside, &outside}) {
        for (std::uint64_t f = 0; f < 3 && !sites->empty(); ++f) {
          const Net site = (*sites)[rng.below(sites->size())];
          const bool stuck_to = (rng.next() & 1) != 0;
          const LaneWord lanes = rng.next();
          full.inject_stuck_at(site, stuck_to, lanes);
          part.inject_stuck_at(site, stuck_to, lanes);
        }
      }
      for (const Net ff : n.flip_flops()) {
        const LaneWord w = rng.next();
        full.set_word(ff, w);
        part.set_word(ff, w);
      }
      const std::string what =
          n.name() + " " + std::to_string(n.gate_count()) + " nets, round " + std::to_string(round);
      for (int cycle = 0; cycle < 5; ++cycle) {
        for (const Net in : n.inputs()) {
          const LaneWord w = rng.next();
          full.set_word(in, w);
          part.set_word(in, w);
        }
        full.eval();
        part.eval();
        ASSERT_TRUE(cone_matches(part, full, cone)) << what << " cycle " << cycle << " eval";
        full.step();
        part.step();
        ASSERT_TRUE(cone_matches(part, full, cone)) << what << " cycle " << cycle << " step";
      }
      // Unknown nets still throw; a net outside the cone that is no cut
      // point is still no cut point.
      const auto gates = static_cast<Net>(n.gate_count());
      for (const Net bad : {Net{-1}, gates}) {
        EXPECT_THROW((void)part.word(bad), std::out_of_range);
        EXPECT_THROW(part.set_word(bad, 1), std::invalid_argument);
        EXPECT_THROW(part.inject_stuck_at(bad, true), std::out_of_range);
      }
      for (const Net net : outside) {
        const auto kind = n.gate(net).kind;
        if (kind != rtl::GateKind::input && kind != rtl::GateKind::dff) {
          EXPECT_THROW(part.set_word(net, 1), std::invalid_argument) << what;
          break;
        }
      }
    }
  }
  EXPECT_GT(partial, 0u);
}

TEST(LaneSimulator, ConeMaskMustBeSizedAndClosedUnderFanIn) {
  Netlist n;
  const Net a = n.add_input("a");
  const Net ff = n.add_dff(false, "ff");
  const Net g = n.add_and(a, ff);
  n.connect_next(ff, g);
  n.set_output("y", g);
  EXPECT_THROW((Simulator{n, std::vector<char>(2, 1)}), std::invalid_argument);
  // The AND without its operand `a`; the flip-flop without its next state.
  EXPECT_THROW((Simulator{n, std::vector<char>{0, 1, 1}}), std::invalid_argument);
  EXPECT_THROW((Simulator{n, std::vector<char>{0, 1, 0}}), std::invalid_argument);
  const Simulator all{n, n.cone_of_influence({g})};
  EXPECT_EQ(all.word(g), 0u);
  const Simulator none{n, std::vector<char>(3, 0)};
  EXPECT_EQ(none.word(g), 0u);
}

TEST(LaneSimulator, SetWordRejectsNetsThatAreNotCutPoints) {
  Netlist n;
  const Net a = n.add_input("a");
  const Net g = n.add_not(a);
  Simulator sim{n};
  EXPECT_THROW(sim.set_word(g, 1), std::invalid_argument);
  EXPECT_THROW(sim.set_word(99, 1), std::invalid_argument);
  sim.set_word(a, 0b10);
  sim.eval();
  EXPECT_EQ(sim.word(g), ~LaneWord{0b10});
  EXPECT_TRUE(sim.value(g));  // lane 0 reads a = 0
}

// ---------------------------------------------------- word-op properties

class WordOpsRandom : public ::testing::TestWithParam<unsigned> {};

TEST_P(WordOpsRandom, ArithmeticMatchesReference) {
  auto rng = symbad::test::rng(GetParam());
  constexpr int kWidth = 12;
  const std::uint64_t mask = (1u << kWidth) - 1;

  Netlist n;
  const Word a = rtl::make_inputs(n, "a", kWidth);
  const Word b = rtl::make_inputs(n, "b", kWidth);
  const auto [sum, carry] = rtl::add(n, a, b);
  const auto [diff, no_borrow] = rtl::sub(n, a, b);
  const Net eq = rtl::equal(n, a, b);
  const Net lt = rtl::unsigned_less(n, a, b);
  const Net ge = rtl::unsigned_ge(n, a, b);
  const Word ad = rtl::absolute_difference(n, a, b);
  const Word shl = rtl::shift_left(n, a, 3);
  const Word shr = rtl::shift_right(n, a, 2);
  rtl::set_output_word(n, "sum", sum);
  n.set_output("carry", carry);
  rtl::set_output_word(n, "diff", diff);
  n.set_output("no_borrow", no_borrow);
  n.set_output("eq", eq);
  n.set_output("lt", lt);
  n.set_output("ge", ge);
  rtl::set_output_word(n, "ad", ad);
  rtl::set_output_word(n, "shl", shl);
  rtl::set_output_word(n, "shr", shr);

  Simulator sim{n};
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t va = rng.next() & mask;
    const std::uint64_t vb = rng.next() & mask;
    rtl::drive_word(sim, a, va);
    rtl::drive_word(sim, b, vb);
    sim.eval();
    EXPECT_EQ(rtl::read_word(sim, sum), (va + vb) & mask);
    EXPECT_EQ(sim.output("carry"), ((va + vb) >> kWidth) != 0);
    EXPECT_EQ(rtl::read_word(sim, diff), (va - vb) & mask);
    EXPECT_EQ(sim.output("no_borrow"), va >= vb);
    EXPECT_EQ(sim.output("eq"), va == vb);
    EXPECT_EQ(sim.output("lt"), va < vb);
    EXPECT_EQ(sim.output("ge"), va >= vb);
    EXPECT_EQ(rtl::read_word(sim, ad), va >= vb ? va - vb : vb - va);
    EXPECT_EQ(rtl::read_word(sim, shl), (va << 3) & mask);
    EXPECT_EQ(rtl::read_word(sim, shr), va >> 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WordOpsRandom, ::testing::Range(1u, 9u));

TEST(WordOps, WidthMismatchThrows) {
  Netlist n;
  const Word a = rtl::make_inputs(n, "a", 4);
  const Word b = rtl::make_inputs(n, "b", 5);
  EXPECT_THROW((void)rtl::add(n, a, b), std::invalid_argument);
}

TEST(WordOps, EqualConstant) {
  Netlist n;
  const Word a = rtl::make_inputs(n, "a", 6);
  n.set_output("is42", rtl::equal_constant(n, a, 42));
  Simulator sim{n};
  rtl::drive_word(sim, a, 42);
  sim.eval();
  EXPECT_TRUE(sim.output("is42"));
  rtl::drive_word(sim, a, 41);
  sim.eval();
  EXPECT_FALSE(sim.output("is42"));
}

// -------------------------------------------------------------- CNF

TEST(Cnf, CombinationalEquivalenceWithSimulator) {
  // Random circuit evaluated both ways must agree on the output.
  auto rng = symbad::test::rng(7);
  Netlist n;
  const Word a = rtl::make_inputs(n, "a", 8);
  const Word b = rtl::make_inputs(n, "b", 8);
  const auto [sum, carry] = rtl::add(n, a, b);
  (void)carry;
  const Net out = rtl::reduce_or(n, sum);
  n.set_output("y", out);

  Simulator sim{n};
  sat::Solver solver;
  rtl::CnfEncoder encoder{n, solver};
  rtl::CnfEncoder::Options opts;
  const rtl::Frame frame = encoder.encode(opts);

  for (int trial = 0; trial < 30; ++trial) {
    const std::uint64_t va = rng.next() & 0xFF;
    const std::uint64_t vb = rng.next() & 0xFF;
    rtl::drive_word(sim, a, va);
    rtl::drive_word(sim, b, vb);
    sim.eval();
    const bool expected = sim.output("y");

    std::vector<sat::Lit> assumptions;
    for (int i = 0; i < 8; ++i) {
      auto la = frame.lit(a.bit(i));
      auto lb = frame.lit(b.bit(i));
      assumptions.push_back(((va >> i) & 1) != 0 ? la : ~la);
      assumptions.push_back(((vb >> i) & 1) != 0 ? lb : ~lb);
    }
    assumptions.push_back(expected ? frame.lit(out) : ~frame.lit(out));
    EXPECT_EQ(solver.solve(assumptions), sat::Result::sat);
    assumptions.back() = ~assumptions.back();
    EXPECT_EQ(solver.solve(assumptions), sat::Result::unsat);
  }
}

TEST(Cnf, MiterOfIdenticalCircuitsIsUnsat) {
  // Two copies of an adder with shared inputs can never differ.
  Netlist n;
  const Word a = rtl::make_inputs(n, "a", 6);
  const Word b = rtl::make_inputs(n, "b", 6);
  const auto [sum, carry] = rtl::add(n, a, b);
  (void)carry;
  rtl::set_output_word(n, "s", sum);

  sat::Solver solver;
  rtl::CnfEncoder encoder{n, solver};
  rtl::CnfEncoder::Options opts1;
  const rtl::Frame f1 = encoder.encode(opts1);

  std::vector<sat::Lit> shared;
  for (const Net in : n.inputs()) shared.push_back(f1.lit(in));
  rtl::CnfEncoder::Options opts2;
  opts2.shared_inputs = &shared;
  const rtl::Frame f2 = encoder.encode(opts2);

  // Build the difference clause from the output literals:
  // diff_i <-> (o1_i XOR o2_i); assert OR(diff_i).
  std::vector<sat::Lit> diff_clause;
  for (int i = 0; i < sum.width(); ++i) {
    const sat::Var d = solver.new_var();
    const sat::Lit dl = sat::Lit::positive(d);
    const sat::Lit x = f1.lit(sum.bit(i));
    const sat::Lit y = f2.lit(sum.bit(i));
    solver.add_ternary(~dl, x, y);
    solver.add_ternary(~dl, ~x, ~y);
    solver.add_ternary(dl, ~x, y);
    solver.add_ternary(dl, x, ~y);
    diff_clause.push_back(dl);
  }
  solver.add_clause(diff_clause);
  EXPECT_EQ(solver.solve(), sat::Result::unsat);
}

TEST(Cnf, StuckAtFaultMakesMiterSat) {
  // A faulty copy of the circuit must be distinguishable from the good one.
  Netlist n;
  const Word a = rtl::make_inputs(n, "a", 4);
  const Word b = rtl::make_inputs(n, "b", 4);
  const auto [sum, carry] = rtl::add(n, a, b);
  (void)carry;
  rtl::set_output_word(n, "s", sum);

  sat::Solver solver;
  rtl::CnfEncoder encoder{n, solver};
  rtl::CnfEncoder::Options good_opts;
  const rtl::Frame good = encoder.encode(good_opts);

  std::vector<sat::Lit> shared;
  for (const Net in : n.inputs()) shared.push_back(good.lit(in));
  std::map<Net, bool> faults{{sum.bit(0), true}};  // stuck-at-1 on sum LSB
  rtl::CnfEncoder::Options bad_opts;
  bad_opts.shared_inputs = &shared;
  bad_opts.faults = &faults;
  const rtl::Frame bad = encoder.encode(bad_opts);

  std::vector<sat::Lit> diff_clause;
  for (int i = 0; i < sum.width(); ++i) {
    const sat::Var d = solver.new_var();
    const sat::Lit dl = sat::Lit::positive(d);
    const sat::Lit x = good.lit(sum.bit(i));
    const sat::Lit y = bad.lit(sum.bit(i));
    solver.add_ternary(~dl, x, y);
    solver.add_ternary(~dl, ~x, ~y);
    solver.add_ternary(dl, ~x, y);
    solver.add_ternary(dl, x, ~y);
    diff_clause.push_back(dl);
  }
  solver.add_clause(diff_clause);
  EXPECT_EQ(solver.solve(), sat::Result::sat);
}

TEST(Cnf, ChainedFramesModelSequentialBehaviour) {
  // 4-bit counter: after 5 chained frames the counter equals 5 (and cannot
  // equal anything else).
  const Netlist n = make_counter(4);
  sat::Solver solver;
  rtl::CnfEncoder encoder{n, solver};

  rtl::CnfEncoder::Options opts0;
  opts0.state = rtl::StateInit::reset;
  rtl::Frame frame = encoder.encode(opts0);
  for (int k = 0; k < 5; ++k) {
    rtl::CnfEncoder::Options opts;
    opts.state = rtl::StateInit::chained;
    opts.previous = &frame;
    frame = encoder.encode(opts);
  }
  // State bits of final frame must equal 5 = 0b0101.
  const auto& dffs = n.flip_flops();
  std::vector<sat::Lit> assumptions;
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    const sat::Lit l = frame.lit(dffs[i]);
    assumptions.push_back(((5u >> i) & 1) != 0 ? l : ~l);
  }
  EXPECT_EQ(solver.solve(assumptions), sat::Result::sat);
  assumptions[0] = ~assumptions[0];
  EXPECT_EQ(solver.solve(assumptions), sat::Result::unsat);
}

TEST(CnfChain, LazyChainMatchesManualUnrolling) {
  // The incremental chain API must model the same transition system as the
  // hand-chained encoding: after 5 frames from reset the counter equals 5.
  const Netlist n = make_counter(4);
  sat::Solver solver;
  rtl::CnfEncoder encoder{n, solver};
  encoder.begin_chain({});
  EXPECT_EQ(encoder.frame_count(), 0u);
  EXPECT_EQ(encoder.push_frame(), 0u);
  const auto& f5 = encoder.frame(5);  // lazily encodes frames 1..5
  EXPECT_EQ(encoder.frame_count(), 6u);

  const auto& dffs = n.flip_flops();
  std::vector<sat::Lit> assumptions;
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    const sat::Lit l = f5.lit(dffs[i]);
    assumptions.push_back(((5u >> i) & 1) != 0 ? l : ~l);
  }
  EXPECT_EQ(solver.solve(assumptions), sat::Result::sat);
  assumptions[0] = ~assumptions[0];
  EXPECT_EQ(solver.solve(assumptions), sat::Result::unsat);
}

TEST(CnfChain, ConditionalResetPinsStateOnlyUnderActivation) {
  // With conditional_reset, the same solver answers both questions: from
  // reset the counter's bit 0 is 0 at frame 0 (assume the literal); from an
  // arbitrary state it may be 1 (leave the literal free).
  const Netlist n = make_counter(4);
  sat::Solver solver;
  rtl::CnfEncoder encoder{n, solver};
  const sat::Lit act = sat::Lit::positive(solver.new_var());
  rtl::CnfEncoder::ChainOptions chain;
  chain.conditional_reset = act;
  encoder.begin_chain(chain);
  const sat::Lit bit0 = encoder.frame(0).lit(n.flip_flops()[0]);

  EXPECT_EQ(solver.solve({act, bit0}), sat::Result::unsat);   // reset: cnt[0]=0
  EXPECT_EQ(solver.solve({act, ~bit0}), sat::Result::sat);
  EXPECT_EQ(solver.solve({bit0}), sat::Result::sat);          // free state
  EXPECT_EQ(solver.solve({~bit0}), sat::Result::sat);
}

TEST(CnfChain, PushFrameBeforeBeginChainThrows) {
  const Netlist n = make_counter(2);
  sat::Solver solver;
  rtl::CnfEncoder encoder{n, solver};
  EXPECT_THROW((void)encoder.push_frame(), std::logic_error);
}

TEST(CnfChain, RestartRecyclesFrameStorage) {
  // begin_chain returns the previous chain's literal vectors to a pool and
  // encode draws from that pool, so restarting a chain — the steady state
  // of per-property model checking — reuses frame storage instead of
  // reallocating it, and the recycled frames must still encode the same
  // transition system.
  const Netlist n = make_counter(4);
  sat::Solver solver;
  rtl::CnfEncoder encoder{n, solver};
  encoder.begin_chain({});
  (void)encoder.frame(3);
  std::vector<const sat::Lit*> old_storage;
  for (std::size_t k = 0; k < encoder.frame_count(); ++k) {
    old_storage.push_back(encoder.frame(k).lits.data());
  }

  encoder.begin_chain({});
  EXPECT_EQ(encoder.frame_count(), 0u);
  // The pool is LIFO and the vectors already have netlist-sized capacity,
  // so the restarted chain's frame 0 lands in the last recycled buffer.
  EXPECT_EQ(encoder.frame(0).lits.data(), old_storage.back());

  // And the recycled chain still models the counter: 5 frames from reset
  // reach exactly 5.
  const auto& f5 = encoder.frame(5);
  const auto& dffs = n.flip_flops();
  std::vector<sat::Lit> assumptions;
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    const sat::Lit l = f5.lit(dffs[i]);
    assumptions.push_back(((5u >> i) & 1) != 0 ? l : ~l);
  }
  EXPECT_EQ(solver.solve(assumptions), sat::Result::sat);
  assumptions[0] = ~assumptions[0];
  EXPECT_EQ(solver.solve(assumptions), sat::Result::unsat);
}

// ------------------------------------------------------------ CNF folds

TEST(CnfFold, DecidedGatesAddNoVariableOrClause) {
  // One case per fold rule: the gate's literal is the deciding literal, and
  // the frame holds no variable beyond the true literal and the two inputs.
  enum class Want { zero, one, x, not_x, s, not_s };
  struct Case {
    const char* name;
    Net (*build)(Netlist&, Net x, Net s);
    Want want;
  };
  const Case cases[] = {
      {"x & 0", [](Netlist& n, Net x, Net) { return n.add_and(x, n.constant(false)); }, Want::zero},
      {"1 & x", [](Netlist& n, Net x, Net) { return n.add_and(n.constant(true), x); }, Want::x},
      {"x & x", [](Netlist& n, Net x, Net) { return n.add_and(x, x); }, Want::x},
      {"x & ~x", [](Netlist& n, Net x, Net) { return n.add_and(x, n.add_not(x)); }, Want::zero},
      {"x | 1", [](Netlist& n, Net x, Net) { return n.add_or(x, n.constant(true)); }, Want::one},
      {"0 | x", [](Netlist& n, Net x, Net) { return n.add_or(n.constant(false), x); }, Want::x},
      {"x | x", [](Netlist& n, Net x, Net) { return n.add_or(x, x); }, Want::x},
      {"~x | x", [](Netlist& n, Net x, Net) { return n.add_or(n.add_not(x), x); }, Want::one},
      {"x ^ 0", [](Netlist& n, Net x, Net) { return n.add_xor(x, n.constant(false)); }, Want::x},
      {"1 ^ x", [](Netlist& n, Net x, Net) { return n.add_xor(n.constant(true), x); }, Want::not_x},
      {"x ^ x", [](Netlist& n, Net x, Net) { return n.add_xor(x, x); }, Want::zero},
      {"x ^ ~x", [](Netlist& n, Net x, Net) { return n.add_xor(x, n.add_not(x)); }, Want::one},
      {"1 ? x : s",
       [](Netlist& n, Net x, Net s) { return n.add_mux(n.constant(true), x, s); }, Want::x},
      {"0 ? x : s",
       [](Netlist& n, Net x, Net s) { return n.add_mux(n.constant(false), x, s); }, Want::s},
      {"s ? x : x", [](Netlist& n, Net x, Net s) { return n.add_mux(s, x, x); }, Want::x},
      {"s ? 1 : 0",
       [](Netlist& n, Net, Net s) { return n.add_mux(s, n.constant(true), n.constant(false)); },
       Want::s},
      {"s ? 0 : 1",
       [](Netlist& n, Net, Net s) { return n.add_mux(s, n.constant(false), n.constant(true)); },
       Want::not_s},
  };
  for (const Case& c : cases) {
    Netlist n;
    const Net x = n.add_input("x");
    const Net s = n.add_input("s");
    const Net y = c.build(n, x, s);
    n.set_output("y", y);
    sat::Solver solver;
    rtl::CnfEncoder encoder{n, solver};
    const rtl::Frame frame = encoder.encode({});
    const sat::Lit t = encoder.true_lit();
    const sat::Lit want[] = {~t, t, frame.lit(x), ~frame.lit(x), frame.lit(s), ~frame.lit(s)};
    EXPECT_EQ(frame.lit(y), want[static_cast<int>(c.want)]) << c.name;
    EXPECT_EQ(solver.variable_count(), 3) << c.name;
    EXPECT_EQ(solver.problem_clause_count(), 0u) << c.name;
  }
}

TEST(CnfFold, RootFixedOperandCountsAsConstant) {
  // An operand the solver has fixed at the root folds like the constant it
  // equals: x & s = s and x ^ s = ~s once x is fixed true.
  Netlist n;
  const Net x = n.add_input("x");
  const Net s = n.add_input("s");
  n.set_output("and", n.add_and(x, s));
  n.set_output("xor", n.add_xor(x, s));
  sat::Solver solver;
  rtl::CnfEncoder encoder{n, solver};
  const std::vector<sat::Lit> inputs{sat::Lit::positive(solver.new_var()),
                                     sat::Lit::positive(solver.new_var())};
  solver.add_unit(inputs[0]);
  rtl::CnfEncoder::Options opts;
  opts.shared_inputs = &inputs;
  const rtl::Frame frame = encoder.encode(opts);
  EXPECT_EQ(frame.lit(n.output("and")), inputs[1]);
  EXPECT_EQ(frame.lit(n.output("xor")), ~inputs[1]);
  EXPECT_EQ(encoder.canonical(inputs[0]), encoder.true_lit());
  EXPECT_EQ(encoder.canonical(~inputs[0]), ~encoder.true_lit());
  EXPECT_EQ(encoder.canonical(inputs[1]), inputs[1]);
  EXPECT_EQ(solver.problem_clause_count(), 0u);
}

TEST(CnfFold, CounterFromResetEncodesToConstants) {
  // A free-running counter has no inputs: from reset every frame's every
  // literal is decided, so the chain holds no variable beyond the true
  // literal and no clause at all.
  const Netlist n = make_counter(4);
  sat::Solver solver;
  rtl::CnfEncoder encoder{n, solver};
  encoder.begin_chain({});
  const sat::Lit t = encoder.true_lit();
  for (std::size_t k = 0; k < 20; ++k) {
    const rtl::Frame& frame = encoder.frame(k);
    for (std::size_t i = 0; i < 4; ++i) {
      const bool bit = (((k % 16) >> i) & 1) != 0;
      EXPECT_EQ(frame.lit(n.flip_flops()[i]), bit ? t : ~t) << "frame " << k << " bit " << i;
    }
  }
  EXPECT_EQ(solver.variable_count(), 1);
  EXPECT_EQ(solver.problem_clause_count(), 0u);
}

TEST(CnfReuse, FaultSiteEqualToBaseAddsNoVariable) {
  // m = s ? r : y reads the register r, which is 0 at reset. A reuse frame
  // with r stuck-at-0 reads exactly what the base frame reads, so m takes
  // the base literal; the mux is not decided by its operands, so without
  // the reuse it would cost a fresh variable. Stuck-at-1 changes an
  // operand and pays for one gate; a fault on m itself overrides the
  // reuse even though m's operands match the base.
  Netlist n;
  const Net s = n.add_input("s");
  const Net y = n.add_input("y");
  const Net r = n.add_dff(false, "r");
  const Net m = n.add_mux(s, r, y);
  n.connect_next(r, m);
  n.set_output("m", m);
  sat::Solver solver;
  rtl::CnfEncoder encoder{n, solver};
  const rtl::ConeTracer tracer{n};
  const rtl::Frame base = encoder.encode({});
  std::vector<sat::Lit> shared;
  for (const Net in : n.inputs()) shared.push_back(base.lit(in));

  const auto encode_faulty = [&](Net site, bool stuck_to) {
    const std::map<Net, bool> faults{{site, stuck_to}};
    const auto cone = tracer.fault_cones(site, 1);
    rtl::CnfEncoder::Options opts;
    opts.shared_inputs = &shared;
    opts.faults = &faults;
    opts.cone = &cone[0];
    opts.reuse_base = &base;
    return encoder.encode(opts);
  };
  const int before = solver.variable_count();
  const rtl::Frame same = encode_faulty(r, false);
  EXPECT_EQ(same.lit(m), base.lit(m));
  EXPECT_EQ(solver.variable_count(), before);

  const rtl::Frame differs = encode_faulty(r, true);
  EXPECT_NE(differs.lit(m), base.lit(m));
  EXPECT_EQ(solver.variable_count(), before + 1);

  const rtl::Frame overridden = encode_faulty(m, true);
  EXPECT_EQ(overridden.lit(m), encoder.true_lit());
  EXPECT_EQ(solver.variable_count(), before + 1);
}

// ------------------------------------------------------- cone traversals

namespace {

/// Two independent halves sharing the inputs' namespace: a 1-bit toggle
/// register driving output "t", and a combinational AND driving output "y".
Netlist make_two_cone_netlist() {
  Netlist n{"twocone"};
  const Net en = n.add_input("en");
  const Net a = n.add_input("a");
  const Net b = n.add_input("b");
  const Net t = n.add_dff(false, "t");
  n.connect_next(t, n.add_xor(t, en));
  n.set_output("t", t);
  n.set_output("y", n.add_and(a, b));
  return n;
}

}  // namespace

TEST(Netlist, ConeOfInfluenceClosesOverRegisters) {
  const Netlist n = make_two_cone_netlist();
  const Net t = n.output("t");
  const auto cone = n.cone_of_influence({t});
  // The register pulls in its next-state XOR and the `en` input...
  EXPECT_NE(cone[static_cast<std::size_t>(t)], 0);
  EXPECT_NE(cone[static_cast<std::size_t>(n.input("en"))], 0);
  EXPECT_NE(cone[static_cast<std::size_t>(n.gate(t).a)], 0);
  // ...but not the unrelated combinational half.
  EXPECT_EQ(cone[static_cast<std::size_t>(n.input("a"))], 0);
  EXPECT_EQ(cone[static_cast<std::size_t>(n.input("b"))], 0);
  EXPECT_EQ(cone[static_cast<std::size_t>(n.output("y"))], 0);

  EXPECT_EQ(n.register_support({t}), std::vector<Net>{t});
  EXPECT_TRUE(n.register_support({n.output("y")}).empty());
}

TEST(Netlist, ConeTracerCrossesRegisterBoundaryForward) {
  // Forward fault cone of `en`: frame 0 reaches the XOR (next-state) but
  // not the register output; from frame 1 on the corruption has latched.
  const Netlist n = make_two_cone_netlist();
  const rtl::ConeTracer tracer{n};
  const Net t = n.output("t");
  const auto cones = tracer.fault_cones(n.input("en"), 3);
  ASSERT_EQ(cones.size(), 3u);
  EXPECT_EQ(cones[0][static_cast<std::size_t>(t)], 0);
  EXPECT_NE(cones[0][static_cast<std::size_t>(n.gate(t).a)], 0);
  EXPECT_NE(cones[1][static_cast<std::size_t>(t)], 0);
  EXPECT_NE(cones[2][static_cast<std::size_t>(t)], 0);
  // The unrelated AND half never enters the fault cone.
  for (const auto& frame : cones) {
    EXPECT_EQ(frame[static_cast<std::size_t>(n.output("y"))], 0);
  }
}

TEST(Netlist, ConeTracerRejectsFaultNetsOutsideTheNetlist) {
  const Netlist n = make_two_cone_netlist();
  const rtl::ConeTracer tracer{n};
  EXPECT_THROW((void)tracer.fault_cones(-1, 3), std::out_of_range);
  EXPECT_THROW((void)tracer.fault_cones(static_cast<Net>(n.gate_count()), 3),
               std::out_of_range);
  EXPECT_THROW((void)tracer.fault_cones(100000, 3), std::out_of_range);
  EXPECT_THROW((void)tracer.fault_cones(n.input("en"), -1), std::invalid_argument);
  EXPECT_TRUE(tracer.fault_cones(n.input("en"), 0).empty());
}

TEST(CnfChain, ConeRestrictionSkipsOutOfConeLogicAndPreservesBehaviour) {
  // A chain restricted to output "t"'s cone must answer reachability
  // questions about "t" identically to the full encoding while never
  // allocating variables for the unrelated AND half.
  const Netlist n = make_two_cone_netlist();
  const auto cone = n.cone_of_influence({n.output("t")});

  auto toggle_reachable = [&](const std::vector<char>* restrict_cone,
                              int& variables) {
    sat::Solver solver;
    rtl::CnfEncoder encoder{n, solver};
    rtl::CnfEncoder::ChainOptions chain;
    chain.cone = restrict_cone;
    encoder.begin_chain(chain);
    const sat::Lit t1 = encoder.frame(1).lit(n.output("t"));
    const bool can_be_high = solver.solve({t1}) == sat::Result::sat;
    const bool can_be_low = solver.solve({~t1}) == sat::Result::sat;
    variables = solver.variable_count();
    EXPECT_TRUE(can_be_high);  // en=1 toggles 0 -> 1
    EXPECT_TRUE(can_be_low);   // en=0 holds 0
    return std::make_pair(can_be_high, can_be_low);
  };

  int full_vars = 0;
  int cone_vars = 0;
  const auto full = toggle_reachable(nullptr, full_vars);
  const auto reduced = toggle_reachable(&cone, cone_vars);
  EXPECT_EQ(full, reduced);
  EXPECT_LT(cone_vars, full_vars);

  // Out-of-cone nets carry invalid literals — they were never encoded.
  sat::Solver solver;
  rtl::CnfEncoder encoder{n, solver};
  rtl::CnfEncoder::ChainOptions chain;
  chain.cone = &cone;
  encoder.begin_chain(chain);
  EXPECT_FALSE(encoder.frame(0).lit(n.output("y")).valid());
  EXPECT_TRUE(encoder.frame(0).lit(n.output("t")).valid());
}

TEST(Cnf, ReuseBaseWithoutConeThrows) {
  const Netlist n = make_two_cone_netlist();
  sat::Solver solver;
  rtl::CnfEncoder encoder{n, solver};
  const rtl::Frame base = encoder.encode({});
  rtl::CnfEncoder::Options opts;
  opts.reuse_base = &base;
  EXPECT_THROW((void)encoder.encode(opts), std::invalid_argument);
}
