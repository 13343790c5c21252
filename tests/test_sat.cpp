// Unit and property tests for the CDCL SAT solver (src/sat).

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sat/instances.hpp"
#include "sat/solver.hpp"
// Defines the counting operator new/delete — one including TU per binary.
#include "support/alloc_counter.hpp"
#include "support/test_util.hpp"

namespace sat = symbad::sat;
using sat::Lit;
using sat::Result;
using sat::Solver;
using sat::Var;

TEST(Sat, EmptyFormulaIsSat) {
  Solver s;
  EXPECT_EQ(s.solve(), Result::sat);
}

TEST(Sat, SingleUnit) {
  Solver s;
  const Var a = s.new_var();
  s.add_unit(Lit::positive(a));
  ASSERT_EQ(s.solve(), Result::sat);
  EXPECT_TRUE(s.model_value(a));
}

TEST(Sat, ContradictingUnitsAreUnsat) {
  Solver s;
  const Var a = s.new_var();
  s.add_unit(Lit::positive(a));
  EXPECT_FALSE(s.add_unit(Lit::negative(a)));
  EXPECT_EQ(s.solve(), Result::unsat);
}

TEST(Sat, ImplicationChainPropagates) {
  // a, a->b, b->c, ..., forces the last variable true.
  Solver s;
  constexpr int kLen = 50;
  std::vector<Var> v;
  for (int i = 0; i < kLen; ++i) v.push_back(s.new_var());
  s.add_unit(Lit::positive(v[0]));
  for (int i = 0; i + 1 < kLen; ++i) {
    s.add_binary(Lit::negative(v[static_cast<std::size_t>(i)]),
                 Lit::positive(v[static_cast<std::size_t>(i + 1)]));
  }
  ASSERT_EQ(s.solve(), Result::sat);
  for (int i = 0; i < kLen; ++i) EXPECT_TRUE(s.model_value(v[static_cast<std::size_t>(i)]));
}

TEST(Sat, TautologyIgnored) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  EXPECT_TRUE(s.add_clause({Lit::positive(a), Lit::negative(a)}));
  s.add_unit(Lit::positive(b));
  ASSERT_EQ(s.solve(), Result::sat);
}

TEST(Sat, DuplicateLiteralsCollapsed) {
  Solver s;
  const Var a = s.new_var();
  EXPECT_TRUE(s.add_clause({Lit::positive(a), Lit::positive(a), Lit::positive(a)}));
  ASSERT_EQ(s.solve(), Result::sat);
  EXPECT_TRUE(s.model_value(a));
}

TEST(Sat, PigeonholeUnsat) {
  // PHP(n+1, n): n+1 pigeons into n holes — classic UNSAT family.
  constexpr int kHoles = 4;
  constexpr int kPigeons = kHoles + 1;
  Solver s;
  std::vector<std::vector<Var>> x(kPigeons, std::vector<Var>(kHoles));
  for (auto& row : x) {
    for (auto& v : row) v = s.new_var();
  }
  for (int p = 0; p < kPigeons; ++p) {
    std::vector<Lit> clause;
    for (int h = 0; h < kHoles; ++h) {
      clause.push_back(Lit::positive(x[static_cast<std::size_t>(p)][static_cast<std::size_t>(h)]));
    }
    s.add_clause(clause);
  }
  for (int h = 0; h < kHoles; ++h) {
    for (int p1 = 0; p1 < kPigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < kPigeons; ++p2) {
        s.add_binary(
            Lit::negative(x[static_cast<std::size_t>(p1)][static_cast<std::size_t>(h)]),
            Lit::negative(x[static_cast<std::size_t>(p2)][static_cast<std::size_t>(h)]));
      }
    }
  }
  EXPECT_EQ(s.solve(), Result::unsat);
  EXPECT_GT(s.statistics().conflicts, 0u);
}

TEST(Sat, XorParityChainUnsat) {
  // x1 ^ x2 = 1, x2 ^ x3 = 1, ..., x_{n} ^ x1 = 1 with odd n is UNSAT.
  constexpr int kN = 7;
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < kN; ++i) v.push_back(s.new_var());
  auto add_xor_eq_1 = [&s](Var a, Var b) {
    // a ^ b = 1  <=>  (a | b) & (~a | ~b)
    s.add_binary(Lit::positive(a), Lit::positive(b));
    s.add_binary(Lit::negative(a), Lit::negative(b));
  };
  for (int i = 0; i < kN; ++i) {
    add_xor_eq_1(v[static_cast<std::size_t>(i)], v[static_cast<std::size_t>((i + 1) % kN)]);
  }
  EXPECT_EQ(s.solve(), Result::unsat);
}

TEST(Sat, AssumptionsAreIncremental) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_binary(Lit::positive(a), Lit::positive(b));  // a | b

  EXPECT_EQ(s.solve({Lit::negative(a)}), Result::sat);
  EXPECT_TRUE(s.model_value(b));
  EXPECT_EQ(s.solve({Lit::negative(b)}), Result::sat);
  EXPECT_TRUE(s.model_value(a));
  EXPECT_EQ(s.solve({Lit::negative(a), Lit::negative(b)}), Result::unsat);
  // The solver is still usable afterwards.
  EXPECT_EQ(s.solve(), Result::sat);
}

TEST(Sat, ConflictBudgetReturnsUnknown) {
  // A hard pigeonhole instance with a tiny budget must give up.
  constexpr int kHoles = 8;
  constexpr int kPigeons = kHoles + 1;
  Solver s;
  std::vector<std::vector<Var>> x(kPigeons, std::vector<Var>(kHoles));
  for (auto& row : x) {
    for (auto& v : row) v = s.new_var();
  }
  for (int p = 0; p < kPigeons; ++p) {
    std::vector<Lit> clause;
    for (int h = 0; h < kHoles; ++h) {
      clause.push_back(Lit::positive(x[static_cast<std::size_t>(p)][static_cast<std::size_t>(h)]));
    }
    s.add_clause(clause);
  }
  for (int h = 0; h < kHoles; ++h) {
    for (int p1 = 0; p1 < kPigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < kPigeons; ++p2) {
        s.add_binary(
            Lit::negative(x[static_cast<std::size_t>(p1)][static_cast<std::size_t>(h)]),
            Lit::negative(x[static_cast<std::size_t>(p2)][static_cast<std::size_t>(h)]));
      }
    }
  }
  s.set_conflict_budget(10);
  EXPECT_EQ(s.solve(), Result::unknown);
}

TEST(Sat, UnknownVariableThrows) {
  Solver s;
  (void)s.new_var();
  EXPECT_THROW(s.add_unit(Lit::positive(7)), std::out_of_range);
  EXPECT_THROW((void)s.model_value(7), std::out_of_range);
}

// ------------------------------------------------- clause-DB reduction

using sat::add_pigeonhole;  // shared generator (src/sat/instances.hpp)

namespace {

/// Every SatReduce.* instance runs with the default compaction and with a
/// compaction after every reduction pass, so each reducing instance also
/// drives the arena mover (under ASan and UBSan in CI).
constexpr sat::CompactMode kCompactModes[] = {sat::CompactMode::automatic,
                                              sat::CompactMode::always};

const char* compact_name(sat::CompactMode mode) {
  return mode == sat::CompactMode::always ? "compact always" : "compact automatic";
}

/// A reducing instance under CompactMode::always has compacted.
void expect_compacted_if_forced(const Solver& s, sat::CompactMode mode) {
  if (mode == sat::CompactMode::always && s.statistics().learned_removed > 0) {
    EXPECT_GT(s.statistics().arena_compactions, 0u);
  }
}

}  // namespace

TEST(SatReduce, LearnedClauseCountStaysBounded) {
  for (const auto compact : kCompactModes) {
    SCOPED_TRACE(compact_name(compact));
    Solver s;
    Solver::ReduceOptions opts;
    opts.base = 200;
    opts.increment = 100;
    opts.compact = compact;
    s.set_reduce_options(opts);
    add_pigeonhole(s, 7);
    ASSERT_EQ(s.solve(), Result::unsat);

    const auto& stats = s.statistics();
    EXPECT_GT(stats.conflicts, 1000u);
    EXPECT_GE(stats.db_reductions, 1u);
    EXPECT_GT(stats.learned_removed, 0u);
    // The live database stays far below the total ever learned ...
    EXPECT_LT(s.learned_clause_count(), stats.learned_clauses / 2);
    // ... and within the configured ceiling (plus glue/binary clauses, which
    // reduction deliberately never touches).
    EXPECT_LT(s.learned_clause_count(),
              opts.base + stats.db_reductions * opts.increment + stats.learned_clauses / 4);
    expect_compacted_if_forced(s, compact);
  }
}

TEST(SatReduce, VerdictsIdenticalWithReductionOnAndOff) {
  // Random instances near the phase transition, solved twice: reduction
  // disabled vs aggressive. The verdict must agree and every SAT model must
  // genuinely satisfy its formula.
  for (unsigned seed = 1; seed <= 12; ++seed) {
    auto rng = symbad::test::rng(seed * 131u);
    const int n = 30;
    const int m = 128;
    std::vector<std::vector<Lit>> clauses;
    for (int c = 0; c < m; ++c) {
      std::vector<Lit> clause;
      for (int k = 0; k < 3; ++k) {
        clause.push_back(Lit{static_cast<Var>(rng.below(static_cast<std::uint64_t>(n))),
                             (rng.next() & 1) != 0});
      }
      clauses.push_back(std::move(clause));
    }
    auto solve_with = [&](bool reduce_enabled, sat::CompactMode compact) {
      Solver s;
      Solver::ReduceOptions opts;
      opts.enabled = reduce_enabled;
      opts.base = 20;  // aggressive: reduce constantly when enabled
      opts.increment = 10;
      opts.compact = compact;
      s.set_reduce_options(opts);
      for (int i = 0; i < n; ++i) (void)s.new_var();
      for (const auto& clause : clauses) s.add_clause(clause);
      const Result r = s.solve();
      if (r == Result::sat) {
        for (const auto& clause : clauses) {
          bool satisfied = false;
          for (const Lit l : clause) {
            if (s.model_value(l.var()) != l.negated()) satisfied = true;
          }
          EXPECT_TRUE(satisfied) << "seed " << seed;
        }
      }
      expect_compacted_if_forced(s, compact);
      return r;
    };
    for (const auto compact : kCompactModes) {
      EXPECT_EQ(solve_with(false, compact), solve_with(true, compact))
          << "seed " << seed << " " << compact_name(compact);
    }
  }
}

TEST(SatReduce, DeletionWindowHasNoStaleReferences) {
  // ASan regression for reduce_db's deletion window: learned clauses are
  // freed while watch lists and reason slots hold references to clause
  // storage, and any stale entry surviving the eager detach/remap would be
  // dereferenced by the very next propagate. Reductions are forced as
  // often as possible (base=1, increment=0-ish) *between* conflicting
  // incremental solves, the access pattern where a stale reference has the
  // longest life: solve -> reduce -> solve must re-walk the watch lists
  // rebuilt by the previous round. Run under CI's ASan and UBSan builds
  // (scripts/ci.sh steps 5-7), a silent use-after-free here becomes loud.
  for (const auto compact : kCompactModes) {
    SCOPED_TRACE(compact_name(compact));
    Solver s;
    Solver::ReduceOptions opts;
    opts.base = 1;
    opts.increment = 1;
    opts.keep_lbd = 0;  // as aggressive as the policy allows
    opts.compact = compact;
    s.set_reduce_options(opts);
    const Var g1 = s.new_var();
    const Var g2 = s.new_var();
    add_pigeonhole(s, 5, Lit::positive(g1));
    add_pigeonhole(s, 6, Lit::positive(g2));
    for (int round = 0; round < 8; ++round) {
      switch (round % 4) {
        case 0:
          EXPECT_EQ(s.solve({Lit::negative(g1)}), Result::unsat) << round;
          break;
        case 1:
          ASSERT_EQ(s.solve({Lit::negative(g2), Lit::positive(g1)}), Result::unsat)
              << round;
          break;
        case 2:
          ASSERT_EQ(s.solve(), Result::sat) << round;
          EXPECT_TRUE(s.model_value(g1));
          EXPECT_TRUE(s.model_value(g2));
          break;
        default:
          // Add fresh clauses between solves so attach interleaves with the
          // torn-down DB, then query again.
          const Var extra = s.new_var();
          EXPECT_TRUE(s.add_ternary(Lit::positive(extra), Lit::positive(g1),
                                    Lit::positive(g2)));
          EXPECT_EQ(s.solve({Lit::negative(extra), Lit::negative(g1)}), Result::unsat)
              << round;
          break;
      }
    }
    EXPECT_GE(s.statistics().db_reductions, 2u);
    EXPECT_GT(s.statistics().learned_removed, 0u);
    expect_compacted_if_forced(s, compact);
  }
}

TEST(SatReduce, IncrementalSolvesStayCorrectUnderAggressiveReduction) {
  // A gated contradiction queried with rotating assumptions while the
  // reduction ceiling is as tight as it goes: every query must keep its
  // verdict even though the learned DB is being torn down continuously
  // between solves (binary and glue <= keep_lbd learned clauses are exempt
  // from deletion by design — deleting them would break the asserting-
  // reason invariants this sweep leans on).
  for (const auto compact : kCompactModes) {
    SCOPED_TRACE(compact_name(compact));
    Solver s;
    Solver::ReduceOptions opts;
    opts.base = 1;
    opts.increment = 1;
    opts.keep_lbd = 2;
    opts.compact = compact;
    s.set_reduce_options(opts);
    const Var g = s.new_var();
    add_pigeonhole(s, 6, Lit::positive(g));
    for (int round = 0; round < 6; ++round) {
      if (round % 2 == 0) {
        EXPECT_EQ(s.solve({Lit::negative(g)}), Result::unsat) << "round " << round;
      } else {
        ASSERT_EQ(s.solve(), Result::sat) << "round " << round;
        EXPECT_TRUE(s.model_value(g));
      }
    }
    EXPECT_GE(s.statistics().db_reductions, 1u);
    EXPECT_GT(s.statistics().learned_removed, 0u);
    expect_compacted_if_forced(s, compact);
  }
}

// ---------------------------------------------- incremental statistics

TEST(SatStats, PerSolveDeltasSumToCumulativeTotals) {
  // A pigeonhole contradiction gated behind `g`: UNSAT while assuming ~g,
  // SAT otherwise — the solver stays reusable across the whole sweep.
  Solver s;
  const Var g = s.new_var();
  add_pigeonhole(s, 5, Lit::positive(g));

  const auto base = s.statistics();  // add_clause-time propagations excluded
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t first_unsat_conflicts = 0;
  const Lit contradiction_on = Lit::negative(g);
  for (int round = 0; round < 4; ++round) {
    const Result expected = round % 2 == 0 ? Result::unsat : Result::sat;
    const Result r = round % 2 == 0 ? s.solve({contradiction_on}) : s.solve();
    EXPECT_EQ(r, expected) << "round " << round;
    const auto& delta = s.last_solve_statistics();
    if (round == 0) first_unsat_conflicts = delta.conflicts;
    conflicts += delta.conflicts;
    decisions += delta.decisions;
    propagations += delta.propagations;
  }
  EXPECT_EQ(conflicts, s.statistics().conflicts - base.conflicts);
  EXPECT_EQ(decisions, s.statistics().decisions - base.decisions);
  EXPECT_EQ(propagations, s.statistics().propagations - base.propagations);
  EXPECT_GT(first_unsat_conflicts, 0u);
  // Incremental reuse: refuting the same core the second time rides on the
  // learned clauses from the first refutation.
  EXPECT_LT(s.last_solve_statistics().conflicts, first_unsat_conflicts);
}

TEST(SatStats, RootConflictLatchesUnsatForever) {
  // Once a conflict is derived at decision level 0 the formula itself is
  // contradictory; every later incremental solve must stay unsat (this
  // regression guards the `ok` latch — without it a follow-up solve could
  // fabricate a model over the contradictory formula).
  Solver s;
  add_pigeonhole(s, 4);
  const Var free_var = s.new_var();
  EXPECT_EQ(s.solve(), Result::unsat);
  EXPECT_EQ(s.solve(), Result::unsat);
  EXPECT_EQ(s.solve({Lit::positive(free_var)}), Result::unsat);
  EXPECT_EQ(s.solve({Lit::negative(free_var)}), Result::unsat);
}

TEST(SatStats, RootValueReflectsRootAssignments) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  s.add_unit(Lit::positive(a));
  s.add_binary(Lit::negative(a), Lit::negative(b));  // a -> !b
  EXPECT_EQ(s.root_value(a), symbad::sat::Value::true_value);
  EXPECT_EQ(s.root_value(b), symbad::sat::Value::false_value);
  EXPECT_EQ(s.root_value(c), symbad::sat::Value::undef);
  EXPECT_THROW((void)s.root_value(99), std::out_of_range);
}

// ----------------------------------------------------------- properties

/// Random 3-SAT with a planted solution must be found satisfiable, and the
/// returned model must satisfy every clause.
class SatPlanted : public ::testing::TestWithParam<unsigned> {};

TEST_P(SatPlanted, PlantedInstanceSolvedAndModelValid) {
  auto rng = symbad::test::rng(GetParam());
  const int n = 40;
  const int m = 160;

  Solver s;
  std::vector<Var> vars;
  std::vector<bool> planted;
  for (int i = 0; i < n; ++i) {
    vars.push_back(s.new_var());
    planted.push_back((rng.next() & 1) != 0);
  }
  std::vector<std::vector<Lit>> clauses;
  for (int c = 0; c < m; ++c) {
    std::vector<Lit> clause;
    bool satisfied_by_planted = false;
    for (int k = 0; k < 3; ++k) {
      const int v = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
      const bool neg = (rng.next() & 1) != 0;
      clause.push_back(Lit{vars[static_cast<std::size_t>(v)], neg});
      if (planted[static_cast<std::size_t>(v)] != neg) satisfied_by_planted = true;
    }
    if (!satisfied_by_planted) {
      // Flip one literal's polarity so the planted assignment satisfies it.
      const auto v = clause[0].var();
      clause[0] = Lit{v, !planted[static_cast<std::size_t>(v)]};
    }
    s.add_clause(clause);
    clauses.push_back(std::move(clause));
  }

  ASSERT_EQ(s.solve(), Result::sat);
  for (const auto& clause : clauses) {
    bool satisfied = false;
    for (const Lit l : clause) {
      if (s.model_value(l.var()) != l.negated()) satisfied = true;
    }
    EXPECT_TRUE(satisfied);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatPlanted, ::testing::Range(1u, 33u));

/// Random instances near the phase transition: whatever the answer, a SAT
/// answer must come with a genuinely satisfying model (UNSAT answers are
/// trusted to the engine's soundness, which the planted suite exercises).
class SatRandomHard : public ::testing::TestWithParam<unsigned> {};

TEST_P(SatRandomHard, ModelsAreAlwaysValid) {
  auto rng = symbad::test::rng(GetParam() * 977u);
  const int n = 30;
  const int m = 128;  // ratio ~4.26: phase transition

  Solver s;
  std::vector<Var> vars;
  for (int i = 0; i < n; ++i) vars.push_back(s.new_var());
  std::vector<std::vector<Lit>> clauses;
  for (int c = 0; c < m; ++c) {
    std::vector<Lit> clause;
    for (int k = 0; k < 3; ++k) {
      clause.push_back(Lit{vars[rng.below(static_cast<std::uint64_t>(n))],
                           (rng.next() & 1) != 0});
    }
    s.add_clause(clause);
    clauses.push_back(std::move(clause));
  }
  const Result r = s.solve();
  if (r == Result::sat) {
    for (const auto& clause : clauses) {
      bool satisfied = false;
      for (const Lit l : clause) {
        if (s.model_value(l.var()) != l.negated()) satisfied = true;
      }
      EXPECT_TRUE(satisfied);
    }
  } else {
    EXPECT_EQ(r, Result::unsat);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatRandomHard, ::testing::Range(1u, 17u));

// ------------------------------------------------------- clause arena

namespace {

/// Everything observable about a fixed incremental workload: verdicts,
/// full models, per-solve conflict deltas, cumulative statistics, arena
/// footprint. Two runs that differ only in CompactMode must produce
/// identical records (up to the arena fields themselves).
struct ArenaRunRecord {
  std::vector<Result> verdicts;
  std::vector<std::vector<bool>> models;
  std::vector<std::uint64_t> per_solve_conflicts;
  Solver::Statistics final_stats;
  std::size_t arena_bytes = 0;
  std::size_t arena_live = 0;
};

/// Incremental workload with constant DB churn: two gated pigeonholes
/// queried under rotating assumptions with reduction forced every conflict,
/// then randomized 3-SAT blocks (below the phase transition, so the formula
/// stays satisfiable and the solver keeps learning) interleaved with more
/// assumption queries.
ArenaRunRecord run_arena_workload(sat::CompactMode mode) {
  ArenaRunRecord rec;
  Solver s;
  Solver::ReduceOptions opts;
  opts.base = 1;
  opts.increment = 1;
  opts.keep_lbd = 0;
  opts.compact = mode;
  s.set_reduce_options(opts);
  const Var g1 = s.new_var();
  const Var g2 = s.new_var();
  add_pigeonhole(s, 5, Lit::positive(g1));
  add_pigeonhole(s, 6, Lit::positive(g2));
  const auto record = [&](Result r) {
    rec.verdicts.push_back(r);
    rec.per_solve_conflicts.push_back(s.last_solve_statistics().conflicts);
    std::vector<bool> model;
    if (r == Result::sat) {
      for (Var v = 0; v < s.variable_count(); ++v) model.push_back(s.model_value(v));
    }
    rec.models.push_back(std::move(model));
  };
  for (int round = 0; round < 9; ++round) {
    switch (round % 3) {
      case 0: record(s.solve({Lit::negative(g1)})); break;
      case 1: record(s.solve({Lit::negative(g2), Lit::positive(g1)})); break;
      default: record(s.solve()); break;
    }
  }
  auto rng = symbad::test::rng(4242u);
  for (int block = 0; block < 4; ++block) {
    std::vector<Var> fresh;
    for (int i = 0; i < 20; ++i) fresh.push_back(s.new_var());
    for (int c = 0; c < 60; ++c) {  // ratio 3: satisfiable but conflict-rich
      std::array<Lit, 3> clause{};
      for (auto& l : clause) {
        l = Lit{fresh[rng.below(20)], (rng.next() & 1) != 0};
      }
      s.add_clause(clause);
    }
    record(s.solve());
    record(s.solve({Lit::negative(g1)}));
  }
  rec.final_stats = s.statistics();
  rec.arena_bytes = s.arena_bytes();
  rec.arena_live = s.arena_live_bytes();
  return rec;
}

/// Compares two workload records field by field, excluding only the arena
/// compaction counter (which is the one thing allowed to differ).
void expect_identical_runs(const ArenaRunRecord& a, const ArenaRunRecord& b) {
  EXPECT_EQ(a.verdicts, b.verdicts);
  EXPECT_EQ(a.models, b.models);
  EXPECT_EQ(a.per_solve_conflicts, b.per_solve_conflicts);
  EXPECT_EQ(a.final_stats.decisions, b.final_stats.decisions);
  EXPECT_EQ(a.final_stats.propagations, b.final_stats.propagations);
  EXPECT_EQ(a.final_stats.conflicts, b.final_stats.conflicts);
  EXPECT_EQ(a.final_stats.restarts, b.final_stats.restarts);
  EXPECT_EQ(a.final_stats.learned_clauses, b.final_stats.learned_clauses);
  EXPECT_EQ(a.final_stats.db_reductions, b.final_stats.db_reductions);
  EXPECT_EQ(a.final_stats.learned_removed, b.final_stats.learned_removed);
  // Live bytes are a function of the live clause set alone, so they must
  // agree even though total arena bytes may not.
  EXPECT_EQ(a.arena_live, b.arena_live);
}


}  // namespace

TEST(SatArena, CompactionForcedVsNeverIsBitIdentical) {
  // Compaction is pure memory management: forcing it on every reduction
  // pass must leave verdicts, models, per-solve conflict deltas and every
  // cumulative statistic bit-identical to never compacting at all. The
  // automatic mode sits between the two and must match as well.
  const auto never = run_arena_workload(sat::CompactMode::never);
  const auto always = run_arena_workload(sat::CompactMode::always);
  const auto automatic = run_arena_workload(sat::CompactMode::automatic);

  ASSERT_GT(never.final_stats.learned_removed, 0u);  // the workload churns
  EXPECT_EQ(never.final_stats.arena_compactions, 0u);
  EXPECT_GT(always.final_stats.arena_compactions, 0u);

  expect_identical_runs(never, always);
  expect_identical_runs(never, automatic);

  // Compacting can only shrink the arena, never grow it.
  EXPECT_LE(always.arena_bytes, never.arena_bytes);
  EXPECT_EQ(always.arena_bytes, always.arena_live);
}

TEST(SatArena, SteadyStateIncrementalSolvingDoesNotAllocate) {
  // The arena contract, pinned exactly: once a warm incremental solver has
  // grown every structure to its high-water capacity, further solve rounds
  // — including learned-DB reductions and forced compactions — touch the
  // allocator zero times. Clause storage is bump allocation in the arena,
  // compaction swaps two retained buffers, conflict analysis / reduction
  // use pooled scratch, and reduction sorts without stable_sort's
  // temporary buffer.
  Solver s;
  Solver::ReduceOptions opts;
  opts.base = 30;
  opts.increment = 0;
  opts.keep_lbd = 0;
  opts.compact = sat::CompactMode::always;
  s.set_reduce_options(opts);
  const Var g = s.new_var();
  add_pigeonhole(s, 5, Lit::positive(g));
  for (int round = 0; round < 12; ++round) {  // warm-up: reach capacity
    (void)(round % 2 == 0 ? s.solve({Lit::negative(g)}) : s.solve());
  }
  ASSERT_GT(s.statistics().db_reductions, 0u);
  ASSERT_GT(s.statistics().arena_compactions, 0u);

  std::array<Result, 8> results{};
  symbad::test_support::arm_allocation_counter();
  for (int round = 0; round < 8; ++round) {
    results[static_cast<std::size_t>(round)] =
        round % 2 == 0 ? s.solve({Lit::negative(g)}) : s.solve();
  }
  const auto allocations = symbad::test_support::disarm_allocation_counter();

  EXPECT_EQ(allocations, 0u);
  for (int round = 0; round < 8; ++round) {
    EXPECT_EQ(results[static_cast<std::size_t>(round)],
              round % 2 == 0 ? Result::unsat : Result::sat)
        << "round " << round;
  }
}

TEST(SatArena, AddClauseStaysOffTheAllocatorOnceWarm) {
  // Per-clause heap allocation is gone: adding thousands of clauses to a
  // warm solver costs only the amortised growth of the arena, the watch
  // lists and the clause-ref vector — a handful of vector doublings, not
  // one allocation per clause.
  Solver s;
  constexpr int kVars = 16;
  std::array<Var, kVars> vars{};
  for (auto& v : vars) v = s.new_var();
  const auto add_batch = [&](int offset, int count) {
    for (int i = offset; i < offset + count; ++i) {
      const Lit a{vars[static_cast<std::size_t>(i % kVars)], (i & 1) != 0};
      const Lit b{vars[static_cast<std::size_t>((i * 5 + 1) % kVars)], (i & 2) != 0};
      const Lit c{vars[static_cast<std::size_t>((i * 7 + 3) % kVars)], (i & 4) != 0};
      (void)s.add_ternary(a, b, c);
    }
  };
  constexpr int kBatch = 2000;
  add_batch(0, kBatch);  // warm-up: arena and watch lists grow
  const std::size_t warm_clauses = s.problem_clause_count();

  symbad::test_support::arm_allocation_counter();
  add_batch(kBatch, kBatch);
  const auto allocations = symbad::test_support::disarm_allocation_counter();

  EXPECT_GT(s.problem_clause_count(), warm_clauses + kBatch / 2);
  EXPECT_LT(allocations, 64u) << "for " << kBatch << " clauses";
}
