#pragma once
// A CDCL SAT solver (MiniSat-family architecture).
//
// This is the formal engine behind the level-4 verification step of the
// Symbad flow (model checking via BMC / k-induction, paper §3.4) and the
// formal test-generation engine of the ATPG (paper §3.1). Features:
// two-watched-literal propagation with a dedicated binary-clause watch
// structure, 1-UIP clause learning with LBD ("glue") tracking, periodic
// learned-clause database reduction, VSIDS decision heuristic with an
// indexed heap, phase saving, Luby restarts, and incremental solving under
// assumptions (the clause database and learned clauses persist across
// `solve` calls, which is what the lazy BMC unrolling and the multi-fault
// ATPG engine build on).
//
// Clause storage is a single contiguous std::uint32_t arena: clauses are
// identified by 32-bit offsets (ClauseRef) instead of pointers, each clause
// is one packed header word followed by its literals inline, and learned-DB
// reduction can compact the arena in place (see docs/ARCHITECTURE.md,
// "Solver memory layout").

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace symbad::sat {

using Var = int;  // 0-based variable index

/// A literal: a variable with a polarity.
class Lit {
public:
  constexpr Lit() = default;
  constexpr Lit(Var v, bool negated) : code_{2 * v + (negated ? 1 : 0)} {}

  [[nodiscard]] static constexpr Lit positive(Var v) { return Lit{v, false}; }
  [[nodiscard]] static constexpr Lit negative(Var v) { return Lit{v, true}; }

  /// Rebuilds a literal from its `index()` encoding. The clause arena stores
  /// literals as raw std::uint32_t words; this is the sanctioned way to read
  /// them back without type-punning the arena storage.
  [[nodiscard]] static constexpr Lit from_index(int code) noexcept {
    Lit l;
    l.code_ = code;
    return l;
  }

  [[nodiscard]] constexpr Var var() const noexcept { return code_ >> 1; }
  [[nodiscard]] constexpr bool negated() const noexcept { return (code_ & 1) != 0; }
  [[nodiscard]] constexpr int index() const noexcept { return code_; }
  [[nodiscard]] constexpr bool valid() const noexcept { return code_ >= 0; }

  constexpr Lit operator~() const noexcept {
    Lit l;
    l.code_ = code_ ^ 1;
    return l;
  }
  constexpr bool operator==(const Lit&) const noexcept = default;

private:
  int code_ = -2;
};

enum class Value : std::uint8_t { false_value, true_value, undef };
enum class Result { sat, unsat, unknown };

/// Arena compaction policy, applied as part of learned-DB reduction.
/// Compaction is pure memory management: verdicts, models, and every
/// search statistic are bit-identical across all three modes, which is why
/// `never` and `always` serve as each other's reference in the tests.
enum class CompactMode : std::uint8_t { never, automatic, always };

/// CDCL solver. Add variables and clauses, then call `solve` (optionally
/// under assumptions); on `sat`, read the model with `model_value`.
class Solver {
public:
  struct Statistics {
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t restarts = 0;
    std::uint64_t learned_clauses = 0;  ///< total ever learned (incl. removed)
    std::uint64_t db_reductions = 0;    ///< learned-DB reduction passes
    std::uint64_t learned_removed = 0;  ///< learned clauses deleted by reduction
    std::uint64_t arena_compactions = 0;  ///< clause-arena compaction passes
  };

  /// Learned-clause database reduction policy. Binary learned clauses and
  /// clauses with LBD <= keep_lbd are never removed; the rest are reduced
  /// (worst glue first) whenever their count exceeds a limit that starts at
  /// `base` and grows by `increment` after every reduction pass.
  struct ReduceOptions {
    bool enabled = true;
    std::uint64_t base = 2000;
    std::uint64_t increment = 500;
    std::uint32_t keep_lbd = 2;
    /// Arena compaction runs at the end of a reduction pass when this mode
    /// says so: `always` compacts on every pass, `automatic` once dead words
    /// reach 1/4 of the arena (and at least 1024 words), `never` lets dead
    /// words accumulate.
    CompactMode compact = CompactMode::automatic;
  };

  Solver();
  ~Solver();
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Creates a fresh variable and returns it.
  Var new_var();
  [[nodiscard]] int variable_count() const noexcept;

  /// Adds a clause (disjunction). Returns false if the formula became
  /// trivially unsatisfiable (empty clause after simplification).
  bool add_clause(std::span<const Lit> literals);
  bool add_clause(std::initializer_list<Lit> literals) {
    return add_clause(std::span<const Lit>{literals.begin(), literals.size()});
  }
  /// Convenience unit / binary / ternary forms.
  bool add_unit(Lit a) { return add_clause({a}); }
  bool add_binary(Lit a, Lit b) { return add_clause({a, b}); }
  bool add_ternary(Lit a, Lit b, Lit c) { return add_clause({a, b, c}); }

  /// Solves the current formula under the given assumptions.
  Result solve(std::span<const Lit> assumptions = {});
  Result solve(std::initializer_list<Lit> assumptions) {
    return solve(std::span<const Lit>{assumptions.begin(), assumptions.size()});
  }

  /// Model access; only meaningful after `solve` returned `sat`.
  [[nodiscard]] bool model_value(Var v) const;

  /// Value of `v` fixed at decision level 0 (by unit clauses or root
  /// propagation), or Value::undef when the variable is still free there.
  /// Lets incremental users pin now-unconstrained variables (e.g. a retired
  /// ATPG miter cone) without tripping over already-implied ones.
  [[nodiscard]] Value root_value(Var v) const;

  [[nodiscard]] const Statistics& statistics() const noexcept;
  /// Counter deltas accumulated by the most recent `solve` call alone —
  /// lets incremental callers (per-bound BMC, per-fault ATPG) report e.g.
  /// conflicts/solve instead of a meaningless cumulative figure.
  [[nodiscard]] const Statistics& last_solve_statistics() const noexcept;

  /// Currently live learned clauses (total minus removed by reduction).
  [[nodiscard]] std::size_t learned_clause_count() const noexcept;

  /// Problem clauses of size >= 2 surviving `add_clause` simplification
  /// (units propagate immediately and are not stored). Deterministic for a
  /// fixed encoding, which makes it a hard-gateable benchmark counter and
  /// lets tests pin that re-encoding a cached expression adds nothing.
  [[nodiscard]] std::size_t problem_clause_count() const noexcept;

  void set_reduce_options(const ReduceOptions& options) noexcept;

  /// Clause-arena footprint: total words currently occupied (including dead
  /// words awaiting compaction) and the live subset, both in bytes. Both are
  /// deterministic for a fixed workload and compaction mode, which makes
  /// them hard-gateable benchmark counters.
  [[nodiscard]] std::size_t arena_bytes() const noexcept;
  [[nodiscard]] std::size_t arena_live_bytes() const noexcept;

  /// Upper bound on conflicts before giving up with Result::unknown
  /// (0 = unlimited).
  void set_conflict_budget(std::uint64_t conflicts) noexcept;

private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace symbad::sat
