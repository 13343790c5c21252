#include "sat/solver.hpp"

#include "obs/obs.hpp"

#include <algorithm>
#include <stdexcept>

namespace symbad::sat {

namespace {

/// Luby restart sequence (1,1,2,1,1,2,4,...) scaled by the restart base.
std::uint64_t luby(std::uint64_t i) {
  // Find the finite subsequence containing index i, then the value.
  std::uint64_t size = 1;
  std::uint64_t seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i = i % size;
  }
  return std::uint64_t{1} << seq;
}

Solver::Statistics operator-(const Solver::Statistics& a, const Solver::Statistics& b) {
  Solver::Statistics d;
  d.decisions = a.decisions - b.decisions;
  d.propagations = a.propagations - b.propagations;
  d.conflicts = a.conflicts - b.conflicts;
  d.restarts = a.restarts - b.restarts;
  d.learned_clauses = a.learned_clauses - b.learned_clauses;
  d.db_reductions = a.db_reductions - b.db_reductions;
  d.learned_removed = a.learned_removed - b.learned_removed;
  d.arena_compactions = a.arena_compactions - b.arena_compactions;
  return d;
}

// Registry bridge for Statistics: solve() publishes its per-call delta, so
// registry totals equal the sum of every solver's work in the process. The
// search loop itself keeps counting into plain struct fields — the bridge
// adds one batch of Counter::add calls per solve(), not per propagation.
struct SatObs {
  obs::Counter solves;
  obs::Counter decisions;
  obs::Counter propagations;
  obs::Counter conflicts;
  obs::Counter restarts;
  obs::Counter learned_clauses;
  obs::Counter db_reductions;
  obs::Counter learned_removed;
  obs::Counter compactions;
};

const SatObs& sat_obs() {
  auto& registry = obs::Registry::instance();
  static const SatObs counters{
      registry.counter("sat.solves"),
      registry.counter("sat.decisions"),
      registry.counter("sat.propagations"),
      registry.counter("sat.conflicts"),
      registry.counter("sat.restarts"),
      registry.counter("sat.learned_clauses"),
      registry.counter("sat.db_reductions"),
      registry.counter("sat.learned_removed"),
      registry.counter("sat.compactions"),
  };
  return counters;
}

void publish_solve_delta(const Solver::Statistics& delta) {
  const SatObs& counters = sat_obs();
  counters.solves.inc();
  counters.decisions.add(delta.decisions);
  counters.propagations.add(delta.propagations);
  counters.conflicts.add(delta.conflicts);
  counters.restarts.add(delta.restarts);
  counters.learned_clauses.add(delta.learned_clauses);
  counters.db_reductions.add(delta.db_reductions);
  counters.learned_removed.add(delta.learned_removed);
  counters.compactions.add(delta.arena_compactions);
}

// ----------------------------------------------------------------- arena
// Clauses live in one contiguous std::uint32_t arena. A clause is a packed
// header word followed by its literals, stored inline as raw Lit::index()
// words:
//
//   [ header ][ lit 0 ][ lit 1 ] ... [ lit size-1 ]
//
//   header bits  0..19  size (20 bits, so a clause holds up to ~1M literals)
//   header bits 20..28  lbd, clamped to 511 (glue above that is
//                       indistinguishable anyway: reduction only ever
//                       compares glue values, and real glue tops out at the
//                       decision-level count)
//   header bit  29      learned
//   header bit  30      used_recently (touched by conflict analysis since
//                       the last reduction)
//   header bit  31      deleted (marked by reduce_db, erased right after)
//
// A ClauseRef is the word offset of the header — clause identity is a
// 32-bit integer, not a pointer, so watch lists, reasons, and the clause
// database survive arena reallocation and compaction without a fix-up pass
// over live pointers (refs are remapped wholesale during compaction
// instead). Tseitin clauses are <= 4 literals and dominate the database by
// count; at 5 words apiece the arena packs ~12 of them per cache line and
// clause construction is a bump allocation.
using ClauseRef = std::uint32_t;
constexpr ClauseRef kNullRef = 0xFFFFFFFFu;

constexpr std::uint32_t kSizeBits = 20;
constexpr std::uint32_t kSizeMask = (std::uint32_t{1} << kSizeBits) - 1;
constexpr std::uint32_t kLbdShift = kSizeBits;
constexpr std::uint32_t kLbdMax = (std::uint32_t{1} << 9) - 1;
constexpr std::uint32_t kLbdMask = kLbdMax << kLbdShift;
constexpr std::uint32_t kLearnedFlag = std::uint32_t{1} << 29;
constexpr std::uint32_t kUsedFlag = std::uint32_t{1} << 30;
constexpr std::uint32_t kDeletedFlag = std::uint32_t{1} << 31;

}  // namespace

struct Solver::Impl {
  struct Watcher {
    ClauseRef ref = kNullRef;
    Lit blocker;
  };
  /// Binary clauses get their own watch structure: the other literal is
  /// stored inline, so propagation over them never touches clause memory
  /// and the lists are never reshuffled.
  struct BinWatcher {
    Lit other;
    ClauseRef ref = kNullRef;
  };

  std::vector<std::uint32_t> arena;        // clause storage (see layout above)
  std::vector<std::uint32_t> spare_arena;  // retained compaction target buffer
  std::size_t dead_words = 0;              // words owned by deleted clauses
  std::vector<ClauseRef> clauses;  // problem clauses (add_clause), DB order
  std::vector<ClauseRef> learned;  // conflict-learned, reducible, DB order
  std::vector<std::vector<Watcher>> watches;        // index: literal that became false
  std::vector<std::vector<BinWatcher>> bin_watches; // same indexing, size-2 clauses
  std::vector<Value> assigns;
  std::vector<bool> phase;       // saved phase per var
  std::vector<int> level;
  std::vector<ClauseRef> reason;
  std::vector<double> activity;
  std::vector<char> seen;
  std::vector<std::uint32_t> level_stamp;  // per-level scratch for LBD counting
  std::uint32_t lbd_stamp = 0;
  std::vector<Lit> trail;
  std::vector<int> trail_lim;
  std::size_t qhead = 0;
  double var_inc = 1.0;
  static constexpr double kVarDecay = 0.95;
  bool ok = true;
  Statistics stats;
  Statistics last_solve_delta;
  ReduceOptions reduce_opts;
  std::size_t learned_live = 0;  ///< learned clauses currently in the DB
  std::size_t learned_long = 0;  ///< learned clauses of size >= 3 (reducible)
  std::uint64_t last_reduce_conflicts = ~std::uint64_t{0};
  std::uint64_t conflict_budget = 0;
  std::vector<bool> model;

  // Retained scratch: steady-state incremental solving must not allocate,
  // so per-conflict and per-reduction work buffers keep their capacity
  // across calls instead of living on the stack of search/analyze.
  std::vector<Lit> learnt_scratch;
  std::vector<Var> analyze_clear;
  std::vector<ClauseRef> reduce_candidates;

  // Indexed max-heap on activity.
  std::vector<Var> heap;
  std::vector<int> heap_pos;  // var -> heap index or -1

  // ------------------------------------------------------- clause access
  [[nodiscard]] std::uint32_t clause_size(ClauseRef r) const noexcept {
    return arena[r] & kSizeMask;
  }
  [[nodiscard]] std::uint32_t clause_lbd(ClauseRef r) const noexcept {
    return (arena[r] & kLbdMask) >> kLbdShift;
  }
  void set_clause_lbd(ClauseRef r, std::uint32_t lbd) noexcept {
    arena[r] = (arena[r] & ~kLbdMask) | (std::min(lbd, kLbdMax) << kLbdShift);
  }
  [[nodiscard]] Lit clause_lit(ClauseRef r, std::uint32_t i) const noexcept {
    return Lit::from_index(static_cast<int>(arena[r + 1 + i]));
  }

  ClauseRef alloc_clause(const Lit* lits, std::uint32_t n, bool is_learned) {
    if (n > kSizeMask) {
      throw std::length_error{"sat: clause exceeds arena header size field"};
    }
    if (arena.size() + n + 1 >= kNullRef) {
      throw std::length_error{"sat: clause arena exhausted"};
    }
    const auto ref = static_cast<ClauseRef>(arena.size());
    arena.push_back(n | (is_learned ? kLearnedFlag : 0u));
    for (std::uint32_t i = 0; i < n; ++i) {
      arena.push_back(static_cast<std::uint32_t>(lits[i].index()));
    }
    return ref;
  }

  // ------------------------------------------------------ basic state
  [[nodiscard]] Value lit_value(Lit l) const noexcept {
    const Value v = assigns[static_cast<std::size_t>(l.var())];
    if (v == Value::undef) return Value::undef;
    const bool truth = (v == Value::true_value) != l.negated();
    return truth ? Value::true_value : Value::false_value;
  }
  [[nodiscard]] Value word_value(std::uint32_t w) const noexcept {
    return lit_value(Lit::from_index(static_cast<int>(w)));
  }
  [[nodiscard]] int decision_level() const noexcept {
    return static_cast<int>(trail_lim.size());
  }

  // ---------------------------------------------------------- heap ops
  [[nodiscard]] bool heap_less(Var a, Var b) const noexcept {
    return activity[static_cast<std::size_t>(a)] > activity[static_cast<std::size_t>(b)];
  }
  void heap_swap(std::size_t i, std::size_t j) {
    std::swap(heap[i], heap[j]);
    heap_pos[static_cast<std::size_t>(heap[i])] = static_cast<int>(i);
    heap_pos[static_cast<std::size_t>(heap[j])] = static_cast<int>(j);
  }
  void heap_up(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!heap_less(heap[i], heap[parent])) break;
      heap_swap(i, parent);
      i = parent;
    }
  }
  void heap_down(std::size_t i) {
    for (;;) {
      const std::size_t l = 2 * i + 1;
      const std::size_t r = 2 * i + 2;
      std::size_t best = i;
      if (l < heap.size() && heap_less(heap[l], heap[best])) best = l;
      if (r < heap.size() && heap_less(heap[r], heap[best])) best = r;
      if (best == i) break;
      heap_swap(i, best);
      i = best;
    }
  }
  void heap_insert(Var v) {
    if (heap_pos[static_cast<std::size_t>(v)] >= 0) return;
    heap.push_back(v);
    heap_pos[static_cast<std::size_t>(v)] = static_cast<int>(heap.size() - 1);
    heap_up(heap.size() - 1);
  }
  Var heap_pop() {
    const Var v = heap.front();
    heap_swap(0, heap.size() - 1);
    heap.pop_back();
    heap_pos[static_cast<std::size_t>(v)] = -1;
    if (!heap.empty()) heap_down(0);
    return v;
  }
  void heap_bump(Var v) {
    const int pos = heap_pos[static_cast<std::size_t>(v)];
    if (pos >= 0) heap_up(static_cast<std::size_t>(pos));
  }

  void bump(Var v) {
    auto& a = activity[static_cast<std::size_t>(v)];
    a += var_inc;
    if (a > 1e100) {
      for (auto& x : activity) x *= 1e-100;
      var_inc *= 1e-100;
    }
    heap_bump(v);
  }
  void decay() noexcept { var_inc /= kVarDecay; }

  void attach(ClauseRef c) {
    const Lit l0 = clause_lit(c, 0);
    const Lit l1 = clause_lit(c, 1);
    if (clause_size(c) == 2) {
      bin_watches[static_cast<std::size_t>(l0.index())].push_back(BinWatcher{l1, c});
      bin_watches[static_cast<std::size_t>(l1.index())].push_back(BinWatcher{l0, c});
      return;
    }
    watches[static_cast<std::size_t>(l0.index())].push_back(Watcher{c, l1});
    watches[static_cast<std::size_t>(l1.index())].push_back(Watcher{c, l0});
  }

  /// Removes the (size >= 3) clause from both watch lists it occupies.
  /// `propagate` keeps lits[0]/lits[1] as the watched pair at all times.
  void detach(ClauseRef c) {
    for (std::uint32_t w = 0; w < 2; ++w) {
      auto& ws = watches[static_cast<std::size_t>(clause_lit(c, w).index())];
      for (auto& entry : ws) {
        if (entry.ref == c) {
          entry = ws.back();
          ws.pop_back();
          break;
        }
      }
    }
  }

  /// A clause that is the reason of its asserting (first) literal cannot be
  /// removed while that literal is assigned.
  [[nodiscard]] bool locked(ClauseRef c) const noexcept {
    const Var v = clause_lit(c, 0).var();
    return reason[static_cast<std::size_t>(v)] == c &&
           assigns[static_cast<std::size_t>(v)] != Value::undef;
  }

  void enqueue(Lit p, ClauseRef from) {
    assigns[static_cast<std::size_t>(p.var())] =
        p.negated() ? Value::false_value : Value::true_value;
    level[static_cast<std::size_t>(p.var())] = decision_level();
    reason[static_cast<std::size_t>(p.var())] = from;
    trail.push_back(p);
  }

  // -------------------------------------------------------- propagate
  ClauseRef propagate() {
    ClauseRef conflict = kNullRef;
    while (qhead < trail.size()) {
      const Lit p = trail[qhead++];
      ++stats.propagations;
      const Lit fl = ~p;  // literal that just became false
      // Binary clauses first: cheap, and they find conflicts early.
      for (const BinWatcher& bw : bin_watches[static_cast<std::size_t>(fl.index())]) {
        const Value v = lit_value(bw.other);
        if (v == Value::true_value) continue;
        if (v == Value::false_value) {
          conflict = bw.ref;
          qhead = trail.size();
          break;
        }
        enqueue(bw.other, bw.ref);
      }
      if (conflict != kNullRef) break;
      auto& ws = watches[static_cast<std::size_t>(fl.index())];
      const auto flw = static_cast<std::uint32_t>(fl.index());
      std::size_t i = 0;
      std::size_t j = 0;
      while (i < ws.size()) {
        const Watcher w = ws[i];
        if (lit_value(w.blocker) == Value::true_value) {
          ws[j++] = ws[i++];
          continue;
        }
        // No allocation happens inside this loop (watch pushes reuse
        // capacity or grow amortised), so the raw word pointer into the
        // arena stays valid for the whole clause inspection.
        const std::uint32_t csize = clause_size(w.ref);
        std::uint32_t* cw = arena.data() + w.ref + 1;
        if (cw[0] == flw) std::swap(cw[0], cw[1]);
        // invariant: cw[1] == flw
        const Lit first = Lit::from_index(static_cast<int>(cw[0]));
        if (lit_value(first) == Value::true_value) {
          ws[j++] = Watcher{w.ref, first};
          ++i;
          continue;
        }
        bool moved = false;
        for (std::uint32_t k = 2; k < csize; ++k) {
          if (word_value(cw[k]) != Value::false_value) {
            std::swap(cw[1], cw[k]);
            watches[static_cast<std::size_t>(cw[1])].push_back(Watcher{w.ref, first});
            moved = true;
            break;
          }
        }
        if (moved) {
          ++i;  // watcher removed from this list
          continue;
        }
        // Clause is unit or conflicting.
        ws[j++] = Watcher{w.ref, first};
        ++i;
        if (lit_value(first) == Value::false_value) {
          conflict = w.ref;
          qhead = trail.size();
          while (i < ws.size()) ws[j++] = ws[i++];
        } else {
          enqueue(first, w.ref);
        }
      }
      ws.resize(j);
      if (conflict != kNullRef) break;
    }
    return conflict;
  }

  // ---------------------------------------------------------- analyze
  void analyze(ClauseRef conflict, std::vector<Lit>& out_learnt, int& out_bt_level) {
    out_learnt.clear();
    out_learnt.push_back(Lit{});  // slot for the asserting literal
    auto& to_clear = analyze_clear;
    to_clear.clear();
    int path_count = 0;
    Lit p;  // invalid
    std::size_t index = trail.size();

    for (;;) {
      arena[conflict] |= kUsedFlag;
      const std::uint32_t csize = clause_size(conflict);
      for (std::uint32_t qi = 0; qi < csize; ++qi) {
        const Lit q = clause_lit(conflict, qi);
        if (p.valid() && q == p) continue;
        const Var v = q.var();
        if (seen[static_cast<std::size_t>(v)] == 0 &&
            level[static_cast<std::size_t>(v)] > 0) {
          seen[static_cast<std::size_t>(v)] = 1;
          to_clear.push_back(v);
          bump(v);
          if (level[static_cast<std::size_t>(v)] >= decision_level()) {
            ++path_count;
          } else {
            out_learnt.push_back(q);
          }
        }
      }
      while (seen[static_cast<std::size_t>(trail[index - 1].var())] == 0) --index;
      p = trail[index - 1];
      --index;
      seen[static_cast<std::size_t>(p.var())] = 0;
      --path_count;
      if (path_count <= 0) break;
      conflict = reason[static_cast<std::size_t>(p.var())];
    }
    out_learnt[0] = ~p;

    if (out_learnt.size() == 1) {
      out_bt_level = 0;
    } else {
      std::size_t max_i = 1;
      for (std::size_t i = 2; i < out_learnt.size(); ++i) {
        if (level[static_cast<std::size_t>(out_learnt[i].var())] >
            level[static_cast<std::size_t>(out_learnt[max_i].var())]) {
          max_i = i;
        }
      }
      std::swap(out_learnt[1], out_learnt[max_i]);
      out_bt_level = level[static_cast<std::size_t>(out_learnt[1].var())];
    }
    for (const Var v : to_clear) seen[static_cast<std::size_t>(v)] = 0;
  }

  /// Number of distinct decision levels in the learnt clause ("glue").
  [[nodiscard]] std::uint32_t compute_lbd(const std::vector<Lit>& learnt) {
    ++lbd_stamp;
    std::uint32_t count = 0;
    for (const Lit l : learnt) {
      const auto lv = static_cast<std::size_t>(level[static_cast<std::size_t>(l.var())]);
      if (lv >= level_stamp.size()) level_stamp.resize(lv + 1, 0);
      if (level_stamp[lv] != lbd_stamp) {
        level_stamp[lv] = lbd_stamp;
        ++count;
      }
    }
    return count;
  }

  void backtrack(int target_level) {
    if (decision_level() <= target_level) return;
    const std::size_t bound =
        static_cast<std::size_t>(trail_lim[static_cast<std::size_t>(target_level)]);
    for (std::size_t c = trail.size(); c > bound; --c) {
      const Var v = trail[c - 1].var();
      phase[static_cast<std::size_t>(v)] = !trail[c - 1].negated();
      assigns[static_cast<std::size_t>(v)] = Value::undef;
      reason[static_cast<std::size_t>(v)] = kNullRef;
      heap_insert(v);
    }
    trail.resize(bound);
    trail_lim.resize(static_cast<std::size_t>(target_level));
    qhead = bound;
  }

  // --------------------------------------------------------- reduce DB
  /// Deletes the worst half of the removable learned clauses: size >= 3,
  /// glue above keep_lbd, not locked as a reason, not used by conflict
  /// analysis since the previous reduction (those get one pass of grace).
  /// Must run at decision level 0 so reasons above the root are gone.
  /// Learned clauses live in their own ref vector, so the pass never
  /// touches the (much larger) problem-clause database.
  ///
  /// Deletion marks the clause header and drops the ref from `learned`;
  /// the words stay in the arena as dead weight until compaction reclaims
  /// them. The old lifetime hazard of this window — watch lists and reason
  /// slots holding raw Clause pointers into freed heap blocks, kept
  /// correct only by convention — is gone structurally: nothing is freed
  /// here, a stale ref would read an arena word rather than freed memory,
  /// and `detach` (eager, both lists) plus the level-0 precondition
  /// (backtrack nulled every above-root reason; root reasons are `locked`,
  /// their asserting literal can never equal the false literal that
  /// triggers the watch swap, so it stays at lits[0]; binaries are never
  /// candidates) keep the window exact. test_sat still pins the window
  /// under ASan with reductions forced between conflicting incremental
  /// solves, which now also guards the compaction remap.
  void reduce_db() {
    ++stats.db_reductions;
    last_reduce_conflicts = stats.conflicts;
    auto& candidates = reduce_candidates;
    candidates.clear();
    for (const ClauseRef c : learned) {
      if (clause_size(c) < 3) continue;
      if (clause_lbd(c) <= reduce_opts.keep_lbd) continue;
      if (locked(c)) continue;
      if ((arena[c] & kUsedFlag) != 0) {
        arena[c] &= ~kUsedFlag;
        continue;
      }
      candidates.push_back(c);
    }
    // Deterministic order without stable_sort's temporary buffer: refs are
    // allocated monotonically and compaction preserves relative order, so
    // the ref tiebreak IS clause-DB order — the exact order the previous
    // stable sort kept for ties.
    std::sort(candidates.begin(), candidates.end(), [this](ClauseRef a, ClauseRef b) {
      const std::uint32_t la = clause_lbd(a);
      const std::uint32_t lb = clause_lbd(b);
      if (la != lb) return la > lb;
      const std::uint32_t sa = clause_size(a);
      const std::uint32_t sb = clause_size(b);
      if (sa != sb) return sa > sb;
      return a < b;
    });
    const std::size_t to_remove = candidates.size() / 2;
    for (std::size_t i = 0; i < to_remove; ++i) {
      const ClauseRef c = candidates[i];
      detach(c);
      arena[c] |= kDeletedFlag;
      dead_words += clause_size(c) + 1;
      --learned_live;
      --learned_long;
      ++stats.learned_removed;
    }
    if (to_remove > 0) {
      std::erase_if(learned,
                    [this](ClauseRef c) { return (arena[c] & kDeletedFlag) != 0; });
    }
    maybe_compact();
  }

  /// Compacts the arena when the CompactMode says so. Relocation
  /// copies live clauses into the retained spare buffer in DB order
  /// (problem clauses, then learned), parks the forward address in the old
  /// first-literal slot, remaps every watcher / binary watcher / reason
  /// ref, and swaps the buffers — so steady-state compaction allocates
  /// nothing and the refs stay in DB order, which the reduction tiebreak
  /// above relies on. Pure memory management: search behaviour and every
  /// non-arena statistic are bit-identical across modes.
  void maybe_compact() {
    const CompactMode mode = reduce_opts.compact;
    if (mode == CompactMode::never) return;
    if (dead_words == 0) return;  // relocation would be the identity
    if (mode == CompactMode::automatic &&
        (dead_words < 1024 || dead_words * 4 < arena.size())) {
      return;
    }
    spare_arena.clear();
    spare_arena.reserve(arena.size() - dead_words);
    const auto relocate = [this](ClauseRef& ref) {
      const std::uint32_t n = arena[ref] & kSizeMask;
      const auto fresh = static_cast<ClauseRef>(spare_arena.size());
      for (std::uint32_t w = 0; w < n + 1; ++w) spare_arena.push_back(arena[ref + w]);
      arena[ref + 1] = fresh;  // forward address for the remap below
      ref = fresh;
    };
    for (ClauseRef& c : clauses) relocate(c);
    for (ClauseRef& c : learned) relocate(c);
    const auto forward = [this](ClauseRef old) { return arena[old + 1]; };
    for (auto& ws : watches) {
      for (auto& w : ws) w.ref = forward(w.ref);
    }
    for (auto& ws : bin_watches) {
      for (auto& bw : ws) bw.ref = forward(bw.ref);
    }
    for (auto& r : reason) {
      if (r != kNullRef) r = forward(r);
    }
    std::swap(arena, spare_arena);
    dead_words = 0;
    ++stats.arena_compactions;
  }

  [[nodiscard]] std::uint64_t reduce_limit() const noexcept {
    return reduce_opts.base + stats.db_reductions * reduce_opts.increment;
  }

  // ------------------------------------------------------------ search
  Result search(std::span<const Lit> assumptions) {
    const std::uint64_t start_conflicts = stats.conflicts;
    std::uint64_t restart_seq = 0;
    std::uint64_t restart_limit = 100 * luby(restart_seq);
    std::uint64_t conflicts_since_restart = 0;
    auto& learnt = learnt_scratch;

    for (;;) {
      const ClauseRef conflict = propagate();
      if (conflict != kNullRef) {
        ++stats.conflicts;
        ++conflicts_since_restart;
        if (decision_level() == 0) {
          // Root conflict: the formula itself is contradictory, independent
          // of any assumptions. Without clearing `ok`, a later incremental
          // solve would skip the already-propagated root trail (qhead) and
          // could fabricate a model over the contradictory formula.
          ok = false;
          return Result::unsat;
        }
        int bt_level = 0;
        analyze(conflict, learnt, bt_level);
        backtrack(bt_level);
        if (learnt.size() == 1) {
          enqueue(learnt[0], kNullRef);
        } else {
          const ClauseRef ref =
              alloc_clause(learnt.data(), static_cast<std::uint32_t>(learnt.size()),
                           /*is_learned=*/true);
          set_clause_lbd(ref, compute_lbd(learnt));
          arena[ref] |= kUsedFlag;
          attach(ref);
          enqueue(learnt[0], ref);
          ++learned_live;
          if (learnt.size() >= 3) ++learned_long;
          learned.push_back(ref);
          ++stats.learned_clauses;
        }
        decay();
        if (conflict_budget != 0 &&
            stats.conflicts - start_conflicts >= conflict_budget) {
          backtrack(0);
          return Result::unknown;
        }
      } else {
        if (reduce_opts.enabled && learned_long >= reduce_limit() &&
            stats.conflicts != last_reduce_conflicts) {
          // Restart to the root so no reason above level 0 pins a clause,
          // then shrink the learned DB. Assumptions re-assert below.
          backtrack(0);
          reduce_db();
          continue;
        }
        if (conflicts_since_restart >= restart_limit &&
            decision_level() > static_cast<int>(assumptions.size())) {
          ++stats.restarts;
          ++restart_seq;
          restart_limit = 100 * luby(restart_seq);
          conflicts_since_restart = 0;
          backtrack(static_cast<int>(assumptions.size()));
          continue;
        }
        Lit next;
        // Re-assert assumptions as the first decisions.
        while (decision_level() < static_cast<int>(assumptions.size())) {
          const Lit a = assumptions[static_cast<std::size_t>(decision_level())];
          if (lit_value(a) == Value::true_value) {
            trail_lim.push_back(static_cast<int>(trail.size()));  // dummy level
          } else if (lit_value(a) == Value::false_value) {
            return Result::unsat;  // assumptions contradictory with formula
          } else {
            next = a;
            break;
          }
        }
        if (!next.valid()) {
          while (!heap.empty()) {
            const Var v = heap_pop();
            if (assigns[static_cast<std::size_t>(v)] == Value::undef) {
              next = Lit{v, !phase[static_cast<std::size_t>(v)]};
              break;
            }
          }
        }
        if (!next.valid()) {
          // Complete assignment: satisfying model.
          model.assign(assigns.size(), false);
          for (std::size_t v = 0; v < assigns.size(); ++v) {
            model[v] = assigns[v] == Value::true_value;
          }
          return Result::sat;
        }
        ++stats.decisions;
        trail_lim.push_back(static_cast<int>(trail.size()));
        enqueue(next, kNullRef);
      }
    }
  }
};

Solver::Solver() : impl_{std::make_unique<Impl>()} {}
Solver::~Solver() = default;

Var Solver::new_var() {
  auto& s = *impl_;
  const Var v = static_cast<Var>(s.assigns.size());
  s.assigns.push_back(Value::undef);
  s.phase.push_back(false);
  s.level.push_back(0);
  s.reason.push_back(kNullRef);
  s.activity.push_back(0.0);
  s.seen.push_back(0);
  s.watches.emplace_back();
  s.watches.emplace_back();
  s.bin_watches.emplace_back();
  s.bin_watches.emplace_back();
  s.heap_pos.push_back(-1);
  s.heap_insert(v);
  return v;
}

int Solver::variable_count() const noexcept {
  return static_cast<int>(impl_->assigns.size());
}

bool Solver::add_clause(std::span<const Lit> literals) {
  auto& s = *impl_;
  if (!s.ok) return false;
  if (s.decision_level() != 0) {
    throw std::logic_error{"sat: add_clause during search"};
  }
  // Tseitin encoding calls this with millions of <= 4-literal clauses, so
  // sort + simplify run in a stack buffer (insertion sort, tiny N) and the
  // surviving clause is a bump allocation in the arena — zero per-clause
  // heap traffic once the arena has reached its high-water capacity.
  constexpr std::size_t kSmall = 16;
  Lit small[kSmall];
  std::vector<Lit> large;
  Lit* lits = small;
  if (literals.size() > kSmall) {
    large.assign(literals.begin(), literals.end());
    lits = large.data();
  } else {
    std::copy(literals.begin(), literals.end(), small);
  }
  const std::size_t n = literals.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Lit l = lits[i];
    if (!l.valid() || l.var() >= variable_count()) {
      throw std::out_of_range{"sat: clause references unknown variable"};
    }
  }
  if (n <= kSmall) {
    // Insertion sort: optimal for the <= 4-literal Tseitin fast path.
    for (std::size_t i = 1; i < n; ++i) {
      const Lit l = lits[i];
      std::size_t j = i;
      while (j > 0 && lits[j - 1].index() > l.index()) {
        lits[j] = lits[j - 1];
        --j;
      }
      lits[j] = l;
    }
  } else {
    std::sort(lits, lits + n, [](Lit a, Lit b) { return a.index() < b.index(); });
  }
  // Simplify: drop duplicates / root-false literals; detect tautology and
  // root-satisfied clauses.
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Lit l = lits[i];
    if (count > 0 && lits[count - 1] == l) continue;
    if (count > 0 && lits[count - 1] == ~l) return true;  // tautology
    const Value v = s.lit_value(l);
    if (v == Value::true_value) return true;  // already satisfied at root
    if (v == Value::false_value) continue;    // root-false literal dropped
    lits[count++] = l;
  }
  if (count == 0) {
    s.ok = false;
    return false;
  }
  if (count == 1) {
    s.enqueue(lits[0], kNullRef);
    if (s.propagate() != kNullRef) {
      s.ok = false;
      return false;
    }
    return true;
  }
  const ClauseRef ref =
      s.alloc_clause(lits, static_cast<std::uint32_t>(count), /*is_learned=*/false);
  s.attach(ref);
  s.clauses.push_back(ref);
  return true;
}

Result Solver::solve(std::span<const Lit> assumptions) {
  auto& s = *impl_;
  const Statistics before = s.stats;
  if (!s.ok) {
    s.last_solve_delta = Statistics{};
    publish_solve_delta(s.last_solve_delta);
    return Result::unsat;
  }
  for (const Lit l : assumptions) {
    if (!l.valid() || l.var() >= variable_count()) {
      throw std::out_of_range{"sat: assumption references unknown variable"};
    }
  }
  s.backtrack(0);
  if (s.propagate() != kNullRef) {
    s.ok = false;
    s.last_solve_delta = s.stats - before;
    publish_solve_delta(s.last_solve_delta);
    return Result::unsat;
  }
  const Result result = s.search(assumptions);
  s.backtrack(0);
  s.last_solve_delta = s.stats - before;
  publish_solve_delta(s.last_solve_delta);
  return result;
}

bool Solver::model_value(Var v) const {
  const auto& model = impl_->model;
  if (v < 0 || static_cast<std::size_t>(v) >= model.size()) {
    throw std::out_of_range{"sat: model_value for unknown variable"};
  }
  return model[static_cast<std::size_t>(v)];
}

Value Solver::root_value(Var v) const {
  const auto& s = *impl_;
  if (v < 0 || static_cast<std::size_t>(v) >= s.assigns.size()) {
    throw std::out_of_range{"sat: root_value for unknown variable"};
  }
  const auto idx = static_cast<std::size_t>(v);
  if (s.assigns[idx] == Value::undef || s.level[idx] != 0) return Value::undef;
  return s.assigns[idx];
}

const Solver::Statistics& Solver::statistics() const noexcept { return impl_->stats; }

const Solver::Statistics& Solver::last_solve_statistics() const noexcept {
  return impl_->last_solve_delta;
}

std::size_t Solver::learned_clause_count() const noexcept { return impl_->learned_live; }

std::size_t Solver::problem_clause_count() const noexcept { return impl_->clauses.size(); }

void Solver::set_reduce_options(const ReduceOptions& options) noexcept {
  impl_->reduce_opts = options;
}

std::size_t Solver::arena_bytes() const noexcept {
  return impl_->arena.size() * sizeof(std::uint32_t);
}

std::size_t Solver::arena_live_bytes() const noexcept {
  return (impl_->arena.size() - impl_->dead_words) * sizeof(std::uint32_t);
}

void Solver::set_conflict_budget(std::uint64_t conflicts) noexcept {
  impl_->conflict_budget = conflicts;
}

}  // namespace symbad::sat
