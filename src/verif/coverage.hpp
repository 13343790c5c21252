#pragma once
// Code-coverage instrumentation for behavioural models.
//
// Laerte++ (paper §3.1, ref [5]) estimates testbench quality with statement,
// branch and condition coverage plus the finer-grained bit-coverage metric.
// This header provides the runtime side for the first three: modules declare
// their coverage points up-front (so unexecuted points count against
// coverage) and mark hits during execution through a cheap handle.
//
// Instrumented kernels fetch their module handle from the active database;
// when no database is installed the handle is null and the instrumentation
// costs a single pointer test. Code with points inside hot loops (the media
// kernels) tallies a call's hits in locals and adds them through the bulk
// adds, once per call.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace symbad::verif {

enum class PointKind : std::uint8_t { statement, branch, condition };

[[nodiscard]] constexpr const char* to_string(PointKind k) noexcept {
  switch (k) {
    case PointKind::statement: return "statement";
    case PointKind::branch: return "branch";
    case PointKind::condition: return "condition";
  }
  return "?";
}

/// Per-module hit counters. Branch/condition points have two outcomes each
/// (taken / not-taken, true / false); a point is covered when all of its
/// outcomes have been observed.
class CovModule {
public:
  explicit CovModule(std::string name) : name_{std::move(name)} {}

  void declare_statements(int count) { resize(stmt_, count); }
  void declare_branches(int count) {
    resize(branch_true_, count);
    resize(branch_false_, count);
  }
  void declare_conditions(int count) {
    resize(cond_true_, count);
    resize(cond_false_, count);
  }

  void statement(int id) noexcept { add(stmt_, id, 1); }
  void branch(int id, bool taken) noexcept {
    add(taken ? branch_true_ : branch_false_, id, 1);
  }
  /// Records an atomic boolean condition outcome and returns it, so call
  /// sites can write `if (cov_cond(cov, 0, x > y))`.
  bool condition(int id, bool value) noexcept {
    add(value ? cond_true_ : cond_false_, id, 1);
    return value;
  }

  // Bulk adds: `hits` executions (or outcomes) at once, equal to that many
  // single hits, for code that tallies a whole call in locals first.
  // Undeclared ids are ignored, as single hits ignore them.
  void add_statement(int id, std::uint64_t hits) noexcept { add(stmt_, id, hits); }
  void add_branch(int id, std::uint64_t taken, std::uint64_t not_taken) noexcept {
    add(branch_true_, id, taken);
    add(branch_false_, id, not_taken);
  }
  void add_condition(int id, std::uint64_t true_hits, std::uint64_t false_hits) noexcept {
    add(cond_true_, id, true_hits);
    add(cond_false_, id, false_hits);
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] int statement_points() const noexcept { return static_cast<int>(stmt_.size()); }
  [[nodiscard]] int branch_points() const noexcept { return static_cast<int>(branch_true_.size()); }
  [[nodiscard]] int condition_points() const noexcept { return static_cast<int>(cond_true_.size()); }

  [[nodiscard]] int statements_covered() const noexcept;
  [[nodiscard]] int branches_covered() const noexcept;   // both outcomes seen
  [[nodiscard]] int conditions_covered() const noexcept; // both outcomes seen
  [[nodiscard]] std::uint64_t statement_hits(int id) const {
    return stmt_.at(static_cast<std::size_t>(id));
  }

  void reset_hits() noexcept;

  /// Accumulates another module's declarations (max) and hits (sum) into
  /// this one. Used to aggregate per-worker coverage databases after a
  /// multi-threaded campaign: each worker instruments into its own
  /// thread-local database, and the results are merged once the workers
  /// have joined.
  void merge_from(const CovModule& other);

  /// Same name, declarations and hit counts (not only the same covered
  /// points: merge_from sums counts).
  bool operator==(const CovModule&) const = default;

private:
  static void resize(std::vector<std::uint64_t>& v, int count) {
    if (count > static_cast<int>(v.size())) v.resize(static_cast<std::size_t>(count), 0);
  }
  static void add(std::vector<std::uint64_t>& v, int id, std::uint64_t hits) noexcept {
    if (id >= 0 && static_cast<std::size_t>(id) < v.size()) v[static_cast<std::size_t>(id)] += hits;
  }

  std::string name_;
  std::vector<std::uint64_t> stmt_;
  std::vector<std::uint64_t> branch_true_;
  std::vector<std::uint64_t> branch_false_;
  std::vector<std::uint64_t> cond_true_;
  std::vector<std::uint64_t> cond_false_;
};

/// Aggregated coverage percentages.
struct CoverageReport {
  int statement_total = 0;
  int statement_covered = 0;
  int branch_total = 0;
  int branch_covered = 0;
  int condition_total = 0;
  int condition_covered = 0;

  [[nodiscard]] static double percent(int covered, int total) noexcept {
    return total == 0 ? 100.0 : 100.0 * covered / total;
  }
  [[nodiscard]] double statement_percent() const noexcept {
    return percent(statement_covered, statement_total);
  }
  [[nodiscard]] double branch_percent() const noexcept {
    return percent(branch_covered, branch_total);
  }
  [[nodiscard]] double condition_percent() const noexcept {
    return percent(condition_covered, condition_total);
  }
  [[nodiscard]] double overall_percent() const noexcept {
    return percent(statement_covered + branch_covered + condition_covered,
                   statement_total + branch_total + condition_total);
  }
};

/// A database of coverage modules. Install as the active database to enable
/// instrumentation in the code under verification.
class CoverageDb {
public:
  CoverageDb() = default;
  CoverageDb(const CoverageDb&) = delete;
  CoverageDb& operator=(const CoverageDb&) = delete;

  /// Returns (creating on first use) the module named `name`.
  [[nodiscard]] CovModule& module(const std::string& name);
  [[nodiscard]] const std::map<std::string, CovModule>& modules() const noexcept {
    return modules_;
  }

  [[nodiscard]] CoverageReport report() const;
  void reset_hits() noexcept;

  /// Merges every module of `other` into this database (see
  /// CovModule::merge_from); modules missing here are created.
  void merge_from(const CoverageDb& other);

  // --- active-database management -------------------------------------
  /// RAII scope that makes `db` the active database.
  class Scope {
  public:
    explicit Scope(CoverageDb& db) noexcept : previous_{active_} { active_ = &db; }
    ~Scope() noexcept { active_ = previous_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    CoverageDb* previous_;
  };

  /// Module handle from the active database, or nullptr when none is active.
  [[nodiscard]] static CovModule* active_module(const std::string& name) {
    return active_ == nullptr ? nullptr : &active_->module(name);
  }
  [[nodiscard]] static CoverageDb* active() noexcept { return active_; }

private:
  static inline thread_local CoverageDb* active_ = nullptr;
  std::map<std::string, CovModule> modules_;
};

// Convenience wrappers tolerating null handles (inactive coverage).
inline void cov_stmt(CovModule* m, int id) noexcept {
  if (m != nullptr) m->statement(id);
}
inline bool cov_branch(CovModule* m, int id, bool taken) noexcept {
  if (m != nullptr) m->branch(id, taken);
  return taken;
}
inline bool cov_cond(CovModule* m, int id, bool value) noexcept {
  if (m != nullptr) m->condition(id, value);
  return value;
}

}  // namespace symbad::verif
