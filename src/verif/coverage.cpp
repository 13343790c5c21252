#include "verif/coverage.hpp"

namespace symbad::verif {

namespace {
int covered_single(const std::vector<std::uint64_t>& v) noexcept {
  int n = 0;
  for (const auto h : v) {
    if (h > 0) ++n;
  }
  return n;
}
int covered_both(const std::vector<std::uint64_t>& a,
                 const std::vector<std::uint64_t>& b) noexcept {
  int n = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > 0 && b[i] > 0) ++n;
  }
  return n;
}
}  // namespace

int CovModule::statements_covered() const noexcept { return covered_single(stmt_); }
int CovModule::branches_covered() const noexcept {
  return covered_both(branch_true_, branch_false_);
}
int CovModule::conditions_covered() const noexcept {
  return covered_both(cond_true_, cond_false_);
}

void CovModule::reset_hits() noexcept {
  auto zero = [](std::vector<std::uint64_t>& v) {
    for (auto& h : v) h = 0;
  };
  zero(stmt_);
  zero(branch_true_);
  zero(branch_false_);
  zero(cond_true_);
  zero(cond_false_);
}

void CovModule::merge_from(const CovModule& other) {
  auto accumulate = [](std::vector<std::uint64_t>& into,
                       const std::vector<std::uint64_t>& from) {
    if (from.size() > into.size()) into.resize(from.size(), 0);
    for (std::size_t i = 0; i < from.size(); ++i) into[i] += from[i];
  };
  accumulate(stmt_, other.stmt_);
  accumulate(branch_true_, other.branch_true_);
  accumulate(branch_false_, other.branch_false_);
  accumulate(cond_true_, other.cond_true_);
  accumulate(cond_false_, other.cond_false_);
}

void CoverageDb::merge_from(const CoverageDb& other) {
  for (const auto& [name, m] : other.modules()) module(name).merge_from(m);
}

CovModule& CoverageDb::module(const std::string& name) {
  const auto it = modules_.find(name);
  if (it != modules_.end()) return it->second;
  return modules_.emplace(name, CovModule{name}).first->second;
}

CoverageReport CoverageDb::report() const {
  CoverageReport r;
  for (const auto& [name, m] : modules_) {
    r.statement_total += m.statement_points();
    r.statement_covered += m.statements_covered();
    r.branch_total += m.branch_points();
    r.branch_covered += m.branches_covered();
    r.condition_total += m.condition_points();
    r.condition_covered += m.conditions_covered();
  }
  return r;
}

void CoverageDb::reset_hits() noexcept {
  for (auto& [name, m] : modules_) m.reset_hits();
}

}  // namespace symbad::verif
