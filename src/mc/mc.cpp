#include "mc/mc.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <stdexcept>

#include "mc/tables.hpp"
#include "obs/obs.hpp"

namespace symbad::mc {

using sat::Lit;

// ------------------------------------------------------------------ Expr

Expr Expr::signal(std::string output_name) {
  Expr e;
  e.kind_ = Kind::signal;
  e.name_ = std::move(output_name);
  return e;
}

Expr Expr::constant(bool value) {
  Expr e;
  e.kind_ = Kind::constant;
  e.value_ = value;
  return e;
}

Expr Expr::operator!() const {
  Expr e;
  e.kind_ = Kind::not_op;
  e.lhs_ = std::make_shared<Expr>(*this);
  return e;
}

Expr Expr::operator&&(const Expr& rhs) const {
  Expr e;
  e.kind_ = Kind::and_op;
  e.lhs_ = std::make_shared<Expr>(*this);
  e.rhs_ = std::make_shared<Expr>(rhs);
  return e;
}

Expr Expr::operator||(const Expr& rhs) const {
  Expr e;
  e.kind_ = Kind::or_op;
  e.lhs_ = std::make_shared<Expr>(*this);
  e.rhs_ = std::make_shared<Expr>(rhs);
  return e;
}

Lit Expr::encode(rtl::CnfEncoder& encoder, std::size_t frame_index,
                 EncodeCache& cache) const {
  const auto key = std::make_pair(static_cast<const void*>(this), frame_index);
  if (const auto it = cache.lits.find(key); it != cache.lits.end()) return it->second;
  auto& solver = encoder.solver();
  Lit out;
  switch (kind_) {
    case Kind::signal:
      out = encoder.frame(frame_index).lit(encoder.netlist().output(name_));
      break;
    case Kind::constant:
      out = value_ ? encoder.true_lit() : ~encoder.true_lit();
      break;
    case Kind::not_op:
      out = ~lhs_->encode(encoder, frame_index, cache);
      break;
    case Kind::and_op: {
      const Lit a = lhs_->encode(encoder, frame_index, cache);
      const Lit b = rhs_->encode(encoder, frame_index, cache);
      out = Lit::positive(solver.new_var());
      solver.add_binary(~out, a);
      solver.add_binary(~out, b);
      solver.add_ternary(out, ~a, ~b);
      break;
    }
    case Kind::or_op: {
      const Lit a = lhs_->encode(encoder, frame_index, cache);
      const Lit b = rhs_->encode(encoder, frame_index, cache);
      out = Lit::positive(solver.new_var());
      solver.add_binary(out, ~a);
      solver.add_binary(out, ~b);
      solver.add_ternary(~out, a, b);
      break;
    }
    default:
      throw std::logic_error{"mc: bad expression"};
  }
  cache.lits.emplace(key, out);
  return out;
}

CompiledExpr Expr::compile(const rtl::Netlist& netlist) const {
  CompiledExpr compiled;
  (void)compiled.add(*this, netlist);
  return compiled;
}

bool Expr::eval(const rtl::Simulator& sim, const rtl::Netlist& netlist) const {
  return (compile(netlist).eval(sim) & 1) != 0;
}

std::size_t CompiledExpr::add(const Expr& e, const rtl::Netlist& netlist) {
  Node node;
  switch (e.kind_) {
    case Expr::Kind::signal:
      node.op = Op::net;
      node.net = netlist.output(e.name_);
      break;
    case Expr::Kind::constant:
      node.op = Op::constant;
      node.value = e.value_;
      break;
    case Expr::Kind::not_op:
      node.op = Op::not_op;
      node.lhs = add(*e.lhs_, netlist);
      break;
    case Expr::Kind::and_op:
    case Expr::Kind::or_op:
      node.op = e.kind_ == Expr::Kind::and_op ? Op::and_op : Op::or_op;
      node.lhs = add(*e.lhs_, netlist);
      node.rhs = add(*e.rhs_, netlist);
      break;
  }
  nodes_.push_back(node);
  return nodes_.size() - 1;
}

rtl::Simulator::LaneWord CompiledExpr::eval_node(std::size_t i,
                                                 const rtl::Simulator& sim) const {
  const Node& node = nodes_[i];
  switch (node.op) {
    case Op::net: return sim.word(node.net);
    case Op::constant: return node.value ? rtl::Simulator::kAllLanes : 0;
    case Op::not_op: return ~eval_node(node.lhs, sim);
    case Op::and_op: return eval_node(node.lhs, sim) & eval_node(node.rhs, sim);
    case Op::or_op: return eval_node(node.lhs, sim) | eval_node(node.rhs, sim);
  }
  throw std::logic_error{"mc: bad expression"};
}

void Expr::collect_signals(std::vector<std::string>& out) const {
  switch (kind_) {
    case Kind::signal: out.push_back(name_); return;
    case Kind::constant: return;
    case Kind::not_op: lhs_->collect_signals(out); return;
    case Kind::and_op:
    case Kind::or_op:
      lhs_->collect_signals(out);
      rhs_->collect_signals(out);
      return;
  }
}

std::string Expr::to_string() const {
  switch (kind_) {
    case Kind::signal: return name_;
    case Kind::constant: return value_ ? "1" : "0";
    case Kind::not_op: return "!(" + lhs_->to_string() + ")";
    case Kind::and_op: return "(" + lhs_->to_string() + " & " + rhs_->to_string() + ")";
    case Kind::or_op: return "(" + lhs_->to_string() + " | " + rhs_->to_string() + ")";
  }
  return "?";
}

// -------------------------------------------------------------- Property

Property Property::invariant(std::string name, Expr p) {
  Property prop;
  prop.name = std::move(name);
  prop.kind = PropertyKind::invariant;
  prop.antecedent = std::move(p);
  return prop;
}

Property Property::next(std::string name, Expr p, Expr q) {
  Property prop;
  prop.name = std::move(name);
  prop.kind = PropertyKind::next_implication;
  prop.antecedent = std::move(p);
  prop.consequent = std::move(q);
  return prop;
}

Property Property::respond(std::string name, Expr p, Expr q, int within) {
  if (within < 0) throw std::invalid_argument{"mc: negative response bound"};
  Property prop;
  prop.name = std::move(name);
  prop.kind = PropertyKind::bounded_response;
  prop.antecedent = std::move(p);
  prop.consequent = std::move(q);
  prop.response_bound = within;
  return prop;
}

// ------------------------------------------------ BmcChecker (SAT engine)

namespace {

/// One long-lived solver + frame chain + encode cache serving every
/// property, BMC bound and k-induction step of one check. Assuming
/// `act_reset` pins frame 0 to the reset state (BMC); leaving it free makes
/// frame 0 an arbitrary state (induction). Injected faults go to the
/// encoder, which replaces each faulted net by its constant in every frame;
/// the chain only ever encodes `cone`, the checked properties' union cone.
struct Session {
  const rtl::Netlist* netlist;
  const std::map<rtl::Net, bool>* faults;
  std::vector<char> cone;  ///< table_cone's mask, which the chain encodes
  sat::Solver solver;
  rtl::CnfEncoder encoder;
  EncodeCache cache;
  Lit act_reset;

  Session(const rtl::Netlist& n, std::vector<char> cone_mask,
          const std::map<rtl::Net, bool>& faults_in, const CheckOptions& options)
      : netlist{&n},
        faults{&faults_in},
        cone{std::move(cone_mask)},
        encoder{n, solver} {
    solver.set_reduce_options(options.sat_reduce);
    act_reset = Lit::positive(solver.new_var());
    rtl::CnfEncoder::ChainOptions chain;
    chain.first_state = rtl::StateInit::reset;
    chain.conditional_reset = act_reset;
    chain.cone = &cone;
    if (!faults_in.empty()) chain.faults = &faults_in;
    encoder.begin_chain(chain);
  }

  /// Value pinned onto an input by an injected stuck-at fault, if any.
  std::optional<bool> forced_input(rtl::Net input) const {
    const auto it = faults->find(input);
    if (it == faults->end()) return std::nullopt;
    return it->second;
  }
};

/// Appends the assumption literals whose conjunction states "property
/// violated at bound i" and returns the deepest frame the violation spans.
int violation_assumptions(const Property& property, int i, Session& s,
                          std::vector<Lit>& out) {
  switch (property.kind) {
    case PropertyKind::invariant:
      out.push_back(~property.antecedent.encode(s.encoder, static_cast<std::size_t>(i),
                                                s.cache));
      return i;
    case PropertyKind::next_implication:
      out.push_back(property.antecedent.encode(s.encoder, static_cast<std::size_t>(i),
                                               s.cache));
      out.push_back(~property.consequent.encode(s.encoder,
                                                static_cast<std::size_t>(i + 1), s.cache));
      return i + 1;
    case PropertyKind::bounded_response:
      out.push_back(property.antecedent.encode(s.encoder, static_cast<std::size_t>(i),
                                               s.cache));
      for (int d = 0; d <= property.response_bound; ++d) {
        out.push_back(~property.consequent.encode(
            s.encoder, static_cast<std::size_t>(i + d), s.cache));
      }
      return i + property.response_bound;
  }
  throw std::logic_error{"mc: bad property kind"};
}

/// Literal of "property holds at frame f" (for k-induction).
Lit holds_at(const Property& property, int f, Session& s) {
  switch (property.kind) {
    case PropertyKind::invariant:
      return property.antecedent.encode(s.encoder, static_cast<std::size_t>(f), s.cache);
    case PropertyKind::next_implication: {
      const Lit p = property.antecedent.encode(s.encoder, static_cast<std::size_t>(f),
                                               s.cache);
      const Lit q = property.consequent.encode(s.encoder, static_cast<std::size_t>(f + 1),
                                               s.cache);
      // r = p -> q
      const Lit r = Lit::positive(s.solver.new_var());
      s.solver.add_ternary(~r, ~p, q);
      s.solver.add_binary(r, p);
      s.solver.add_binary(r, ~q);
      return r;
    }
    default: break;
  }
  throw std::logic_error{"mc: unreachable"};
}

/// Straight model read-out: the solver's current model projected onto the
/// primary inputs (out-of-cone inputs — unencoded, irrelevant — read
/// false; inputs pinned by an injected fault read the forced value, which
/// is what their constant literal would report).
Counterexample model_counterexample(Session& s, int last_frame) {
  Counterexample cex;
  for (int f = 0; f <= last_frame; ++f) {
    std::map<std::string, bool> values;
    for (const rtl::Net in : s.netlist->inputs()) {
      const std::string& name = s.netlist->net_name(in);
      if (const auto forced = s.forced_input(in)) {
        values[name] = *forced;
        continue;
      }
      const Lit l = s.encoder.frame(static_cast<std::size_t>(f)).lit(in);
      values[name] = l.valid() && (s.solver.model_value(l.var()) != l.negated());
    }
    cex.inputs.push_back(std::move(values));
  }
  return cex;
}

/// Lexicographically-least violating trace: walk the input bits frame-major
/// in declaration order, greedily pinning each to false when a violating
/// trace with the prefix still exists (one assumption solve per bit the
/// current model has true; bits already false are pinned for free — the
/// current model is the witness). The result depends only on the netlist,
/// the property and the violation assumptions in `fixed` — not on CNF shape,
/// learned clauses or decision heuristics — which is what makes
/// counterexamples bit-identical across encodings, engines and platforms.
Counterexample canonical_counterexample(Session& s, int last_frame,
                                        std::vector<Lit> fixed) {
  // Establish the invariant the greedy walk relies on: the solver's
  // current model satisfies `fixed`. The portfolio solve that classified
  // the property usually just did, but canonicalising one property's trace
  // overwrites the model a co-falsified property was classified on — this
  // (cheap, assumption-driven) solve re-derives a witness either way.
  (void)s.solver.solve(fixed);
  Counterexample cex;
  for (int f = 0; f <= last_frame; ++f) {
    std::map<std::string, bool> values;
    for (const rtl::Net in : s.netlist->inputs()) {
      const std::string& name = s.netlist->net_name(in);
      if (const auto forced = s.forced_input(in)) {
        // Stuck-at on a primary input: the trace reports the forced value
        // (a constant literal in the encoding — nothing to minimise).
        values[name] = *forced;
        continue;
      }
      const Lit l = s.encoder.frame(static_cast<std::size_t>(f)).lit(in);
      if (!l.valid()) {  // out of the cone: cannot matter, canonically false
        values[name] = false;
        continue;
      }
      bool value = s.solver.model_value(l.var()) != l.negated();
      if (value) {
        fixed.push_back(~l);
        if (s.solver.solve(fixed) == sat::Result::sat) {
          value = false;  // the new model witnesses the false-prefix
        } else {
          fixed.back() = l;
          // Refresh the model for the remaining bits (SAT by construction:
          // the previous model satisfies the prefix with this bit true).
          (void)s.solver.solve(fixed);
        }
      } else {
        fixed.push_back(~l);
      }
      values[name] = value;
    }
    cex.inputs.push_back(std::move(values));
  }
  return cex;
}

}  // namespace

std::vector<std::string> observed_outputs(std::span<const Property> properties) {
  std::vector<std::string> names;
  for (const auto& property : properties) {
    property.antecedent.collect_signals(names);
    property.consequent.collect_signals(names);
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

void detail::validate_check(const rtl::Netlist& netlist,
                            const std::map<rtl::Net, bool>& faults,
                            const CheckOptions& options) {
  if (options.induction_depth < 0) {
    throw std::invalid_argument{"mc: negative induction depth"};
  }
  for (const auto& [net, value] : faults) {
    if (net < 0 || static_cast<std::size_t>(net) >= netlist.gate_count()) {
      throw std::out_of_range{"mc: fault on unknown net"};
    }
  }
}

namespace {

/// The SAT engine's one BMC + k-induction loop (see BmcChecker): every
/// property on one session solver whose chain encodes `cone`, the
/// properties' `table_cone` mask.
MultiCheckResult sat_check_all(const rtl::Netlist& netlist,
                               std::span<const Property> properties, std::vector<char> cone,
                               const std::map<rtl::Net, bool>& faults,
                               const CheckOptions& options) {
  OBS_SPAN("mc.check_all");
  detail::validate_check(netlist, faults, options);
  // Every figure is deterministic for a fixed check (the solver is
  // single-threaded and the encoding canonical), so the counters hold the
  // worker-count byte-identity contract.
  struct SatObs {
    obs::Counter checks, properties, sat_conflicts, frames_encoded, encoded_vars,
        encoded_clauses, arena_bytes, arena_live, compactions;
  };
  auto& registry = obs::Registry::instance();
  static const SatObs counters{
      registry.counter("mc.checks"),          registry.counter("mc.properties"),
      registry.counter("mc.sat_conflicts"),   registry.counter("mc.frames_encoded"),
      registry.counter("mc.encoded_vars"),    registry.counter("mc.encoded_clauses"),
      registry.counter("mc.arena_bytes"),     registry.counter("mc.arena_live"),
      registry.counter("mc.compactions"),
  };
  counters.checks.inc();
  MultiCheckResult multi;
  multi.results.resize(properties.size());
  if (properties.empty()) return multi;  // one check, nothing else to count
  Session s{netlist, std::move(cone), faults, options};

  const std::size_t n = properties.size();
  std::vector<Lit> activation(n);
  for (auto& act : activation) act = Lit::positive(s.solver.new_var());
  std::vector<char> decided(n, 0);
  std::size_t undecided = n;
  std::uint64_t conflicts = 0;  // portfolio and induction solves

  // ---------------- portfolio BMC ---------------------------------------
  for (int b = 0; b <= options.max_bound && undecided > 0; ++b) {
    // Violation literal per undecided property: v <-> (its violation
    // conjuncts at bound b). Both directions, so a model classifies every
    // violated property, not just the one the portfolio clause picked.
    std::vector<Lit> violation(n);
    std::vector<int> last_frame(n, b);
    std::vector<Lit> portfolio_clause;
    const Lit sel = Lit::positive(s.solver.new_var());
    portfolio_clause.push_back(~sel);
    for (std::size_t i = 0; i < n; ++i) {
      if (decided[i] != 0) continue;
      std::vector<Lit> parts;
      last_frame[i] = violation_assumptions(properties[i], b, s, parts);
      Lit v;
      if (parts.size() == 1) {
        v = parts.front();
      } else {
        v = Lit::positive(s.solver.new_var());
        std::vector<Lit> back{v};
        for (const Lit part : parts) {
          s.solver.add_binary(~v, part);
          back.push_back(~part);
        }
        s.solver.add_clause(back);
      }
      violation[i] = v;
      // d -> (activation & violation): retiring the property by unit
      // ~activation kills its share of every bound's portfolio clause.
      const Lit d = Lit::positive(s.solver.new_var());
      s.solver.add_binary(~d, activation[i]);
      s.solver.add_binary(~d, v);
      portfolio_clause.push_back(d);
    }
    s.solver.add_clause(portfolio_clause);

    while (undecided > 0) {
      const bool sat_here =
          s.solver.solve({s.act_reset, sel}) == sat::Result::sat;
      conflicts += s.solver.last_solve_statistics().conflicts;
      if (!sat_here) break;  // bound b clean for every surviving property
      // Classify against the portfolio model *before* any counterexample
      // canonicalisation overwrites it: every property this trace violates
      // is retired in one round, instead of paying another portfolio solve
      // per co-falsified property.
      std::vector<std::size_t> violated;
      for (std::size_t i = 0; i < n; ++i) {
        if (decided[i] != 0) continue;
        const Lit v = violation[i];
        if (s.solver.model_value(v.var()) != v.negated()) violated.push_back(i);
      }
      for (const std::size_t i : violated) {
        auto& r = multi.results[i];
        r.status = CheckStatus::falsified;
        r.bound_used = b;
        r.counterexample =
            options.canonical_counterexample
                ? canonical_counterexample(s, last_frame[i], {s.act_reset, violation[i]})
                : model_counterexample(s, last_frame[i]);
        decided[i] = 1;
        --undecided;
        s.solver.add_unit(~activation[i]);
      }
      if (violated.empty()) {
        // The portfolio clause forced some d = activation & violation true,
        // so at least one undecided violation literal must read true.
        throw std::logic_error{"mc: portfolio model classified no property"};
      }
    }
    s.solver.add_unit(~sel);  // retire this bound's portfolio clause
  }

  // ---------------- shared-solver induction for the survivors -----------
  // Assume the property on frames 0..k-1 and refute it at frame k, with
  // the initial state left free (act_reset not assumed); only when BMC
  // covered that base case, frames 0..k-1. Bounded response stays
  // no_cex_within_bound.
  const int k = options.induction_depth;
  for (std::size_t i = 0; i < n; ++i) {
    if (decided[i] != 0) continue;
    auto& r = multi.results[i];
    r.bound_used = options.max_bound;
    if (properties[i].kind == PropertyKind::bounded_response || options.max_bound < k - 1) {
      r.status = CheckStatus::no_cex_within_bound;
      continue;
    }
    std::vector<Lit> assumptions;
    for (int f = 0; f < k; ++f) assumptions.push_back(holds_at(properties[i], f, s));
    assumptions.push_back(~holds_at(properties[i], k, s));
    const bool closed = s.solver.solve(assumptions) == sat::Result::unsat;
    conflicts += s.solver.last_solve_statistics().conflicts;
    r.status = closed ? CheckStatus::proved : CheckStatus::no_cex_within_bound;
  }

  counters.properties.add(n);
  counters.sat_conflicts.add(conflicts);
  counters.frames_encoded.add(s.encoder.frame_count());
  counters.encoded_vars.add(static_cast<std::uint64_t>(s.solver.variable_count()));
  counters.encoded_clauses.add(s.solver.problem_clause_count());
  counters.arena_bytes.add(s.solver.arena_bytes());
  counters.arena_live.add(s.solver.arena_live_bytes());
  counters.compactions.add(s.solver.statistics().arena_compactions);
  return multi;
}

}  // namespace

MultiCheckResult ModelChecker::check_all(const std::vector<Property>& properties,
                                         Options options,
                                         const std::map<rtl::Net, bool>& faults) const {
  const std::span<const Property> all{properties.data(), properties.size()};
  TableCone cone = table_cone(*netlist_, all);
  if (cone.fits()) {
    return TableEngine{*netlist_, std::move(cone), all}.check_all(faults, options);
  }
  return sat_check_all(*netlist_, all, std::move(cone.nets), faults, options);
}

MultiCheckResult BmcChecker::check_all(const std::vector<Property>& properties,
                                       Options options,
                                       const std::map<rtl::Net, bool>& faults) const {
  const std::span<const Property> all{properties.data(), properties.size()};
  return sat_check_all(*netlist_, all, table_cone(*netlist_, all).nets, faults, options);
}

}  // namespace symbad::mc
