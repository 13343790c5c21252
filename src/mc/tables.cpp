#include "mc/tables.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"

namespace symbad::mc {

namespace {

using LaneWord = rtl::Simulator::LaneWord;
/// One byte per state, or per (state, input) pair.
using Set = std::vector<char>;

/// Lane word whose lane l holds bit `bit` of pair index `base + l`, for a
/// `base` that is a multiple of 64.
LaneWord pair_bit_word(std::size_t bit, std::uint64_t base) {
  static constexpr LaneWord kLow[6] = {0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL,
                                       0xF0F0F0F0F0F0F0F0ULL, 0xFF00FF00FF00FF00ULL,
                                       0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};
  if (bit < 6) return kLow[bit];
  return ((base >> bit) & 1) != 0 ? rtl::Simulator::kAllLanes : 0;
}

bool none(const Set& set) {
  return std::none_of(set.begin(), set.end(), [](char c) { return c != 0; });
}

/// Frames a violation of `property` starting at bound b spans past b.
int window(const Property& property) {
  switch (property.kind) {
    case PropertyKind::invariant: return 0;
    case PropertyKind::next_implication: return 1;
    case PropertyKind::bounded_response: return property.response_bound;
  }
  throw std::logic_error{"mc: bad property kind"};
}

/// The transition and property tables of one check, and the searches over
/// them. Pair index p = (state << I) | code. A state packs the cone's
/// flip-flops LSB-first; a code packs the cone's inputs with the first
/// declared one as its most significant bit, so ascending codes are the
/// lexicographic (declaration order, false < true) order of a frame's
/// inputs — the order canonical counterexamples minimise in.
class Tables {
public:
  /// Tabulates the cone on `sim`, a simulator of it with `faults` injected;
  /// `p_exprs`/`q_exprs` are the properties' compiled antecedents and
  /// consequents.
  Tables(const rtl::Netlist& netlist, const TableCone& cone,
         std::span<const Property> properties, const std::map<rtl::Net, bool>& faults,
         rtl::Simulator& sim, std::span<const CompiledExpr> p_exprs,
         std::span<const CompiledExpr> q_exprs)
      : netlist_{&netlist},
        cone_{&cone},
        faults_{&faults},
        properties_{properties},
        in_bits_{cone.inputs.size()},
        states_{std::size_t{1} << cone.flip_flops.size()},
        pairs_{static_cast<std::size_t>(cone.pairs())},
        next_(pairs_, 0),
        p_(properties.size(), Set(pairs_, 0)),
        q_(properties.size()) {
    for (std::size_t i = 0; i < properties.size(); ++i) {
      if (properties[i].kind != PropertyKind::invariant) q_[i].assign(pairs_, 0);
    }
    const auto& ffs = cone.flip_flops;
    for (std::size_t j = 0; j < ffs.size(); ++j) {
      if (netlist.gate(ffs[j]).init) reset_ |= std::uint32_t{1} << j;
    }
    const auto spread = [](LaneWord w, std::size_t base, std::size_t lanes, Set& out) {
      for (std::size_t l = 0; l < lanes; ++l) out[base + l] = static_cast<char>((w >> l) & 1);
    };
    for (std::size_t base = 0; base < pairs_; base += rtl::Simulator::kLanes) {
      for (std::size_t j = 0; j < ffs.size(); ++j) {
        sim.set_word(ffs[j], pair_bit_word(in_bits_ + j, base));
      }
      for (std::size_t j = 0; j < in_bits_; ++j) {
        sim.set_word(cone.inputs[j], pair_bit_word(in_bits_ - 1 - j, base));
      }
      sim.eval();
      const std::size_t lanes =
          std::min<std::size_t>(rtl::Simulator::kLanes, pairs_ - base);
      for (std::size_t j = 0; j < ffs.size(); ++j) {
        const LaneWord w = sim.word(netlist.gate(ffs[j]).a);
        for (std::size_t l = 0; l < lanes; ++l) {
          next_[base + l] |= static_cast<std::uint32_t>((w >> l) & 1) << j;
        }
      }
      for (std::size_t i = 0; i < properties.size(); ++i) {
        spread(p_exprs[i].eval(sim), base, lanes, p_[i]);
        if (!q_[i].empty()) spread(q_exprs[i].eval(sim), base, lanes, q_[i]);
      }
    }
  }

  /// One verdict per property, as BmcChecker gives it.
  std::vector<CheckResult> decide(const CheckOptions& options) const {
    const std::size_t n = properties_.size();
    std::vector<CheckResult> results(n);
    // windows[i][d]: states from which some input sequence completes the
    // last w - d + 1 frames of a violation window of property i (d = w + 1
    // is every state); windows[i][0] is where a violation can start.
    std::vector<std::vector<Set>> windows(n);
    for (std::size_t i = 0; i < n; ++i) windows[i] = window_sets(i);

    std::vector<char> decided(n, 0);
    std::size_t undecided = n;
    Set reach(states_, 0);
    reach[reset_] = 1;
    for (int b = 0; b <= options.max_bound && undecided > 0; ++b) {
      for (std::size_t i = 0; i < n; ++i) {
        if (decided[i] != 0 || !meets(reach, windows[i][0])) continue;
        decided[i] = 1;
        --undecided;
        results[i].status = CheckStatus::falsified;
        results[i].bound_used = b;
        results[i].counterexample = counterexample(i, b, windows[i]);
      }
      if (b < options.max_bound && undecided > 0) reach = image(reach);
    }

    const int k = options.induction_depth;
    for (std::size_t i = 0; i < n; ++i) {
      if (decided[i] != 0) continue;
      results[i].bound_used = options.max_bound;
      const PropertyKind kind = properties_[i].kind;
      // The step proves nothing unless BMC covered its base, frames 0..k-1.
      if (kind == PropertyKind::bounded_response || options.max_bound < k - 1) continue;
      const bool closed = kind == PropertyKind::invariant
                              ? invariant_step_closes(i, windows[i][0], k)
                              : next_step_closes(i, windows[i][1], k);
      if (closed) results[i].status = CheckStatus::proved;
    }
    return results;
  }

private:
  [[nodiscard]] std::size_t state_of(std::size_t pair) const { return pair >> in_bits_; }

  /// The states some input takes from `pred`-pairs: out[s] = 1 iff
  /// pred(pair (s, x)) for some input x.
  template <class Pred>
  [[nodiscard]] Set some_input(Pred pred) const {
    Set out(states_, 0);
    for (std::size_t p = 0; p < pairs_; ++p) {
      if (pred(p)) out[state_of(p)] = 1;
    }
    return out;
  }

  [[nodiscard]] Set image(const Set& states) const {
    Set out(states_, 0);
    for (std::size_t p = 0; p < pairs_; ++p) {
      if (states[state_of(p)] != 0) out[next_[p]] = 1;
    }
    return out;
  }

  [[nodiscard]] bool meets(const Set& a, const Set& b) const {
    for (std::size_t s = 0; s < states_; ++s) {
      if (a[s] != 0 && b[s] != 0) return true;
    }
    return false;
  }

  /// Whether pair p satisfies frame d of property i's violation window
  /// (d = 0 is the bound the violation starts at).
  [[nodiscard]] bool in_window(std::size_t i, int d, std::size_t p) const {
    switch (properties_[i].kind) {
      case PropertyKind::invariant: return p_[i][p] == 0;
      case PropertyKind::next_implication: return d == 0 ? p_[i][p] != 0 : q_[i][p] == 0;
      case PropertyKind::bounded_response:
        return q_[i][p] == 0 && (d != 0 || p_[i][p] != 0);
    }
    return false;
  }

  [[nodiscard]] std::vector<Set> window_sets(std::size_t i) const {
    const int w = window(properties_[i]);
    std::vector<Set> sets(static_cast<std::size_t>(w) + 2);
    sets.back().assign(states_, 1);
    for (int d = w; d >= 0; --d) {
      const Set& after = sets[static_cast<std::size_t>(d) + 1];
      sets[static_cast<std::size_t>(d)] = some_input(
          [&](std::size_t p) { return in_window(i, d, p) && after[next_[p]] != 0; });
    }
    return sets;
  }

  /// The k-induction step for an invariant, over states: is there a path
  /// whose first k pairs satisfy the invariant and whose last violates it?
  /// `violating` is the states with some violating input.
  [[nodiscard]] bool invariant_step_closes(std::size_t i, Set violating, int k) const {
    for (int j = 0; j < k && !none(violating); ++j) {
      violating = some_input(
          [&](std::size_t p) { return p_[i][p] != 0 && violating[next_[p]] != 0; });
    }
    return none(violating);
  }

  /// The k-induction step for a next-implication p -> X q, over pairs: the
  /// frame-f obligation p(f) -> q(f+1) reads frame f+1's input, which frame
  /// f+1's own obligation reads too. `q_fails` is the states with some
  /// input falsifying q. Each step projects the pair set onto per-state
  /// "some input" sets, so it stays linear in the number of pairs.
  [[nodiscard]] bool next_step_closes(std::size_t i, const Set& q_fails, int k) const {
    const Set& p = p_[i];
    const Set& q = q_[i];
    // Pairs that violate the implication at the last frame.
    Set bad(pairs_, 0);
    for (std::size_t x = 0; x < pairs_; ++x) {
      bad[x] = static_cast<char>(p[x] != 0 && q_fails[next_[x]] != 0);
    }
    for (int j = 0; j < k && !none(bad); ++j) {
      const Set any = some_input([&](std::size_t x) { return bad[x] != 0; });
      const Set with_q = some_input([&](std::size_t x) { return bad[x] != 0 && q[x] != 0; });
      for (std::size_t x = 0; x < pairs_; ++x) {
        bad[x] = p[x] != 0 ? with_q[next_[x]] : any[next_[x]];
      }
    }
    return none(bad);
  }

  /// The lexicographically least input trace from reset whose violation of
  /// property i starts at bound b: a forward walk taking, frame by frame,
  /// the least input code from which the violation can still complete.
  [[nodiscard]] Counterexample counterexample(std::size_t i, int b,
                                              const std::vector<Set>& windows) const {
    // can[f] for f <= b: states at frame f from which a violation starting
    // at b can complete.
    std::vector<Set> can(static_cast<std::size_t>(b) + 1);
    can.back() = windows[0];
    for (int f = b - 1; f >= 0; --f) {
      const Set& after = can[static_cast<std::size_t>(f) + 1];
      can[static_cast<std::size_t>(f)] =
          some_input([&](std::size_t p) { return after[next_[p]] != 0; });
    }
    if (can.front()[reset_] == 0) throw std::logic_error{"mc: table counterexample lost"};

    const int last = b + window(properties_[i]);
    const std::size_t codes = std::size_t{1} << in_bits_;
    std::size_t state = reset_;
    std::vector<std::size_t> trace;
    for (int f = 0; f <= last; ++f) {
      const Set& after = f < b ? can[static_cast<std::size_t>(f) + 1]
                               : windows[static_cast<std::size_t>(f - b) + 1];
      std::size_t code = 0;
      for (; code < codes; ++code) {
        const std::size_t p = (state << in_bits_) | code;
        if ((f < b || in_window(i, f - b, p)) && after[next_[p]] != 0) break;
      }
      if (code == codes) throw std::logic_error{"mc: table counterexample lost"};
      trace.push_back(code);
      state = next_[(state << in_bits_) | code];
    }
    return to_counterexample(trace);
  }

  /// Input codes per frame as named values over every netlist input:
  /// a stuck-at input reports its forced value, an input outside the cone
  /// reads false.
  [[nodiscard]] Counterexample to_counterexample(const std::vector<std::size_t>& codes) const {
    const auto& cone_inputs = cone_->inputs;
    Counterexample cex;
    for (const std::size_t code : codes) {
      std::map<std::string, bool> values;
      std::size_t j = 0;  // next cone input; both lists are in declaration order
      for (const rtl::Net in : netlist_->inputs()) {
        bool value = false;
        if (j < cone_inputs.size() && cone_inputs[j] == in) {
          value = ((code >> (in_bits_ - 1 - j)) & 1) != 0;
          ++j;
        }
        if (const auto it = faults_->find(in); it != faults_->end()) value = it->second;
        values[netlist_->net_name(in)] = value;
      }
      cex.inputs.push_back(std::move(values));
    }
    return cex;
  }

  const rtl::Netlist* netlist_;
  const TableCone* cone_;
  const std::map<rtl::Net, bool>* faults_;
  std::span<const Property> properties_;
  std::size_t in_bits_;
  std::size_t states_;
  std::size_t pairs_;
  std::uint32_t reset_ = 0;
  std::vector<std::uint32_t> next_;  ///< per pair: the next state
  std::vector<Set> p_;               ///< per property, per pair: the antecedent
  std::vector<Set> q_;               ///< per property, per pair: the consequent
};

/// Rejects a cone the table engine cannot enumerate (before anything is
/// sized by 2^(S+I)).
void require_enumerable(const TableCone& cone) {
  if (cone.flip_flops.size() + cone.inputs.size() > TableCone::kMaxPairBits) {
    throw std::invalid_argument{"mc: cone too large for the table engine"};
  }
}

}  // namespace

TableCone table_cone(const rtl::Netlist& netlist, std::span<const Property> properties) {
  for (const auto& property : properties) {
    if (property.kind == PropertyKind::bounded_response && property.response_bound < 0) {
      throw std::invalid_argument{"mc: negative response bound"};
    }
  }
  std::vector<rtl::Net> roots;
  for (const auto& name : observed_outputs(properties)) roots.push_back(netlist.output(name));
  TableCone cone;
  cone.nets = netlist.cone_of_influence(roots);
  cone.gates = static_cast<std::size_t>(std::count(cone.nets.begin(), cone.nets.end(), 1));
  for (const rtl::Net ff : netlist.flip_flops()) {
    if (cone.nets[static_cast<std::size_t>(ff)] != 0) cone.flip_flops.push_back(ff);
  }
  for (const rtl::Net in : netlist.inputs()) {
    if (cone.nets[static_cast<std::size_t>(in)] != 0) cone.inputs.push_back(in);
  }
  return cone;
}

TableEngine::TableEngine(const rtl::Netlist& netlist, TableCone cone,
                         std::span<const Property> properties)
    : netlist_{&netlist},
      cone_{std::move(cone)},
      properties_{properties},
      sim_{netlist, cone_.nets} {
  for (const auto& property : properties) {
    p_.push_back(property.antecedent.compile(netlist));
    q_.push_back(property.consequent.compile(netlist));
  }
}

MultiCheckResult TableEngine::check_all(const std::map<rtl::Net, bool>& faults,
                                        const CheckOptions& options) {
  OBS_SPAN("mc.check_all");
  detail::validate_check(*netlist_, faults, options);
  require_enumerable(cone_);
  struct TableObs {
    obs::Counter checks, properties, tables_checks, tables_pairs;
  };
  auto& registry = obs::Registry::instance();
  static const TableObs counters{registry.counter("mc.checks"),
                                 registry.counter("mc.properties"),
                                 registry.counter("mc.tables.checks"),
                                 registry.counter("mc.tables.pairs")};
  counters.checks.inc();
  MultiCheckResult multi;
  if (properties_.empty()) return multi;  // one check, nothing else to count
  sim_.clear_faults();
  for (const auto& [net, value] : faults) sim_.inject_stuck_at(net, value);
  multi.results = Tables{*netlist_, cone_, properties_, faults, sim_, p_, q_}.decide(options);
  counters.properties.add(properties_.size());
  counters.tables_checks.inc();
  counters.tables_pairs.add(cone_.pairs());
  return multi;
}

MultiCheckResult TableChecker::check_all(const std::vector<Property>& properties,
                                         Options options,
                                         const std::map<rtl::Net, bool>& faults) const {
  const std::span<const Property> all{properties.data(), properties.size()};
  return TableEngine{*netlist_, table_cone(*netlist_, all), all}.check_all(faults, options);
}

}  // namespace symbad::mc
