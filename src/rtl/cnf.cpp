#include "rtl/cnf.hpp"

#include <stdexcept>

namespace symbad::rtl {

using sat::Lit;

CnfEncoder::CnfEncoder(const Netlist& netlist, sat::Solver& solver)
    : netlist_{&netlist}, solver_{&solver} {
  netlist.validate();
}

Lit CnfEncoder::true_lit() {
  if (!true_lit_) {
    const sat::Var v = solver_->new_var();
    solver_->add_unit(Lit::positive(v));
    true_lit_ = Lit::positive(v);
  }
  return *true_lit_;
}

Lit CnfEncoder::canonical(Lit l) {
  const sat::Value v = solver_->root_value(l.var());
  if (v == sat::Value::undef) return l;
  const Lit t = true_lit();
  return (v == sat::Value::true_value) != l.negated() ? t : ~t;
}

namespace {

/// Emits one frame's gates. A gate whose operands decide it (a constant,
/// equal or complementary operand) folds to the deciding literal and costs
/// no variable and no clause; any other gate gets a fresh variable and its
/// Tseitin clauses, each extended by ~activation when the frame is gated.
class GateEmitter {
public:
  GateEmitter(sat::Solver& solver, Lit lit_true, Lit activation)
      : s_{solver}, t_{lit_true}, f_{~lit_true}, gate_{~activation},
        gated_{activation.valid()} {}

  Lit and_of(Lit a, Lit b) {
    if (a == f_ || b == f_ || a == ~b) return f_;
    if (a == t_ || a == b) return b;
    if (b == t_) return a;
    const Lit out = fresh();
    emit(~out, a);
    emit(~out, b);
    emit(out, ~a, ~b);
    return out;
  }

  Lit or_of(Lit a, Lit b) {
    if (a == t_ || b == t_ || a == ~b) return t_;
    if (a == f_ || a == b) return b;
    if (b == f_) return a;
    const Lit out = fresh();
    emit(out, ~a);
    emit(out, ~b);
    emit(~out, a, b);
    return out;
  }

  Lit xor_of(Lit a, Lit b) {
    if (a == b) return f_;
    if (a == ~b) return t_;
    if (a == f_) return b;
    if (a == t_) return ~b;
    if (b == f_) return a;
    if (b == t_) return ~a;
    const Lit out = fresh();
    emit(~out, a, b);
    emit(~out, ~a, ~b);
    emit(out, ~a, b);
    emit(out, a, ~b);
    return out;
  }

  Lit mux_of(Lit sel, Lit t, Lit e) {
    if (sel == t_ || t == e) return t;
    if (sel == f_) return e;
    if (t == t_ && e == f_) return sel;
    if (t == f_ && e == t_) return ~sel;
    const Lit out = fresh();
    emit(~sel, ~t, out);
    emit(~sel, t, ~out);
    emit(sel, ~e, out);
    emit(sel, e, ~out);
    return out;
  }

private:
  Lit fresh() { return Lit::positive(s_.new_var()); }
  void emit(Lit x, Lit y) { gated_ ? s_.add_ternary(gate_, x, y) : s_.add_binary(x, y); }
  void emit(Lit x, Lit y, Lit z) {
    gated_ ? s_.add_clause({gate_, x, y, z}) : s_.add_ternary(x, y, z);
  }

  sat::Solver& s_;
  Lit t_, f_;
  Lit gate_;
  bool gated_;
};

}  // namespace

Frame CnfEncoder::encode(const Options& options) {
  if (options.state == StateInit::chained && options.previous == nullptr) {
    throw std::invalid_argument{"cnf: chained frame needs a previous frame"};
  }
  if (options.reuse_base != nullptr && options.cone == nullptr) {
    throw std::invalid_argument{"cnf: reuse_base requires a cone"};
  }
  auto& s = *solver_;
  const Lit lit_true = true_lit();
  const Lit lit_false = ~lit_true;
  GateEmitter emitter{s, lit_true, options.activation};
  const Frame* base = options.reuse_base;

  Frame frame;
  if (!frame_pool_.empty()) {
    frame.lits = std::move(frame_pool_.back());
    frame_pool_.pop_back();
    frame.lits.clear();
  }
  frame.lits.resize(netlist_->gate_count());

  // Operand literals with root-fixed variables read as constants, so the
  // folds see them and base comparisons match by value.
  const auto operand = [&](Net n) { return canonical(frame.lits[static_cast<std::size_t>(n)]); };
  const auto matches_base = [&](Net n) {
    return operand(n) == canonical(base->lits[static_cast<std::size_t>(n)]);
  };

  std::size_t input_slot = 0;
  for (std::size_t i = 0; i < netlist_->gate_count(); ++i) {
    const Net net = static_cast<Net>(i);
    const Gate& g = netlist_->gate(net);
    const std::size_t slot = g.kind == GateKind::input ? input_slot++ : 0;
    // Out-of-cone nets are not encoded: an ATPG miter copy behaves
    // identically to the base frame there (literal reused), a COI-reduced
    // model-checking frame never references them (invalid literal).
    if (options.cone != nullptr && (*options.cone)[i] == 0) {
      frame.lits[i] = base != nullptr ? base->lits[i] : Lit{};
      continue;
    }
    // Fault overrides replace the gate's function entirely.
    if (options.faults != nullptr) {
      const auto it = options.faults->find(net);
      if (it != options.faults->end()) {
        frame.lits[i] = it->second ? lit_true : lit_false;
        continue;
      }
    }
    Lit out;
    switch (g.kind) {
      case GateKind::const0: out = lit_false; break;
      case GateKind::const1: out = lit_true; break;
      case GateKind::input:
        out = options.shared_inputs != nullptr ? options.shared_inputs->at(slot)
                                               : Lit::positive(s.new_var());
        break;
      case GateKind::not_gate: out = ~operand(g.a); break;
      case GateKind::and_gate:
      case GateKind::or_gate:
      case GateKind::xor_gate:
      case GateKind::mux:
        // A gate that reads what the base frame reads computes what it
        // computes: take the base literal.
        if (base != nullptr && matches_base(g.a) && matches_base(g.b) &&
            (g.kind != GateKind::mux || matches_base(g.c))) {
          out = base->lits[i];
        } else if (g.kind == GateKind::and_gate) {
          out = emitter.and_of(operand(g.a), operand(g.b));
        } else if (g.kind == GateKind::or_gate) {
          out = emitter.or_of(operand(g.a), operand(g.b));
        } else if (g.kind == GateKind::xor_gate) {
          out = emitter.xor_of(operand(g.a), operand(g.b));
        } else {
          out = emitter.mux_of(operand(g.a), operand(g.b), operand(g.c));
        }
        break;
      case GateKind::dff:
        switch (options.state) {
          case StateInit::reset: out = g.init ? lit_true : lit_false; break;
          case StateInit::free_state: out = Lit::positive(s.new_var()); break;
          case StateInit::chained:
            out = options.previous->lits[static_cast<std::size_t>(g.a)];
            break;
        }
        break;
    }
    frame.lits[i] = out;
  }
  return frame;
}

void CnfEncoder::begin_chain(const ChainOptions& options) {
  chain_opts_ = options;
  for (Frame& f : chain_) frame_pool_.push_back(std::move(f.lits));
  chain_.clear();
  chain_started_ = true;
}

std::size_t CnfEncoder::push_frame() {
  if (!chain_started_) {
    throw std::logic_error{"cnf: push_frame before begin_chain"};
  }
  auto& s = *solver_;
  Options opts;
  opts.faults = chain_opts_.faults;
  opts.cone = chain_opts_.cone;
  if (chain_.empty()) {
    const bool conditional = chain_opts_.conditional_reset.valid() &&
                             chain_opts_.first_state == StateInit::reset;
    opts.state = conditional ? StateInit::free_state : chain_opts_.first_state;
    Frame frame = encode(opts);
    if (conditional) {
      // Pin the reset values behind the activation literal: assumed true
      // they force frame 0 to reset (BMC); left free they leave the state
      // unconstrained (k-induction base of the same solver).
      const Lit gate = ~chain_opts_.conditional_reset;
      for (const Net d : netlist_->flip_flops()) {
        if (chain_opts_.faults != nullptr && chain_opts_.faults->contains(d)) continue;
        if (chain_opts_.cone != nullptr &&
            (*chain_opts_.cone)[static_cast<std::size_t>(d)] == 0) {
          continue;  // out-of-cone register: unencoded, nothing to pin
        }
        const Lit state_lit = frame.lit(d);
        s.add_binary(gate, netlist_->gate(d).init ? state_lit : ~state_lit);
      }
    }
    chain_.push_back(std::move(frame));
  } else {
    opts.state = StateInit::chained;
    opts.previous = &chain_.back();
    chain_.push_back(encode(opts));
  }
  return chain_.size() - 1;
}

const Frame& CnfEncoder::frame(std::size_t k) {
  while (chain_.size() <= k) (void)push_frame();
  return chain_[k];
}

}  // namespace symbad::rtl
