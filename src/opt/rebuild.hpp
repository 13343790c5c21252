#pragma once
// Shared netlist-construction core of the optimizer: the structurally
// hashing, rewriting Builder that every rebuild pass in src/opt goes
// through, so the rewrite rules — and the exactness argument for them —
// live in one place. The Builder starts an empty netlist and hashes every
// gate it materialises.

#include <array>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "rtl/netlist.hpp"

namespace symbad::opt::detail {

/// Grows the optimized netlist: every mk_* applies the local rewrite rules
/// first, then canonicalizes operands and consults the structural hash, so
/// a gate is materialised at most once per (kind, operands).
class Builder {
public:
  explicit Builder(std::string name) : out_{std::move(name)} {}

  rtl::Net constant(bool value) {
    rtl::Net& slot = const_net_[value ? 1 : 0];
    if (slot < 0) slot = out_.constant(value);
    return slot;
  }

  rtl::Net input(std::string name) { return out_.add_input(std::move(name)); }

  rtl::Net dff(bool init, std::string name) {
    return out_.add_dff(init, std::move(name));
  }
  void connect_next(rtl::Net dff_net, rtl::Net next) { out_.connect_next(dff_net, next); }
  void set_output(const std::string& name, rtl::Net net) { out_.set_output(name, net); }

  rtl::Net mk_not(rtl::Net a) {
    if (is_const(a, false)) return constant(true);
    if (is_const(a, true)) return constant(false);
    // Double negation: ~~x = x.
    if (kind_of(a) == rtl::GateKind::not_gate) return gate(a).a;
    return hashed(rtl::GateKind::not_gate, a, -1, -1);
  }

  rtl::Net mk_and(rtl::Net a, rtl::Net b) {
    if (a == b) return a;                             // x & x = x
    if (complementary(a, b)) return constant(false);  // x & ~x = 0
    if (is_const(a, false) || is_const(b, false)) return constant(false);
    if (is_const(a, true)) return b;
    if (is_const(b, true)) return a;
    if (a > b) std::swap(a, b);  // commutative canonical order
    return hashed(rtl::GateKind::and_gate, a, b, -1);
  }

  rtl::Net mk_or(rtl::Net a, rtl::Net b) {
    if (a == b) return a;
    if (complementary(a, b)) return constant(true);
    if (is_const(a, true) || is_const(b, true)) return constant(true);
    if (is_const(a, false)) return b;
    if (is_const(b, false)) return a;
    if (a > b) std::swap(a, b);
    return hashed(rtl::GateKind::or_gate, a, b, -1);
  }

  rtl::Net mk_xor(rtl::Net a, rtl::Net b) {
    if (a == b) return constant(false);
    if (complementary(a, b)) return constant(true);
    if (is_const(a, false)) return b;
    if (is_const(b, false)) return a;
    if (is_const(a, true)) return mk_not(b);
    if (is_const(b, true)) return mk_not(a);
    if (a > b) std::swap(a, b);
    return hashed(rtl::GateKind::xor_gate, a, b, -1);
  }

  rtl::Net mk_mux(rtl::Net s, rtl::Net t, rtl::Net e) {
    if (is_const(s, true)) return t;
    if (is_const(s, false)) return e;
    if (t == e) return t;             // equal arms
    if (s == t) return mk_or(s, e);   // s ? s : e  =  s | e
    if (s == e) return mk_and(s, t);  // s ? t : s  =  s & t
    // Select inversion: mux(~s, t, e) = mux(s, e, t).
    if (kind_of(s) == rtl::GateKind::not_gate) return mk_mux(gate(s).a, e, t);
    // Constant arms collapse to and/or forms.
    if (is_const(t, true)) return mk_or(s, e);  // s ? 1 : e  =  s | e
    if (is_const(t, false)) return mk_and(mk_not(s), e);
    if (is_const(e, false)) return mk_and(s, t);
    if (is_const(e, true)) return mk_or(mk_not(s), t);
    // Complement arms are xor/xnor.
    if (complementary(t, e)) {
      // s ? ~e : e = s ^ e; s ? t : ~t = ~(s ^ t).
      return kind_of(t) == rtl::GateKind::not_gate && gate(t).a == e
                 ? mk_xor(s, e)
                 : mk_not(mk_xor(s, t));
    }
    return hashed(rtl::GateKind::mux, s, t, e);
  }

  [[nodiscard]] rtl::Netlist take() { return std::move(out_); }

private:
  /// (kind, a, b, c) -> net of the gate materialised for that shape.
  using HashKey = std::array<int, 4>;

  [[nodiscard]] const rtl::Gate& gate(rtl::Net n) const { return out_.gate(n); }
  [[nodiscard]] rtl::GateKind kind_of(rtl::Net n) const { return gate(n).kind; }
  [[nodiscard]] bool is_const(rtl::Net n, bool value) const {
    return kind_of(n) == (value ? rtl::GateKind::const1 : rtl::GateKind::const0);
  }
  [[nodiscard]] bool complementary(rtl::Net a, rtl::Net b) const {
    return (kind_of(a) == rtl::GateKind::not_gate && gate(a).a == b) ||
           (kind_of(b) == rtl::GateKind::not_gate && gate(b).a == a);
  }

  rtl::Net hashed(rtl::GateKind kind, rtl::Net a, rtl::Net b, rtl::Net c) {
    const HashKey key{static_cast<int>(kind), a, b, c};
    const auto it = hash_.find(key);
    if (it != hash_.end()) return it->second;
    rtl::Net n = -1;
    switch (kind) {
      case rtl::GateKind::and_gate: n = out_.add_and(a, b); break;
      case rtl::GateKind::or_gate: n = out_.add_or(a, b); break;
      case rtl::GateKind::xor_gate: n = out_.add_xor(a, b); break;
      case rtl::GateKind::not_gate: n = out_.add_not(a); break;
      case rtl::GateKind::mux: n = out_.add_mux(a, b, c); break;
      default: throw std::logic_error{"opt: unhashable gate kind"};
    }
    hash_.emplace(key, n);
    return n;
  }

  rtl::Netlist out_{"opt"};
  std::array<rtl::Net, 2> const_net_{-1, -1};
  std::map<HashKey, rtl::Net> hash_;
};

}  // namespace symbad::opt::detail
