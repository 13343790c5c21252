#pragma once
// Tseitin CNF encoding of netlist time frames.
//
// The bridge from RTL to the SAT solver used by bounded model checking,
// k-induction and SAT-based ATPG. A `Frame` maps every net of a netlist at
// one point in time to a SAT literal; frames chain through flip-flops
// (frame k+1's state literals are frame k's next-state literals).
//
// The encoder emits no gate that its operand literals already decide (the
// two reduction rules of a reduced BDD, applied to literals):
//  * fold — an AND, OR, XOR or MUX with a constant, equal or complementary
//    operand returns the deciding literal (`x & 0 = 0`, `x ^ x = 0`,
//    `s ? x : x = x`, `s ? 1 : 0 = s`, ...). An operand whose variable the
//    solver has fixed at the root counts as a constant.
//  * reuse — in a `reuse_base` frame, a gate whose operand literals equal
//    the base frame's (root-fixed ones compared by value) takes the base
//    frame's literal.
// Either way the gate adds no variable and no clause, so a frame's literal
// for a net may be the true/false literal or another net's literal.
//
// Two usage styles:
//  * `encode(Options)` — one frame at a time, caller owns the chaining
//    (the ATPG miter encodes good/faulty copies side by side this way).
//  * `begin_chain` / `push_frame` / `frame(k)` — incremental unrolling for
//    lazy BMC: the encoder owns one frame chain and appends transition
//    clauses on demand, so bound i pays only for frames 0..i. With
//    `ChainOptions::conditional_reset` the reset values are pinned behind
//    an activation literal, letting a single long-lived solver serve both
//    BMC (assume the literal) and k-induction (leave it free).

#include <map>
#include <optional>
#include <vector>

#include "rtl/netlist.hpp"
#include "sat/solver.hpp"

namespace symbad::rtl {

/// One unrolled time frame: a literal per net.
struct Frame {
  std::vector<sat::Lit> lits;

  [[nodiscard]] sat::Lit lit(Net n) const { return lits.at(static_cast<std::size_t>(n)); }
};

/// How flip-flop values are constrained in the frame being encoded.
enum class StateInit {
  reset,       ///< flip-flops tied to their reset values (BMC frame 0)
  free_state,  ///< flip-flops are unconstrained fresh variables (induction)
  chained,     ///< flip-flops take the previous frame's next-state literals
};

class CnfEncoder {
public:
  CnfEncoder(const Netlist& netlist, sat::Solver& solver);

  struct Options {
    StateInit state = StateInit::reset;
    const Frame* previous = nullptr;  ///< required when state == chained
    /// Optional shared input literals (e.g. ATPG miters drive two copies of
    /// a circuit with the same stimuli). Indexed like Netlist::inputs().
    const std::vector<sat::Lit>* shared_inputs = nullptr;
    /// Stuck-at fault overrides: net -> forced value.
    const std::map<Net, bool>* faults = nullptr;
    /// Cone restriction: nets with (*cone)[net] == 0 are not encoded at
    /// all. With `reuse_base` set (ATPG miters) their literals are copied
    /// from the matching frame of the good copy. Without `reuse_base`
    /// (model-checking cone of influence) they get invalid literals — legal
    /// only when `cone` is closed under structural support, i.e. no in-cone
    /// gate reads an out-of-cone net (`Netlist::cone_of_influence`
    /// guarantees this). `cone` is indexed by net like the netlist.
    const std::vector<char>* cone = nullptr;
    /// Base frame of a copy that differs from it only inside `cone` (ATPG's
    /// faulty copy over the good copy; requires `cone`). Out-of-cone nets
    /// take the base literal, and so does an in-cone gate whose operand
    /// literals all equal the base frame's; fault overrides come first. The
    /// frame then pays variables and clauses only for the nets whose
    /// literals really differ from the base.
    const Frame* reuse_base = nullptr;
    /// When valid, every emitted clause gets ~activation appended: the
    /// frame's logic constrains the solver only while `activation` is
    /// assumed true, and adding the unit clause ~activation later retires
    /// the whole frame (its clauses become permanently satisfied and drop
    /// out of watch propagation). Incremental multi-fault ATPG encodes each
    /// per-fault miter behind such a literal.
    sat::Lit activation{};
  };

  /// Encodes one time frame; adds Tseitin clauses to the solver.
  [[nodiscard]] Frame encode(const Options& options);

  // ------------------------------------------------- incremental chain
  struct ChainOptions {
    StateInit first_state = StateInit::reset;
    /// Stuck-at fault overrides applied to every frame of the chain.
    const std::map<Net, bool>* faults = nullptr;
    /// When valid (and first_state == reset), frame-0 flip-flops become
    /// free variables whose reset values are enforced only while this
    /// literal is assumed true.
    sat::Lit conditional_reset{};
    /// Cone-of-influence restriction applied to every frame: out-of-cone
    /// nets are never encoded (invalid literals, no variables, no clauses,
    /// no reset pinning). Must be closed under structural support — use
    /// `Netlist::cone_of_influence`. The pointee must outlive the chain.
    const std::vector<char>* cone = nullptr;
  };

  /// Starts (or restarts) the incremental frame chain. Invalidates frames
  /// previously returned by `push_frame`/`frame` but adds no clauses for
  /// them — chains share one solver, so restarting mid-solve is a caller
  /// bug; use one chain per encoder.
  void begin_chain(const ChainOptions& options);
  /// Appends one frame to the chain and returns its index.
  std::size_t push_frame();
  /// The chain frame at index k; encodes lazily up to k. The reference is
  /// invalidated by the next push_frame/frame call that grows the chain.
  [[nodiscard]] const Frame& frame(std::size_t k);
  [[nodiscard]] std::size_t frame_count() const noexcept { return chain_.size(); }

  /// Literal that is always true (for building custom constraints).
  [[nodiscard]] sat::Lit true_lit();
  /// `l`, or the true/false literal when the solver has fixed `l`'s
  /// variable at the root: two literals with the same canonical form have
  /// the same value in every model.
  [[nodiscard]] sat::Lit canonical(sat::Lit l);

  [[nodiscard]] const Netlist& netlist() const noexcept { return *netlist_; }
  [[nodiscard]] sat::Solver& solver() noexcept { return *solver_; }

private:
  const Netlist* netlist_;
  sat::Solver* solver_;
  std::optional<sat::Lit> true_lit_;
  ChainOptions chain_opts_{};
  std::vector<Frame> chain_;
  /// Recycled frame storage: `begin_chain` returns the previous chain's
  /// literal vectors here and `encode` draws from it, so restarting chains
  /// (one per property / bound sweep) stops allocating once the vectors
  /// have reached netlist size.
  std::vector<std::vector<sat::Lit>> frame_pool_;
  bool chain_started_ = false;
};

}  // namespace symbad::rtl
