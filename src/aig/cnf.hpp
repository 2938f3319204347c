// Tseitin encoding of an AIG into the CDCL solver.
#pragma once

#include "aig/aig.hpp"
#include "sat/solver.hpp"

#include <unordered_map>
#include <vector>

namespace smartly::aig {

/// Cone-restricted Tseitin encoding, the one AIG -> CNF encoding (§II's SAT
/// stage, fraig and CEC): only the transitive fanin of requested literals
/// gets solver variables and the standard three-clause AND encoding; nodes
/// outside it could only add satisfiable clauses. The fraig engine keeps one
/// whole-netlist AIG per refinement round but proves class miters over small
/// cones of it; encoding the full graph per class would swamp the solver with
/// inert clauses. Nodes are encoded at most once per encoder, so the joint
/// cone of a class's members shares variables across its queries.
class ConeCnfEncoder {
public:
  ConeCnfEncoder(sat::Solver& solver, const Aig& aig) : solver_(solver), aig_(aig) {}

  /// Encode the fanin cone of `aig_lit` (no-op for already-encoded nodes) and
  /// return its solver literal.
  sat::Lit ensure(Lit aig_lit);

  /// Solver literal of an already-ensured AIG literal.
  sat::Lit lit(Lit aig_lit) const {
    return sat::mk_lit(vars_.at(lit_node(aig_lit)), lit_compl(aig_lit));
  }

  /// AIG input nodes that received variables — the cone's free inputs, in
  /// first-encounter order (deterministic given the ensure() call sequence).
  /// Counterexample models are read back through these.
  const std::vector<uint32_t>& encoded_inputs() const noexcept { return encoded_inputs_; }

private:
  sat::Var var_of(uint32_t node);

  sat::Solver& solver_;
  const Aig& aig_;
  std::unordered_map<uint32_t, sat::Var> vars_;
  std::vector<uint32_t> encoded_inputs_;
  std::vector<uint32_t> stack_; ///< DFS scratch (cones can be deep)
};

} // namespace smartly::aig
