// Tseitin encoding of an AIG into the CDCL solver.
#pragma once

#include "aig/aig.hpp"
#include "sat/solver.hpp"

#include <vector>

namespace smartly::aig {

/// The caller-owned state that encoders created one after another share: the
/// node -> variable table and the lists an encoder refills. Between encoders
/// every `vars` entry is kNoVar and the lists are empty; an encoder grows
/// `vars` to the AIG's size, sets the entries of the nodes it encodes and
/// resets exactly those when destroyed. So no encoder builds a map of its
/// own, and once the lists have grown to the largest cone an encoder
/// allocates nothing. Two encoders never share a table while both are alive.
struct CnfTable {
  std::vector<sat::Var> vars;
  std::vector<uint32_t> touched;        ///< nodes the live encoder gave a variable
  std::vector<uint32_t> encoded_inputs; ///< its cone's inputs, first-encounter order
  std::vector<uint32_t> stack;          ///< DFS scratch (cones can be deep)
};

/// Cone-restricted Tseitin encoding, the one AIG -> CNF encoding (§II's SAT
/// stage, fraig and CEC): only the transitive fanin of requested literals
/// gets solver variables and the standard three-clause AND encoding; nodes
/// outside it could only add satisfiable clauses. The fraig engine keeps one
/// whole-netlist AIG per refinement round but proves class miters over small
/// cones of it; encoding the full graph per class would swamp the solver with
/// inert clauses. Nodes are encoded at most once per encoder, so the joint
/// cone of a class's members shares variables across its queries.
///
/// The table (CnfTable) belongs to the caller, who hands it to the encoders
/// it creates one after another (a fraig stage's classes, a CEC check's
/// miters, the §II oracle's queries).
class ConeCnfEncoder {
public:
  static constexpr sat::Var kNoVar = -1;

  ConeCnfEncoder(sat::Solver& solver, const Aig& aig, CnfTable& table)
      : solver_(solver), aig_(aig), table_(table), vars_(table.vars) {}
  ~ConeCnfEncoder();
  ConeCnfEncoder(const ConeCnfEncoder&) = delete;
  ConeCnfEncoder& operator=(const ConeCnfEncoder&) = delete;

  /// Encode the fanin cone of `aig_lit` (no-op for already-encoded nodes) and
  /// return its solver literal.
  sat::Lit ensure(Lit aig_lit);

  /// Solver literal of an already-ensured AIG literal; throws
  /// std::out_of_range for a node this encoder has not encoded.
  sat::Lit lit(Lit aig_lit) const;

  /// AIG input nodes that received variables — the cone's free inputs, in
  /// first-encounter order (deterministic given the ensure() call sequence).
  /// Counterexample models are read back through these.
  const std::vector<uint32_t>& encoded_inputs() const noexcept { return table_.encoded_inputs; }

private:
  sat::Var var_of(uint32_t node);
  bool encoded(uint32_t node) const { return vars_[node] != kNoVar; }

  sat::Solver& solver_;
  const Aig& aig_;
  CnfTable& table_;
  std::vector<sat::Var>& vars_; ///< table_.vars
};

} // namespace smartly::aig
