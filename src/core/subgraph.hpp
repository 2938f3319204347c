// Sub-graph extraction for SAT-based redundancy elimination (paper §II).
//
// "SmaRTLy begins by constructing a sub-graph during the traversal of the
// muxtree. When a new MUX is encountered, all logical gates within a
// specified distance k from the control port are incorporated. … To keep the
// sub-graph manageable, smaRTLy only adds potential signals whose values
// might be affected by known signals" (Theorems II.1/II.2). Sequential cells
// are excluded so the sub-graph stays a DAG.
#pragma once

#include "rtlil/id_set.hpp"
#include "rtlil/module.hpp"
#include "rtlil/topo.hpp"

#include <vector>

namespace smartly::core {

struct SubgraphOptions {
  int depth = 4; ///< distance k from the control port / known signals
  /// Apply the Theorem II.1 relevance filter (ablatable; the paper reports
  /// it dismisses ~80% of the gates in the sub-graph).
  bool relevance_filter = true;
};

struct Subgraph {
  std::vector<rtlil::Cell*> cells; ///< combinational, topo-closed subset
  size_t gates_before_filter = 0;  ///< cells gathered by the distance-k BFS (the ball)
};

/// Extract the sub-graph around `target` (a control-port bit) and the
/// already-known signals. All bits must be canonical w.r.t. `index.sigmap()`.
Subgraph extract_subgraph(const rtlil::Module& module, const rtlil::NetlistIndex& index,
                          rtlil::SigBit target, const std::vector<rtlil::SigBit>& known,
                          const SubgraphOptions& options);

/// Reusable scratch space for extract_subgraph: id-keyed sets (Cell::id(),
/// rtlil::bit_id) cleared per query, so their memory follows the largest ball
/// seen rather than the module — the §II engine keeps one scratch per
/// oracle. Produces the same Subgraph as extract_subgraph (`cells` in BFS
/// discovery order).
class SubgraphScratch {
public:
  Subgraph extract(const rtlil::Module& module, const rtlil::NetlistIndex& index,
                   rtlil::SigBit target, const std::vector<rtlil::SigBit>& known,
                   const SubgraphOptions& options);

private:
  rtlil::IdSet in_ball_; ///< cell ids
  std::vector<rtlil::Cell*> ball_;
  std::vector<rtlil::Cell*> next_;
  rtlil::IdSet kept_; ///< cell ids
  std::vector<rtlil::SigBit> bitq_;
  rtlil::IdSet seen_bits_; ///< bit ids
};

} // namespace smartly::core
