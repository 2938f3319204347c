// Muxtree restructuring (paper §III, Algorithm 1) — smaRTLy's second engine.
//
//   for cell in {muxtree roots}:
//     if OnlyEq(cell) and SingleCtrl(cell):
//       Assignment <- ADD(cell)
//       RemovedEq  <- CountRemoved(cell)
//       if Check(Assignment, RemovedEq, height, width):
//         Rebuild(cell, Assignment)
//         RemoveUnusedCell()          # implemented in opt_clean
//
// Muxtrees generated from `case` statements are chains of $mux cells whose
// select signals are $eq(selector, constant) cells over one shared selector
// (Figs. 5-7). The pass re-expresses the tree as an ADD over the selector
// bits and rebuilds it as a (shared) binary decision tree of $mux cells whose
// selects are the raw selector bits, disconnecting the $eq cells entirely.
#pragma once

#include "core/add.hpp"
#include "rtlil/module.hpp"

namespace smartly::core {

struct MuxRestructureOptions {
  int max_sel_width = 12;     ///< cap on distinct selector bits (table = 2^h)
  bool greedy_order = true;   ///< paper heuristic; false = fixed order (ablation)
  bool skip_check = false;    ///< rebuild unconditionally (ablation; paper warns
                              ///< this "may even deteriorate the circuit")
};

struct MuxRestructureStats {
  size_t trees_seen = 0;       ///< muxtree roots examined
  size_t trees_eligible = 0;   ///< passed OnlyEq ∧ SingleCtrl
  size_t trees_rebuilt = 0;
  size_t mux_removed = 0;      ///< old tree muxes deleted
  size_t mux_added = 0;        ///< rebuilt ADD muxes
  size_t eq_disconnected = 0;  ///< eq/control cells freed for opt_clean
};

MuxRestructureStats mux_restructure(rtlil::Module& module,
                                    const MuxRestructureOptions& options = {});

} // namespace smartly::core
