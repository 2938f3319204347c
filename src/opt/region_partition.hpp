// Region partitioning for the deterministic region sweep engine.
//
// A *region* is a set of muxtrees whose walk never reads a cell that another
// region's walk mutates, so within one iteration every walk sees the
// iteration-start netlist whatever the order of the walks before it.
// The walk of one tree only mutates the tree's own mux/pmux cells (in-place
// input-port shrinks; connects/removals are journaled), but it *reads*:
//   * the distance-1 neighbourhood of every tree-cell bit (parent/child
//     fanout checks in the walker), and
//   * the undirected distance-k ball around the tree's select bits — the
//     sub-graph the §II oracle extracts for every decide() query (ctrl and
//     all known bits are select bits of the tree).
// That read closure may freely overlap another tree's closure on cells the
// sweep never mutates (shared combinational fanin); only a foreign *mux
// tree* cell inside the closure forces the two trees into one region
// (union-find). Since the sweep only ever shrinks ports, a closure computed
// on the iteration's frozen index over-approximates every ball the oracle
// can extract during that iteration.
#pragma once

#include "opt/muxtree_walker.hpp"
#include "rtlil/module.hpp"
#include "rtlil/topo.hpp"

#include <vector>

namespace smartly::opt {

struct Region {
  std::vector<rtlil::Cell*> roots;      ///< module cell order
  std::vector<rtlil::Cell*> tree_cells; ///< roots + tree-internal mux cells
};

struct RegionPartition {
  /// Canonical order: by the module-cell index of each region's first root.
  /// Regions are walked, and their journals applied, in this order.
  std::vector<Region> regions;
  /// Read-closure cells per region (same indexing as `regions`), the union of
  /// the constituent trees' closures — computed during partitioning anyway,
  /// exposed so the engine doesn't repeat the BFS for its closure-bit sets.
  std::vector<std::vector<rtlil::Cell*>> closures;
  size_t trees = 0;          ///< muxtrees before merging
  size_t merged_edges = 0;   ///< union operations caused by closure overlap
};

/// Partition the module's muxtree forest. `ball_radius` must be at least the
/// oracle's sub-graph extraction distance k (SubgraphOptions::depth).
RegionPartition partition_regions(const rtlil::Module& module,
                                  const rtlil::NetlistIndex& index,
                                  const MuxtreeForest& forest, int ball_radius);

/// Cells within undirected distance `radius` of any of the given bits
/// (alternating bit -> adjacent cells -> their port bits; Dff cells block, as
/// in sub-graph extraction). Used both for closure computation and for the
/// engine's dirty-region propagation at sweep barriers.
std::vector<rtlil::Cell*> cells_within_radius(const rtlil::NetlistIndex& index,
                                              const std::vector<rtlil::SigBit>& seeds,
                                              int radius);

/// Every cell a walk of the given trees may read: the oracle's distance-k
/// extraction ball around the trees' select bits plus the 1-neighbourhood of
/// every tree bit. The engine recomputes this for dirty regions at barriers
/// (aliasing from applied connects can extend a closure by one hop).
std::vector<rtlil::Cell*> region_read_closure(const rtlil::NetlistIndex& index,
                                              const std::vector<rtlil::Cell*>& tree_cells,
                                              int ball_radius);

} // namespace smartly::opt
