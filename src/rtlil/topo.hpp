// Netlist indices: driver map, fanout counts, topological cell order.
#pragma once

#include "rtlil/id_set.hpp"
#include "rtlil/module.hpp"
#include "rtlil/sigmap.hpp"

#include <vector>

namespace smartly::rtlil {

class NetlistIndex;

/// Cells adjacent to a (canonical) bit in the undirected netlist graph: its
/// driver plus all its readers, sequential cells excluded (they cut the
/// combinational cone). This is the single adjacency relation shared by
/// sub-graph extraction (core/subgraph.cpp) and region partitioning
/// (opt/region_partition.cpp) — the region sweep's independence argument
/// requires region closures to over-approximate every extraction ball, which
/// holds only while both sides use this exact definition.
void combinational_adjacent_cells(const NetlistIndex& index, const SigBit& bit,
                                  std::vector<Cell*>& out);

/// Grow `ball` by `layers` breadth-first steps of combinational_adjacent_cells
/// over every port bit of its cells, appending newly reached cells in
/// discovery order. `seen` holds the ids of the cells already in `ball`;
/// `scratch` is a caller-owned buffer. Shared by extraction and partitioning
/// for the same reason as the adjacency relation itself.
void grow_combinational_ball(const NetlistIndex& index, std::vector<Cell*>& ball, IdSet& seen,
                             int layers, std::vector<Cell*>& scratch);

/// True when an incrementally maintained index still equals a from-scratch
/// rebuild of `module`: per-bit driver / reader multiset / fanout /
/// output-port agreement plus a complete, dependency-respecting topo order.
/// The robustness machinery runs this after budget halts and injected faults
/// (engines' check_index option, tests/test_faults.cpp). O(module) plus a
/// full rebuild — debug/test cost, not hot-path cost.
bool index_consistent(const Module& module, const NetlistIndex& index);

/// Snapshot of who drives / reads each canonical SigBit.
///
/// Built once from a module, then either discarded after the pass iteration
/// (the historical usage) or kept alive and *updated in place* from the
/// sweep's structural edits via the incremental-maintenance API below — the
/// muxtree sweep engines apply their journals through it so the index is
/// never rebuilt from scratch between iterations.
///
/// Layout: flat tables indexed by the module's dense ids (rtlil::bit_id,
/// Cell::id()) — per bit a driver pointer, a 4-byte slot into a pool of
/// per-net reader lists, and an output-port flag; per cell its topo position
/// and the read bits to retract. Queries about a bit or cell the tables do
/// not cover (another module's, or one created after the build and not yet
/// registered through add_cell/add_alias) answer as for an unindexed net:
/// nullptr / empty / 0 / false / -1. Constants are never driven or read;
/// they carry an output-port flag only when a port bit's class became
/// constant.
///
/// Concurrency: all query methods are const and, provided `sigmap().flatten()`
/// has run since the last mutation, safe to call from many threads at once.
/// The maintenance methods are single-threaded (barrier-phase only), and
/// invalidate references returned by readers().
class NetlistIndex {
public:
  explicit NetlistIndex(const Module& module);

  const SigMap& sigmap() const noexcept { return sigmap_; }

  /// Cell whose output drives this (canonical) bit, or nullptr for primary
  /// inputs / constants / dff-driven bits when `through_dff` was false.
  Cell* driver(SigBit bit) const;

  /// All cells reading this (canonical) bit. One entry per (cell, port, bit
  /// position) that reads the net, so a cell appears as many times as it
  /// reads the bit.
  const std::vector<Cell*>& readers(SigBit bit) const;

  /// Number of reader cells plus 1 if the bit reaches a module output port.
  int fanout(SigBit bit) const;

  bool drives_output_port(SigBit bit) const;

  /// Cells in topological order (combinational edges only; Dff cells are
  /// sources for their Q and sinks for their D). Throws if a combinational
  /// cycle exists. After incremental removals the order is compacted by
  /// compact_topo(); surviving cells keep their original relative order.
  const std::vector<Cell*>& topo_order() const noexcept { return topo_; }

  /// Position of a cell within topo_order(), or -1 if unknown. Lets callers
  /// sort small cell subsets into evaluation order without a module rescan.
  /// Positions are stable (never renumbered) across incremental updates, so
  /// only their relative order is meaningful after a removal.
  int topo_position(const Cell* cell) const {
    const size_t id = cell->id();
    return cell->module() == module_ && id < topo_pos_.size() ? topo_pos_[id] : -1;
  }

  // --- incremental maintenance (sweep-barrier journal application) ---------
  //
  // The muxtree walkers only ever *shrink* the netlist: input ports lose
  // bits, cells disappear, and removed cells' outputs get aliased onto one of
  // their data inputs. Applied in the order remove_cell* -> add_alias* ->
  // refresh_cell_reads* -> compact_topo(), these primitives leave the index
  // equal (as driver/reader/output-port *multisets* per canonical net, and as
  // a valid topological order) to a from-scratch rebuild of the edited
  // module. Aliasing never creates a dependency that contradicts the stored
  // topo positions: a connect's lhs is the output of a removed cell that
  // already sat between the rhs's driver and the lhs's readers.

  /// Erase a cell that is being removed from the module: its driver entries,
  /// its reader entries, and its topo bookkeeping. Call *before* add_alias
  /// for the sweep's connects (keys are canonicalized with the current map).
  void remove_cell(Cell* cell);

  /// Register a cell added to the module mid-maintenance (the fraig engine
  /// inserts inverters for complement-pair merges). `topo_pos` slots the cell
  /// into the stored order — callers pass a freed position (typically the one
  /// a just-removed cell held) that sits after the new cell's fanin drivers
  /// and before its readers. topo_order() reflects the insertion only after
  /// the next compact_topo().
  void add_cell(Cell* cell, int topo_pos);

  /// Record a module-level connect: merges the canonical classes bit-by-bit
  /// and migrates reader lists, driver entries, and output-port flags onto
  /// the surviving representative. Must mirror Module::connect calls 1:1 and
  /// in the same order so the union-find state matches a rebuild.
  void add_alias(const SigSpec& lhs, const SigSpec& rhs);

  /// Re-derive the reader entries of a cell whose input ports were rewritten
  /// in place during the sweep. Call after add_alias so the new entries are
  /// keyed under the post-connect canonical bits, exactly like a rebuild.
  void refresh_cell_reads(Cell* cell);

  /// Drop removed cells from topo_order() and slot added cells into position
  /// order. Positions of survivors keep their old values (gaps are fine: only
  /// relative order is meaningful).
  void compact_topo();

private:
  static constexpr size_t kNoSlot = SIZE_MAX;
  /// Table slot of a canonical wire bit of this module, or kNoSlot when the
  /// per-bit tables do not cover it.
  size_t bit_slot(const SigBit& bit) const {
    if (!bit.is_wire() || bit.wire->module() != module_)
      return kNoSlot;
    const size_t id = bit_id(bit);
    return id < driver_.size() ? id : kNoSlot;
  }
  /// bit_slot for a bit about to be written: grows the per-bit tables to
  /// cover every current wire of the module.
  size_t grow_bit_slot(const SigBit& bit);
  size_t grow_cell_slot(const Cell* cell);
  const std::vector<Cell*>& readers_of(const SigBit& canonical) const;
  bool output_port_of(const SigBit& canonical) const;
  void set_output_port(const SigBit& canonical, bool on);
  /// Pool slot of a fresh, empty reader list.
  uint32_t new_reader_list();
  void index_cell_reads(Cell* cell);
  void erase_cell_reads(Cell* cell);

  const Module* module_;
  SigMap sigmap_;
  // Per bit id.
  std::vector<Cell*> driver_;
  std::vector<uint32_t> reader_slot_; ///< into reader_lists_; 0 = no readers
  std::vector<uint8_t> output_port_;
  /// Reader lists of the read nets. Slot 0 stays empty (the answer for
  /// every unread net); freed slots are recycled through free_lists_.
  std::vector<std::vector<Cell*>> reader_lists_;
  std::vector<uint32_t> free_lists_;
  uint8_t const_output_port_ = 0; ///< bit per State: a port class became that constant
  // Per cell id.
  /// Canonical-at-insertion read bits per cell, one entry per (port, bit
  /// position) — the exact multiset of reader entries to retract when the
  /// cell mutates or disappears. Keys are re-canonicalized at erase time so
  /// alias merges in between are harmless.
  std::vector<std::vector<SigBit>> cell_reads_;
  std::vector<int> topo_pos_; ///< -1 = not in the order
  std::vector<Cell*> topo_;
  /// Cell::id() of each topo_ entry: compact_topo filters removed cells
  /// without touching them (they may already be destroyed).
  std::vector<uint32_t> topo_ids_;
  size_t topo_live_ = 0;        ///< cells with a position
  bool topo_needs_sort_ = false; ///< an add_cell broke topo_'s position order
};

} // namespace smartly::rtlil
