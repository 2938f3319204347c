// Netlist indices: driver map, fanout counts, topological cell order.
#pragma once

#include "rtlil/id_set.hpp"
#include "rtlil/module.hpp"
#include "rtlil/sigmap.hpp"

#include <vector>

namespace smartly::rtlil {

class NetlistIndex;

/// A read-only run of cells stored inside a NetlistIndex (the readers of a
/// net, the neighbours of a cell). Valid until the next maintenance call;
/// a neighbour range also until the next neighbour query.
class CellRange {
public:
  CellRange() = default;
  CellRange(Cell* const* first, size_t n) : first_(first), n_(n) {}
  Cell* const* begin() const noexcept { return first_; }
  Cell* const* end() const noexcept { return first_ + n_; }
  size_t size() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }
  Cell* operator[](size_t i) const noexcept { return first_[i]; }

private:
  Cell* const* first_ = nullptr;
  size_t n_ = 0;
};

/// Cells adjacent to a (canonical) bit in the undirected netlist graph: its
/// driver plus all its readers, sequential cells excluded (they cut the
/// combinational cone). This is the single adjacency relation shared by
/// sub-graph extraction (core/subgraph.cpp) and region partitioning
/// (opt/region_partition.cpp) — the region sweep's independence argument
/// requires region closures to over-approximate every extraction ball, which
/// holds only while both sides use this exact definition. A cell's
/// neighbours (NetlistIndex::combinational_neighbours) are this relation over
/// every port bit of the cell.
void combinational_adjacent_cells(const NetlistIndex& index, const SigBit& bit,
                                  std::vector<Cell*>& out);

/// Grow `ball` by `layers` breadth-first steps over the combinational
/// neighbours of its cells, appending newly reached cells in discovery
/// order. `seen` holds the ids of the cells already in `ball`. Shared by
/// extraction and partitioning for the same reason as the adjacency
/// relation itself.
void grow_combinational_ball(const NetlistIndex& index, std::vector<Cell*>& ball, IdSet& seen,
                             int layers);

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
/// The index reads the module's own alias map (Module::sigmap()) and holds
/// no copy of it. While the index is in use, the module's connects go
/// through connect() below, and nothing drops the map (remove_wire,
/// restore_module).
///
/// Layout: flat tables indexed by the module's dense ids (rtlil::bit_id,
/// Cell::id()) — per bit a driver pointer, the block of its reader list and
/// an output-port flag; per cell its topo position, the block of its read
/// bits and its neighbour-cache entry. The reader lists of all nets share
/// one arena and the read lists of all cells another: the build counts the
/// reads per net and fills each net's block in module-cell / port / bit
/// order, and a block that outgrows its space moves to its arena's end.
/// Queries about a bit or cell the tables do not cover (another module's,
/// or one created after the build and not yet registered through
/// add_cell/connect) answer as for an unindexed net: nullptr / empty / 0
/// / false / -1. Constants are never driven or read; they carry an
/// output-port flag only when a port bit's class became constant.
///
/// combinational_neighbours() fills a cache on first query, so even the
/// const queries write: one index is never read from two threads at once.
/// The maintenance methods invalidate every CellRange handed out.
class NetlistIndex {
public:
  explicit NetlistIndex(const Module& module);

  /// The module's alias map.
  const SigMap& sigmap() const noexcept { return *sigmap_; }

  /// Cell whose output drives this (canonical) bit (a Dff for its Q), or
  /// nullptr for primary inputs, constants and undriven nets.
  Cell* driver(SigBit bit) const;

  /// All cells reading this (canonical) bit. One entry per (cell, port, bit
  /// position) that reads the net, so a cell appears as many times as it
  /// reads the bit.
  CellRange readers(SigBit bit) const;

  /// Number of reader cells plus 1 if the bit reaches a module output port.
  int fanout(SigBit bit) const;

  bool drives_output_port(SigBit bit) const;

  /// The distinct cells combinationally adjacent to any port bit of `cell`
  /// (combinational_adjacent_cells over its ports in Port order, bits in
  /// port order), in order of first occurrence; `cell` itself is among them
  /// when it is not a Dff. Cached per cell: the list is built on first query
  /// and rebuilt when the cell's port_version() moves (walkers shrink ports
  /// in place between barriers) or after any maintenance call. A cell whose
  /// list would be longer than its port-bit count is scanned on every query
  /// instead, so the cache never outgrows the cells' connections.
  CellRange combinational_neighbours(const Cell* cell) const;

  /// Cells held by the neighbour cache (tests bound it by the port bits).
  size_t cached_neighbours() const noexcept { return neighbour_arena_.size(); }

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
  // their data inputs. Applied in the order remove_cell* -> connect* ->
  // refresh_cell_reads* -> compact_topo(), these primitives leave the index
  // equal (as driver/reader/output-port *multisets* per canonical net, and as
  // a valid topological order) to a from-scratch rebuild of the edited
  // module. Aliasing never creates a dependency that contradicts the stored
  // topo positions: a connect's lhs is the output of a removed cell that
  // already sat between the rhs's driver and the lhs's readers.

  /// Erase a cell that is being removed from the module: its driver entries,
  /// its reader entries, and its topo bookkeeping. Call *before* connect
  /// for the sweep's connects (keys are canonicalized with the current map).
  void remove_cell(Cell* cell);

  /// Register a cell added to the module mid-maintenance (the fraig engine
  /// inserts inverters for complement-pair merges). `topo_pos` slots the cell
  /// into the stored order — callers pass a freed position (typically the one
  /// a just-removed cell held) that sits after the new cell's fanin drivers
  /// and before its readers. topo_order() reflects the insertion only after
  /// the next compact_topo().
  void add_cell(Cell* cell, int topo_pos);

  /// Connect lhs = rhs in `module` (the indexed module) and follow it: the
  /// module's map unions the classes bit by bit, and each union moves the
  /// old class's reader list, driver entry and output-port flag onto the
  /// surviving representative.
  void connect(Module& module, const SigSpec& lhs, const SigSpec& rhs);

  /// Re-derive the reader entries of a cell whose input ports were rewritten
  /// in place during the sweep. Call after connect so the new entries are
  /// keyed under the post-connect canonical bits, exactly like a rebuild.
  void refresh_cell_reads(Cell* cell);

  /// Drop removed cells from topo_order() and slot added cells into position
  /// order. Positions of survivors keep their old values (gaps are fine: only
  /// relative order is meaningful).
  void compact_topo();

private:
  /// A list stored in an arena: entries [begin, begin + size) of the space
  /// [begin, begin + cap) it owns.
  struct Block {
    uint32_t begin = 0;
    uint32_t size = 0;
    uint32_t cap = 0;
  };
  static constexpr uint32_t kNotCached = UINT32_MAX;
  static constexpr uint32_t kScanned = UINT32_MAX - 1;
  /// A cell's neighbour-cache entry. `size` is kNotCached until a list is
  /// built and kScanned for a cell whose list would outgrow its port bits;
  /// a list is current while `port_version` equals the cell's.
  struct Neighbours {
    uint32_t begin = 0;
    uint32_t size = kNotCached;
    uint32_t cap = 0;
    uint32_t port_version = 0;
  };

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
  CellRange readers_of(const SigBit& canonical) const;
  bool output_port_of(const SigBit& canonical) const;
  void set_output_port(const SigBit& canonical, bool on);
  void push_reader(size_t bit, Cell* cell);
  void index_cell_reads(Cell* cell);
  void erase_cell_reads(Cell* cell);
  /// Every maintenance call runs this: the neighbour lists read the reader
  /// lists, the drivers and the alias map it is about to change.
  void forget_neighbours() noexcept { neighbours_stale_ = true; }

  const Module* module_;
  const SigMap* sigmap_; ///< the module's own map
  std::vector<AliasMerge> merges_; ///< connect()'s scratch
  // Per bit id.
  std::vector<Cell*> driver_;
  std::vector<Block> readers_; ///< into reader_arena_
  std::vector<uint8_t> output_port_;
  std::vector<Cell*> reader_arena_;
  uint8_t const_output_port_ = 0; ///< bit per State: a port class became that constant
  // Per cell id.
  /// Canonical-at-insertion read bit ids per cell (into read_arena_), one
  /// entry per (port, bit position) — the exact multiset of reader entries
  /// to retract when the cell mutates or disappears. Keys are
  /// re-canonicalized at erase time so alias merges in between are harmless.
  std::vector<Block> reads_;
  std::vector<uint32_t> read_arena_;
  std::vector<int> topo_pos_; ///< -1 = not in the order
  std::vector<Cell*> topo_;
  /// Cell::id() of each topo_ entry: compact_topo filters removed cells
  /// without touching them (they may already be destroyed).
  std::vector<uint32_t> topo_ids_;
  size_t topo_live_ = 0;        ///< cells with a position
  bool topo_needs_sort_ = false; ///< an add_cell broke topo_'s position order
  // Neighbour cache, per cell id; filled by const queries.
  mutable std::vector<Neighbours> neighbours_;
  mutable std::vector<Cell*> neighbour_arena_;
  mutable std::vector<Cell*> neighbour_scan_;  ///< the list of a kScanned cell
  mutable std::vector<uint32_t> neighbour_mark_; ///< per cell id: last scan that kept it
  mutable uint32_t neighbour_scans_ = 0;
  mutable bool neighbours_stale_ = false;
};

} // namespace smartly::rtlil
