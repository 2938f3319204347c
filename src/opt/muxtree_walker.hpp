// Muxtree traversal engine shared by the baseline `opt_muxtree` pass and
// smaRTLy's SAT-based redundancy elimination (§II of the paper).
//
// Both passes do the same walk: start at every muxtree root, descend through
// single-fanout $mux/$pmux data edges, and carry the set of control-signal
// values implied by the path taken ("known value signals"). They differ only
// in how a descendant's control port is decided:
//   * baseline (Yosys):  syntactic lookup — the control bit must literally be
//     one of the known bits (paper Figs. 1 & 2);
//   * smaRTLy:           logic inferencing — inference rules + simulation/SAT
//     over a sub-graph (paper Fig. 3, §II).
// The oracle interface below is that single point of variation.
//
// The walk itself is exposed at three granularities:
//   * optimize_muxtrees — the serial pass: forest -> walk every root ->
//     apply the journal -> iterate to fixpoint. One NetlistIndex is built up
//     front and updated incrementally from the journal at sweep barriers
//     (never rebuilt from scratch between iterations).
//   * MuxtreeWalker     — one root at a time, with all structural edits
//     deferred into a caller-owned SweepJournal. This is the unit the
//     region sweep engine (opt/parallel_sweep.hpp) runs per region: during a
//     walk the module is only mutated through in-place input-port shrinks of
//     the walked tree's own cells, so walks over trees with disjoint
//     read-closures never see each other's edits.
//   * muxtree_forest / apply_sweep_journal — the partition and barrier halves,
//     shared by the serial and region drivers so both produce identical
//     netlists.
#pragma once

#include "rtlil/module.hpp"
#include "rtlil/sigmap.hpp"
#include "rtlil/topo.hpp"

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace smartly::opt {

using KnownMap = std::unordered_map<rtlil::SigBit, bool>;

enum class CtrlDecision {
  Unknown, ///< the control bit can still be 0 or 1
  Zero,    ///< forced 0 on this path
  One,     ///< forced 1 on this path
  DeadPath ///< the path condition itself is unsatisfiable
};

class MuxtreeOracle {
public:
  virtual ~MuxtreeOracle() = default;

  /// Called once before a walk so the oracle can (re)build indices.
  virtual void begin_module(rtlil::Module& module) { (void)module; }

  /// Index-sharing variant: the walker hands the oracle its own (incrementally
  /// maintained) NetlistIndex so the oracle does not rebuild one per sweep.
  /// Default forwards to the legacy overload for oracles that don't care.
  virtual void begin_module(rtlil::Module& module, const rtlil::NetlistIndex& index) {
    (void)index;
    begin_module(module);
  }

  /// Decide the value of `ctrl` (a canonical SigBit) given the path
  /// conditions in `known` (canonical bits -> value).
  virtual CtrlDecision decide(rtlil::SigBit ctrl, const KnownMap& known) = 0;
};

/// Baseline oracle: a control bit is decided only when it is literally one
/// of the known bits. This reproduces Yosys opt_muxtree's behaviour.
class SyntacticOracle final : public MuxtreeOracle {
public:
  CtrlDecision decide(rtlil::SigBit ctrl, const KnownMap& known) override {
    auto it = known.find(ctrl);
    if (it == known.end())
      return CtrlDecision::Unknown;
    return it->second ? CtrlDecision::One : CtrlDecision::Zero;
  }
};

struct MuxtreeStats {
  size_t mux_collapsed = 0;        ///< $mux cells removed (control decided)
  size_t pmux_branches_removed = 0;
  size_t data_bits_replaced = 0;   ///< Fig. 2 style data-port substitutions
  size_t oracle_queries = 0;
  size_t iterations = 0;
};

/// Structural edits deferred out of a sweep. Mid-sweep the module must stay
/// internally consistent (the oracle bit-blasts sub-graphs of it, and a
/// collapsed-but-not-removed mux whose Y is already aliased to one of its
/// inputs would look like a combinational cycle), so connects and removals
/// are recorded here and applied at the barrier — in walk order, so replaying
/// a journal is deterministic. `mutated` records cells whose input ports were
/// shrunk in place (data-bit substitution, pmux branch drops): the index
/// maintenance needs to retract their stale reader entries.
struct SweepJournal {
  /// A cell created during the sweep (the fraig engine's complement-merge
  /// inverters; the muxtree walkers never add cells). `topo_pos` is the index
  /// position the cell takes — a freed position (from a cell in `removed`)
  /// sitting after the new cell's fanin drivers and before its readers.
  struct AddedCell {
    rtlil::Cell* cell;
    int topo_pos;
  };

  std::vector<std::pair<rtlil::SigSpec, rtlil::SigSpec>> connects;
  std::vector<rtlil::Cell*> removed;
  std::vector<rtlil::Cell*> mutated; ///< deduplicated, walk order
  std::vector<AddedCell> added;      ///< already in the module; indexed at apply

  bool empty() const noexcept {
    return connects.empty() && removed.empty() && mutated.empty() && added.empty();
  }
  void clear() {
    connects.clear();
    removed.clear();
    mutated.clear();
    added.clear();
  }
};

/// Optional record of every oracle decision a walk made, for differential
/// testing between the serial and region engines. Entries are appended in
/// walk order and tagged with the walked root (its position in the module's
/// cell list — stable across design clones) and the sweep iteration.
struct DecisionTrace {
  struct Entry {
    uint32_t iteration;
    uint32_t root;
    uint64_t hash; ///< trace_hash(ctrl, decision)
  };
  std::vector<Entry> entries;
};

/// Stable (clone-comparable) hash of one decision: wire name + offset + verdict.
uint64_t trace_hash(const rtlil::SigBit& ctrl, CtrlDecision d);

/// Reduce a trace to a schedule- and replay-insensitive form: per-root block
/// sequences (one block per iteration the root was walked) with consecutive
/// duplicate blocks dropped, concatenated in root order. A serial engine that
/// re-walks every tree each sweep and a region engine that re-queues only
/// dirty regions reduce to the same canonical trace iff they made the same
/// productive decisions.
std::vector<uint64_t> canonical_trace(const DecisionTrace& trace);

/// The muxtree forest of a module: roots in module cell order, plus the
/// parent map for tree-internal cells (every output bit read by exactly one
/// mux/pmux through a data port — such cells are rewritten under the path
/// condition of the unique path to them).
struct MuxtreeForest {
  std::vector<rtlil::Cell*> roots;                    ///< module cell order
  std::unordered_map<rtlil::Cell*, rtlil::Cell*> parent; ///< internal -> reader
};

MuxtreeForest muxtree_forest(const rtlil::Module& module, const rtlil::NetlistIndex& index);

/// The unique mux/pmux cell reading all of `c`'s output bits through a data
/// port (single fanout, no output-port escape), or nullptr — the tree-edge
/// relation muxtree_forest is built from. Exposed so the region engine can
/// re-derive one region's forest without rescanning the module.
rtlil::Cell* unique_mux_parent(const rtlil::NetlistIndex& index, rtlil::Cell* c);

/// Fixpoint cap shared by the serial walker and the region sweep engine —
/// they must agree or the two engines could stop after different sweep
/// counts on a pathological design, breaking the bit-identical guarantee.
inline constexpr size_t kMaxSweepIterations = 16;

/// Cell -> position in the module's cell list. Captured once at engine start
/// and used as the stable root id for DecisionTrace entries (per-iteration
/// positions shift as cells are removed; clone designs agree on these ids).
std::unordered_map<const rtlil::Cell*, uint32_t> stable_cell_order(const rtlil::Module& module);

/// Walks one muxtree root at a time against a frozen netlist index,
/// deferring all structural edits into the journal (its only direct module
/// mutations are in-place input-port shrinks of walked tree cells). Reusable
/// scratch (the known-value maps of the path stack) lives for the walker's
/// lifetime.
class MuxtreeWalker {
public:
  MuxtreeWalker(const rtlil::NetlistIndex& index, MuxtreeOracle& oracle,
                MuxtreeStats& stats, SweepJournal& journal,
                DecisionTrace* trace = nullptr, uint32_t iteration = 0);
  ~MuxtreeWalker();

  /// Walk the tree rooted at `root` (skipped if a previous walk of this
  /// walker already scheduled it for removal). `root_order` tags the trace.
  void walk_root(rtlil::Cell* root, uint32_t root_order);

  bool changed() const noexcept;

private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

/// Apply one sweep's journal: retract removed cells from the index, mirror
/// the connects into module + index, refresh mutated cells' reader entries,
/// then physically remove the dead cells. Leaves `index` equal to a rebuild
/// of the edited module. With `finalize` (the default) the topo order is
/// compacted and the sigmap flattened for concurrent readers; a caller
/// applying many journals at one barrier passes false and calls
/// index.compact_topo() + index.sigmap().flatten() once afterwards.
void apply_sweep_journal(rtlil::Module& module, rtlil::NetlistIndex& index,
                         const SweepJournal& journal, bool finalize = true);

/// Walk every muxtree in `module`, removing never-active branches per the
/// oracle's decisions. Runs to fixpoint. Mutates the module; pair with
/// opt_expr + opt_clean afterwards to sweep disconnected logic.
MuxtreeStats optimize_muxtrees(rtlil::Module& module, MuxtreeOracle& oracle,
                               DecisionTrace* trace = nullptr);

} // namespace smartly::opt
