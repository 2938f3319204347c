#include "opt/parallel_sweep.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"

#include <algorithm>
#include <deque>
#include <unordered_set>

namespace smartly::opt {

using rtlil::Cell;
using rtlil::NetlistIndex;
using rtlil::Port;
using rtlil::SigBit;

namespace {

struct RegionState {
  std::vector<Cell*> roots;      ///< stable_order ascending
  std::vector<Cell*> tree_cells; ///< membership queries only (unordered)
  /// Canonical port bits of every read-closure cell. A barrier net merge can
  /// only influence this region if one of the merged bits is in here, so the
  /// cross-region dirty test is pure hash lookups — no per-barrier BFS.
  /// Conservative between recomputes: local edits only shrink the closure.
  std::unordered_set<SigBit> closure_bits;
  bool dirty = true;
  bool alive = true;
  /// Barrier scratch: foreign regions a recomputed closure reaches.
  std::vector<size_t> overlaps;
};

/// closure_bits of a freshly computed closure cell set.
std::unordered_set<SigBit> closure_bit_set(const NetlistIndex& index,
                                           const std::vector<Cell*>& closure_cells) {
  std::unordered_set<SigBit> bits;
  for (Cell* c : closure_cells)
    for (int pi = 0; pi < rtlil::kPortCount; ++pi) {
      const Port p = static_cast<Port>(pi);
      if (!c->has_port(p))
        continue;
      for (const SigBit& raw : c->port(p)) {
        const SigBit bit = index.sigmap()(raw);
        if (bit.is_wire())
          bits.insert(bit);
      }
    }
  return bits;
}

/// Recompute region `self`'s read closure on the current index, refresh its
/// closure_bits, and return the foreign regions whose trees the closure now
/// reaches — the engine's safety invariant check.
std::vector<size_t> refresh_closure(RegionState& r, size_t self, const NetlistIndex& index,
                                    const std::unordered_map<const Cell*, size_t>& region_of,
                                    int ball_radius) {
  const std::vector<Cell*> closure = region_read_closure(index, r.tree_cells, ball_radius);
  r.closure_bits = closure_bit_set(index, closure);
  std::vector<size_t> overlaps;
  std::unordered_set<size_t> seen;
  for (Cell* c : closure) {
    auto it = region_of.find(c);
    if (it != region_of.end() && it->second != self && seen.insert(it->second).second)
      overlaps.push_back(it->second);
  }
  return overlaps;
}

/// Stable id of a region: the minimum bit_unit_id over its roots' first
/// output bits. Name-based (raw bits, not sigmap representatives) and
/// min-reduced, so the id is independent of root order and of a
/// write_verilog round-trip — the recovery layer quarantines regions under
/// it ("sweep.region"), and unit-keyed fault plans key on it.
uint64_t region_unit_id(const std::vector<Cell*>& roots) {
  uint64_t best = 0;
  for (const Cell* root : roots) {
    for (const SigBit& bit : root->port(root->output_port())) {
      if (!bit.is_wire())
        continue;
      const uint64_t id = util::bit_unit_id(bit.wire->name(), bit.offset);
      if (best == 0 || id < best)
        best = id;
      break; // first output bit per root
    }
  }
  return best == 0 ? 1 : best;
}

} // namespace

ParallelSweepStats parallel_sweep(rtlil::Module& module, MuxtreeOracle& oracle,
                                  const ParallelSweepOptions& options, DecisionTrace* trace) {
  const obs::Span engine_span("sweep", "sweep.run", "cells",
                              static_cast<uint64_t>(module.cells().size()));
  ParallelSweepStats stats;
  NetlistIndex index(module);
  index.sigmap().flatten();
  oracle.begin_module(module, index);

  const auto stable_order = stable_cell_order(module);
  const MuxtreeForest forest = muxtree_forest(module, index);
  const RegionPartition partition =
      partition_regions(module, index, forest, options.ball_radius);
  stats.regions = partition.regions.size();

  std::vector<RegionState> regions(partition.regions.size());
  std::unordered_map<const Cell*, size_t> region_of; // mux tree cell -> region id
  for (size_t i = 0; i < partition.regions.size(); ++i) {
    regions[i].roots = partition.regions[i].roots;
    regions[i].tree_cells = partition.regions[i].tree_cells;
    // Initial closure bits from the closure the partitioner already walked.
    regions[i].closure_bits = closure_bit_set(index, partition.closures[i]);
    for (Cell* c : regions[i].tree_cells)
      region_of.emplace(c, i);
  }

  struct Slot {
    SweepJournal journal;
    DecisionTrace trace;
  };

  util::ResourceGuard* guard = options.guard;
  // After a halt: record it and count the dirty regions left unvisited.
  const auto halt_engine = [&] {
    stats.halted = 1;
    size_t abandoned = 0;
    for (const RegionState& r : regions)
      if (r.alive && r.dirty && !r.tree_cells.empty())
        ++abandoned;
    stats.regions_skipped_halt = abandoned;
    if (guard != nullptr && abandoned > 0)
      guard->note_skipped_regions(abandoned);
  };

  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    // Budgets are charged by the oracle; there is no growth cap here.
    const util::RoundEntry entry = util::enter_round(guard, options.quarantine,
                                                     "sweep.iteration", iter + 1, 0);
    if (entry == util::RoundEntry::Skip) {
      ++stats.quarantined;
      continue;
    }
    if (entry == util::RoundEntry::Halt) {
      halt_engine();
      break;
    }
    ++stats.walker.iterations;
    const obs::Span iter_span("sweep", "sweep.iteration", "iter",
                              static_cast<uint64_t>(iter + 1));

    std::vector<RegionState*> work;
    std::vector<uint64_t> work_units; ///< stable region ids, parallel to work
    for (RegionState& r : regions) {
      if (!r.alive)
        continue;
      if (!r.dirty) {
        ++stats.regions_skipped_clean;
        continue;
      }
      const uint64_t unit = region_unit_id(r.roots);
      if (options.quarantine != nullptr &&
          options.quarantine->contains("sweep.region", unit)) {
        // Quarantined region: never walked. It stays dirty, so a later
        // merge (which changes its id) gets a fresh chance.
        ++stats.quarantined;
        continue;
      }
      work.push_back(&r);
      work_units.push_back(unit);
    }
    if (work.empty())
      break;

    // Walks: the module and index stay at their iteration-start state
    // except for in-place input-port shrinks of each region's own tree
    // cells, which no other region's read closure can reach (see
    // region_partition.hpp). Journals wait until every walk is done.
    std::vector<Slot> slots(work.size());
    try {
      for (size_t i = 0; i < work.size(); ++i) {
        // Mid-phase halts only come from deadline/cancel/faults; a skipped
        // region keeps an empty journal and is marked clean below (a missed
        // optimization, never an invalid state).
        if ((guard != nullptr && guard->poll()) ||
            util::fault_unknown("sweep.region", work_units[i]))
          continue;
        const obs::Span region_span("sweep", "sweep.region", "region", work_units[i]);
        Slot& slot = slots[i];
        // The walker counts into stats.walker directly; it never touches
        // `iterations`, which this loop counts.
        MuxtreeWalker walker(index, oracle, stats.walker, slot.journal,
                             trace ? &slot.trace : nullptr, static_cast<uint32_t>(iter));
        for (Cell* root : work[i]->roots)
          walker.walk_root(root, stable_order.at(root));
      }
    } catch (const util::FaultInjected& e) {
      // Only the oracle can throw inside a walk, and every in-place port
      // edit is journaled before the next oracle call — so the slot journals
      // are complete records of what actually mutated. Apply them in region
      // order to restore index consistency, then stop. Only injected faults
      // are absorbed; real errors keep propagating.
      util::halt_on_fault(guard, e);
      for (const Slot& slot : slots)
        if (!slot.journal.empty())
          apply_sweep_journal(module, index, slot.journal, /*finalize=*/false);
      index.compact_topo();
      index.sigmap().flatten();
      halt_engine();
      break;
    }

    // Barrier: aggregate and apply in region order.
    bool any_change = false;
    // Both sides of every applied connect, in sweep-time *and* post-apply
    // canonicalization: the nets through which one region's edits can reach
    // another (foreign mux cells are excluded from every extraction ball by
    // the partition invariant, and foreign non-mux cells never change).
    std::unordered_set<SigBit> merge_bits;
    {
      const obs::Span apply_span("sweep", "sweep.apply");
      for (size_t i = 0; i < work.size(); ++i) {
        ++stats.region_walks;
        if (trace)
          trace->entries.insert(trace->entries.end(), slots[i].trace.entries.begin(),
                                slots[i].trace.entries.end());
        if (slots[i].journal.empty()) {
          work[i]->dirty = false;
          continue;
        }
        any_change = true;
        // A region that edited anything re-runs: its own connects/constants can
        // enable further decisions, exactly like the serial fixpoint.
        work[i]->dirty = true;
        for (const auto& [lhs, rhs] : slots[i].journal.connects)
          for (const auto* spec : {&lhs, &rhs})
            for (const SigBit& raw : *spec) {
              const SigBit bit = index.sigmap()(raw);
              if (bit.is_wire())
                merge_bits.insert(bit); // sweep-time representative
            }
        for (Cell* c : slots[i].journal.removed)
          region_of.erase(c);
        if (!slots[i].journal.removed.empty()) {
          std::unordered_set<Cell*> dead(slots[i].journal.removed.begin(),
                                         slots[i].journal.removed.end());
          auto& cells = work[i]->tree_cells;
          cells.erase(std::remove_if(cells.begin(), cells.end(),
                                     [&](Cell* c) { return dead.count(c) != 0; }),
                      cells.end());
        }
        apply_sweep_journal(module, index, slots[i].journal, /*finalize=*/false);
      }
      if (any_change) {
        index.compact_topo();
        index.sigmap().flatten();
        std::vector<SigBit> post;
        post.reserve(merge_bits.size());
        for (const SigBit& b : merge_bits)
          post.push_back(index.sigmap()(b)); // post-apply representative
        merge_bits.insert(post.begin(), post.end());
      }
    }
    if (!any_change)
      break;

    // Re-derive the muxtree forest only inside regions that edited anything:
    // tree edges never cross region boundaries, and an empty-journal region's
    // parent relation cannot have changed (its cells' output readers can only
    // gain/lose entries through its own connects/removals — a foreign mux
    // adjacent enough to matter would have merged regions at partition time).
    {
      const obs::Span forest_span("sweep", "sweep.forest");
      for (size_t i = 0; i < work.size(); ++i) {
        if (slots[i].journal.empty())
          continue;
        RegionState& r = *work[i];
        r.roots.clear();
        for (Cell* c : r.tree_cells)
          if (!unique_mux_parent(index, c))
            r.roots.push_back(c);
        std::sort(r.roots.begin(), r.roots.end(), [&](Cell* a, Cell* b) {
          return stable_order.at(a) < stable_order.at(b);
        });
      }
    }

    // Cross-region dirty propagation: a region whose closure reads one of
    // the merged nets must re-run, and — since the merge can extend its
    // closure by one hop through the merged class — gets its closure
    // recomputed and rechecked for new overlaps. Everything
    // else was already marked dirty by its own journal; shrink-only edits
    // cannot grow a closure, so their stale closure_bits stay conservative.
    const obs::Span dirty_span("sweep", "sweep.dirty");
    for (size_t i = 0; i < regions.size(); ++i) {
      RegionState& r = regions[i];
      if (!r.alive)
        continue;
      r.overlaps.clear();
      if (r.tree_cells.empty()) {
        // Every tree collapsed: nothing left to walk or to invalidate.
        r.dirty = false;
        r.closure_bits.clear();
        continue;
      }
      for (const SigBit& b : merge_bits)
        if (r.closure_bits.count(b)) {
          r.dirty = true;
          r.overlaps = refresh_closure(r, i, index, region_of, options.ball_radius);
          break;
        }
    }

    // Merge pass, ascending region id; merges are rare.
    std::deque<size_t> recheck;
    for (size_t i = 0; i < regions.size(); ++i)
      if (regions[i].alive && !regions[i].overlaps.empty())
        recheck.push_back(i);
    while (!recheck.empty()) {
      const size_t rid = recheck.front();
      recheck.pop_front();
      RegionState& r = regions[rid];
      if (!r.alive)
        continue;
      std::unordered_set<size_t> overlaps;
      for (size_t o : r.overlaps)
        if (regions[o].alive && o != rid)
          overlaps.insert(o);
      r.overlaps.clear();
      if (overlaps.empty())
        continue;
      size_t target = rid;
      for (size_t o : overlaps)
        target = std::min(target, o);
      overlaps.insert(rid);
      overlaps.erase(target);
      RegionState& into = regions[target];
      for (size_t o : overlaps) {
        RegionState& victim = regions[o];
        victim.alive = false;
        into.roots.insert(into.roots.end(), victim.roots.begin(), victim.roots.end());
        into.tree_cells.insert(into.tree_cells.end(), victim.tree_cells.begin(),
                               victim.tree_cells.end());
        into.closure_bits.insert(victim.closure_bits.begin(), victim.closure_bits.end());
        for (Cell* c : victim.tree_cells)
          region_of[c] = target;
        victim.roots.clear();
        victim.tree_cells.clear();
        victim.closure_bits.clear();
        ++stats.region_merges;
      }
      std::sort(into.roots.begin(), into.roots.end(), [&](Cell* a, Cell* b) {
        return stable_order.at(a) < stable_order.at(b);
      });
      into.dirty = true;
      // The union's closure needs its own overlap pass.
      into.overlaps = refresh_closure(into, target, index, region_of, options.ball_radius);
      if (!into.overlaps.empty())
        recheck.push_back(target);
    }
  }

  // End-of-run totals from the stats struct.
  static obs::Counter& m_iterations = obs::counter("sweep.iterations");
  static obs::Counter& m_walks = obs::counter("sweep.region_walks");
  static obs::Counter& m_clean = obs::counter("sweep.regions_skipped_clean");
  static obs::Counter& m_merges = obs::counter("sweep.region_merges");
  static obs::Counter& m_regions = obs::counter("sweep.regions");
  m_iterations.add(stats.walker.iterations);
  m_walks.add(stats.region_walks);
  m_clean.add(stats.regions_skipped_clean);
  m_merges.add(stats.region_merges);
  m_regions.add(stats.regions);
  return stats;
}

} // namespace smartly::opt
