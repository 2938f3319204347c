#include "opt/region_partition.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

namespace smartly::opt {

using rtlil::Cell;
using rtlil::CellType;
using rtlil::NetlistIndex;
using rtlil::Port;
using rtlil::SigBit;

namespace {

using rtlil::combinational_adjacent_cells;

struct UnionFind {
  std::vector<size_t> parent;
  explicit UnionFind(size_t n) : parent(n) {
    for (size_t i = 0; i < n; ++i)
      parent[i] = i;
  }
  size_t find(size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  bool unite(size_t a, size_t b) {
    a = find(a);
    b = find(b);
    if (a == b)
      return false;
    // Deterministic representative: the smaller tree id (regions are later
    // ordered by first-root index, which ascends with tree id).
    if (b < a)
      std::swap(a, b);
    parent[b] = a;
    return true;
  }
};

} // namespace

std::vector<Cell*> cells_within_radius(const NetlistIndex& index,
                                       const std::vector<SigBit>& seeds, int radius) {
  rtlil::IdSet seen; // cell ids
  std::vector<Cell*> out;
  std::vector<Cell*> scratch;
  for (const SigBit& b : seeds) {
    if (!b.is_wire())
      continue;
    scratch.clear();
    combinational_adjacent_cells(index, index.sigmap()(b), scratch);
    for (Cell* c : scratch)
      if (seen.insert(c->id()))
        out.push_back(c);
  }
  // The seeds' neighbours are distance 1.
  rtlil::grow_combinational_ball(index, out, seen, radius - 1);
  return out;
}

std::vector<Cell*> region_read_closure(const NetlistIndex& index,
                                       const std::vector<Cell*>& tree_cells,
                                       int ball_radius) {
  std::vector<SigBit> select_bits;
  for (Cell* c : tree_cells)
    if (c->has_port(Port::S))
      for (const SigBit& raw : c->port(Port::S)) {
        const SigBit bit = index.sigmap()(raw);
        if (bit.is_wire())
          select_bits.push_back(bit);
      }
  // Oracle balls: extraction seeds cells adjacent to ctrl/known (depth 0)
  // and expands to distance k, i.e. k+1 cell layers from the select bits.
  std::vector<Cell*> closure = cells_within_radius(index, select_bits, ball_radius + 1);
  rtlil::IdSet seen; // cell ids
  for (const Cell* c : closure)
    seen.insert(c->id());
  // Walker reads: parent/child checks touch the 1-neighbourhood of every
  // tree bit (and read the S ports of mux readers found there).
  for (const Cell* c : tree_cells)
    for (Cell* n : index.combinational_neighbours(c))
      if (seen.insert(n->id()))
        closure.push_back(n);
  return closure;
}

RegionPartition partition_regions(const rtlil::Module& module, const NetlistIndex& index,
                                  const MuxtreeForest& forest, int ball_radius) {
  RegionPartition out;
  const size_t n_trees = forest.roots.size();
  out.trees = n_trees;
  if (n_trees == 0)
    return out;

  // Tree membership by cell id: chase parent chains (acyclic: data edges of
  // a DAG).
  constexpr size_t kNoTree = SIZE_MAX;
  std::vector<size_t> tree_of(module.cell_id_bound(), kNoTree);
  for (size_t i = 0; i < n_trees; ++i)
    tree_of[forest.roots[i]->id()] = i;
  std::vector<std::vector<Cell*>> tree_cells(n_trees);
  for (size_t i = 0; i < n_trees; ++i)
    tree_cells[i].push_back(forest.roots[i]);
  std::vector<Cell*> chain;
  for (const auto& [cell, parent] : forest.parent) {
    (void)parent;
    Cell* c = cell;
    chain.clear();
    while (tree_of[c->id()] == kNoTree) {
      chain.push_back(c);
      c = forest.parent.at(c);
    }
    const size_t t = tree_of[c->id()];
    for (Cell* link : chain) {
      tree_of[link->id()] = t;
      tree_cells[t].push_back(link);
    }
  }

  // Read closure per tree -> union trees that could read each other's cells.
  UnionFind uf(n_trees);
  std::vector<std::vector<Cell*>> tree_closures(n_trees);
  for (size_t t = 0; t < n_trees; ++t) {
    tree_closures[t] = region_read_closure(index, tree_cells[t], ball_radius);
    for (Cell* c : tree_closures[t]) {
      const size_t other = tree_of[c->id()];
      if (other != kNoTree && other != t)
        out.merged_edges += uf.unite(t, other) ? 1 : 0;
    }
  }

  // Emit regions in canonical order. Trees ascend by first-root module index
  // (forest.roots is in module cell order), so grouping by representative and
  // sorting by min tree id yields a schedule-independent ordering.
  std::unordered_map<size_t, size_t> rep_to_region;
  std::vector<rtlil::IdSet> closure_seen; // cell ids per region
  for (size_t t = 0; t < n_trees; ++t) {
    const size_t rep = uf.find(t);
    auto [it, inserted] = rep_to_region.try_emplace(rep, out.regions.size());
    if (inserted) {
      out.regions.emplace_back();
      out.closures.emplace_back();
      closure_seen.emplace_back();
    }
    Region& region = out.regions[it->second];
    region.roots.push_back(forest.roots[t]);
    region.tree_cells.insert(region.tree_cells.end(), tree_cells[t].begin(),
                             tree_cells[t].end());
    for (Cell* c : tree_closures[t])
      if (closure_seen[it->second].insert(c->id()))
        out.closures[it->second].push_back(c);
  }
  // rep_to_region assigns region ids in ascending first-tree order and trees
  // ascend by first-root module index, so regions are already canonical.
  return out;
}

} // namespace smartly::opt
