#include "rewrite/cut_enum.hpp"

#include <algorithm>

namespace smartly::rewrite {

bool Cut::subset_of(const Cut& o) const noexcept {
  if ((sign & ~o.sign) != 0 || size > o.size)
    return false;
  size_t j = 0;
  for (size_t i = 0; i < size; ++i) {
    while (j < o.size && o.leaves[j] < leaves[i])
      ++j;
    if (j == o.size || o.leaves[j] != leaves[i])
      return false;
    ++j;
  }
  return true;
}

namespace {

Cut trivial_cut(uint32_t node) {
  Cut c;
  c.leaves[0] = node;
  c.size = 1;
  c.sign = 1u << (node & 31);
  return c;
}

/// Merge two cuts into `out` (sorted union); false if more than 4 leaves.
bool merge_cuts(const Cut& a, const Cut& b, Cut& out) {
  size_t i = 0, j = 0, n = 0;
  while (i < a.size || j < b.size) {
    uint32_t next;
    if (j == b.size || (i < a.size && a.leaves[i] < b.leaves[j]))
      next = a.leaves[i++];
    else if (i == a.size || b.leaves[j] < a.leaves[i])
      next = b.leaves[j++];
    else {
      next = a.leaves[i];
      ++i, ++j;
    }
    if (n == 4)
      return false;
    out.leaves[n++] = next;
  }
  out.size = static_cast<uint8_t>(n);
  out.sign = a.sign | b.sign;
  for (size_t k = n; k < 4; ++k)
    out.leaves[k] = 0;
  return true;
}

} // namespace

void enumerate_cuts(const aig::Aig& aig, const CutOptions& options, CutSet& result) {
  const size_t nodes = aig.num_nodes();
  const size_t limit = options.cut_limit > 0 ? static_cast<size_t>(options.cut_limit) : 1;
  std::vector<Cut>& arena = result.arena;
  arena.clear();
  result.offset.clear();
  // Five cuts per AND node covers the default limit on the generated
  // circuits (industrial:2 keeps 4.1, top_cache_axi 4.5), so the arena
  // rarely regrows; reserved pages stay untouched until a cut needs them.
  arena.reserve(aig.num_ands() * std::min<size_t>(limit, 5));
  result.offset.reserve(nodes + 1);

  std::vector<Cut> merged;
  for (uint32_t n = 0; n < nodes; ++n) {
    result.offset.push_back(static_cast<uint32_t>(arena.size()));
    if (!aig.is_and(n)) // constant node 0 and primary inputs: no cut to store
      continue;

    // Pairwise merge of the fanins' cut sets, each with its fanin's trivial
    // cut, which the arena does not store (fanin node ids are < n, so sets
    // are final). The fanin ranges point into the arena, which grows only
    // after the merge.
    merged.clear();
    const uint32_t f0 = aig::lit_node(aig.fanin0(n));
    const uint32_t f1 = aig::lit_node(aig.fanin1(n));
    const CutRange c0 = result.cuts(f0);
    const CutRange c1 = result.cuts(f1);
    const Cut t0 = trivial_cut(f0);
    const Cut t1 = trivial_cut(f1);
    for (size_t i = 0; i <= c0.size(); ++i) {
      const Cut& a = i < c0.size() ? c0[i] : t0;
      for (size_t j = 0; j <= c1.size(); ++j) {
        const Cut& b = j < c1.size() ? c1[j] : t1;
        // 4-leaf bound pre-check on the signature union (popcount of the
        // bloom word underestimates the union size, never overestimates it).
        if (__builtin_popcount(a.sign | b.sign) > 4)
          continue;
        Cut m;
        if (merge_cuts(a, b, m))
          merged.push_back(m);
      }
    }

    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());

    // Dominated-cut pruning: in (size, lex) order a dominating cut sorts
    // before every cut it dominates, so one backward scan against the kept
    // prefix suffices.
    const size_t begin = arena.size();
    for (const Cut& c : merged) {
      if (arena.size() - begin >= limit)
        break;
      bool dominated = false;
      for (size_t k = begin; k < arena.size(); ++k) {
        if (arena[k].subset_of(c)) {
          dominated = true;
          break;
        }
      }
      if (!dominated)
        arena.push_back(c);
    }
  }
  result.offset.push_back(static_cast<uint32_t>(arena.size()));
}

} // namespace smartly::rewrite
