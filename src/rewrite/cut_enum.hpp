// k-feasible cut enumeration (k = 4) with dominated-cut pruning.
//
// A cut of node n is a set of nodes ("leaves") such that every path from a
// primary input to n passes through a leaf; n is then a function of the
// leaves, and for |leaves| <= 4 that function is a 16-bit truth table the
// rewriting engine can classify and resynthesize. Cuts are built bottom-up
// in one topological pass (AIG node ids are topologically increasing): the
// cut set of an AND node is the pairwise merge of its fanins' cut sets, each
// with the fanin's trivial cut {f}, pruned in two ways —
//
//   dominance   a cut whose leaves are a superset of another cut's leaves is
//               dropped (the dominating cut yields the same or a larger cone
//               for fewer leaves);
//   priority    at most `cut_limit` non-trivial cuts survive per node, kept
//               in (size, leaves) lexicographic order — deterministic, and
//               biased toward small cuts whose cones merge further up.
//
// The 32-bit leaf signature (1 << (leaf & 31)) makes subset tests and the
// 4-leaf bound cheap before any array comparison.
//
// All kept cuts live in one arena, node after node, with per-node offsets,
// so an enumeration allocates nothing per node. The trivial cut {n} is
// implied, never stored.
#pragma once

#include "aig/aig.hpp"

#include <array>
#include <cstdint>
#include <vector>

namespace smartly::rewrite {

struct Cut {
  std::array<uint32_t, 4> leaves{}; ///< sorted ascending; [0, size) valid
  uint8_t size = 0;
  uint32_t sign = 0; ///< bloom signature: OR of 1 << (leaf & 31)

  bool operator==(const Cut& o) const noexcept {
    return size == o.size && leaves == o.leaves;
  }
  /// Deterministic priority order: smaller first, then leaf-lexicographic.
  bool operator<(const Cut& o) const noexcept {
    if (size != o.size)
      return size < o.size;
    return leaves < o.leaves;
  }
  /// True when this cut's leaves are a subset of `o`'s (it dominates o).
  bool subset_of(const Cut& o) const noexcept;
};

struct CutOptions {
  int cut_limit = 8; ///< non-trivial cuts kept per node
};

/// One node's cuts: a view into the CutSet's arena.
class CutRange {
public:
  CutRange(const Cut* first, size_t n) : first_(first), n_(n) {}
  const Cut* begin() const noexcept { return first_; }
  const Cut* end() const noexcept { return first_ + n_; }
  size_t size() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }
  const Cut& operator[](size_t i) const noexcept { return first_[i]; }

private:
  const Cut* first_;
  size_t n_;
};

/// Every node's cuts in one arena, node after node in id order.
struct CutSet {
  /// The non-trivial cuts of node n in priority order (none for inputs and
  /// the constant node).
  CutRange cuts(uint32_t n) const {
    return CutRange(arena.data() + offset[n], offset[n + 1] - offset[n]);
  }

  std::vector<Cut> arena;       ///< every kept cut: its size is the cut count
  std::vector<uint32_t> offset; ///< node n's cuts are arena[offset[n], offset[n + 1])
};

/// Enumerate the cuts of every node of `aig` into `cuts`, replacing its
/// contents and reusing its storage (a rewrite run refills one CutSet per
/// round).
void enumerate_cuts(const aig::Aig& aig, const CutOptions& options, CutSet& cuts);

} // namespace smartly::rewrite
