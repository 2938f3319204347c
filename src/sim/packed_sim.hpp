// Exhaustive packed (64-way) simulation of AIG sub-graphs.
//
// §II of the paper: "For a smaller number of inputs, simulation is more
// efficient, while the SAT solver is better suited for handling larger sets
// of inputs." This module is the simulation side: it enumerates all
// assignments of the sub-graph's free inputs 64 patterns at a time, discards
// patterns that contradict the known signal values (which is how logical
// dependencies between control signals are honoured), and reports whether
// the target signal is forced.
//
// The sweep terminates as soon as both target polarities have been observed
// rather than enumerating all 2^k assignments; `SimResult::early_exit`
// surfaces that event to the oracle's `sim_filter_half` counter.
#pragma once

#include "aig/aig.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace smartly::sim {

enum class Forced {
  None,          ///< target can be 0 or 1
  Zero,          ///< target is 0 under every consistent assignment
  One,           ///< target is 1 under every consistent assignment
  Contradiction, ///< no assignment satisfies the constraints (dead path)
};

struct SimOptions {
  int max_free_inputs = 14; ///< give up (Forced::None) above 2^14 patterns
};

struct SimResult {
  Forced forced = Forced::None;
  /// Every consistent assignment was examined (the verdict is exhaustive,
  /// not a give-up). False when free inputs exceed max_free_inputs or when
  /// the sweep exited early on None.
  bool exhausted = false;
  /// The sweep stopped before its last word because both target polarities
  /// had been observed ("half sweep" — surfaced as sim_filter_half).
  bool early_exit = false;
};

/// Decide whether `target` is forced under `constraints` (pairs of AIG
/// literal and required value), with early-exit accounting.
SimResult exhaustive_forced_ex(const aig::Aig& aig,
                               const std::vector<std::pair<aig::Lit, bool>>& constraints,
                               aig::Lit target, const SimOptions& options);

/// Exhaustively decide whether `target` is forced under `constraints`
/// (pairs of AIG literal and required value). Inputs directly constrained are
/// fixed; the rest are enumerated. Returns Forced::None without work if the
/// number of free inputs exceeds `max_free_inputs`.
Forced exhaustive_forced(const aig::Aig& aig,
                         const std::vector<std::pair<aig::Lit, bool>>& constraints,
                         aig::Lit target, int max_free_inputs = 14);

// --- multi-word signature simulation (SAT-sweeping support) ----------------
//
// The fraig engine classifies every combinational bit of a whole-netlist AIG
// by its behaviour over W×64 packed patterns. One pass over the AIG evaluates
// each AND node across all W batches, reading and writing contiguous rows.

/// Per-node simulation words over W independent 64-pattern batches, stored
/// node-major: row(node) is the node's W contiguous words, word w holding
/// batch w's 64 pattern results.
class SignatureTable {
public:
  SignatureTable() = default;
  /// A table of `num_nodes` zeroed rows.
  SignatureTable(size_t num_nodes, size_t num_words) {
    reshape(num_nodes, num_words);
    std::fill_n(data_.get(), num_nodes * num_words, uint64_t(0));
  }

  /// Re-dimension to `num_nodes` rows of `num_words` words. The storage is
  /// kept when it holds them; otherwise it is replaced by one holding
  /// max(`capacity`, num_nodes × num_words) words. Rows hold unspecified
  /// values until written.
  void reshape(size_t num_nodes, size_t num_words, size_t capacity = 0) {
    const size_t need = num_nodes * num_words;
    if (need > capacity_) {
      data_.reset(); // release before allocating: never two tables at once
      capacity_ = std::max(need, capacity);
      data_.reset(new uint64_t[capacity_]);
    }
    nodes = num_nodes;
    words = num_words;
  }

  size_t words = 0; ///< number of 64-pattern batches (W)
  size_t nodes = 0; ///< aig.num_nodes() at simulation time

  uint64_t* row(uint32_t node) { return data_.get() + node * words; }
  const uint64_t* row(uint32_t node) const { return data_.get() + node * words; }

private:
  std::unique_ptr<uint64_t[]> data_;
  size_t capacity_ = 0; ///< words data_ holds
};

/// Fill every AND node's row of `table` (sized for `aig`) from the rows of
/// the AIG inputs and the constant node, which the caller has written: the
/// patterns are rendered straight into the table, so no separate input block
/// or copy exists. Rows of inputs no AND node reads may stay unwritten.
void simulate_signatures(const aig::Aig& aig, SignatureTable& table);

// --- cut truth-table extraction (DAG-aware rewriting support) --------------

/// Projection word of cut input `i` (i < 4): bit m of the word is the value
/// of input i in minterm m — the packed-simulation pattern set that makes one
/// 16-pattern sweep of a 4-leaf cone yield the cone's full truth table.
constexpr uint16_t cut_projection(size_t i) {
  constexpr uint16_t proj[4] = {0xaaaa, 0xcccc, 0xf0f0, 0xff00};
  return proj[i];
}

/// Per-node scratch for walks over one AIG's cones: a 32-bit value per node
/// that reads as set only while its stamp equals the current walk's, so a
/// walk starts in O(1) and allocates nothing. One instance, sized for the
/// AIG, serves every walk of a rewrite round.
class NodeScratch {
public:
  /// Size for an AIG of `nodes` nodes; every node reads as unset.
  void resize(size_t nodes) {
    stamp_.assign(nodes, 0);
    value_.resize(nodes);
    epoch_ = 1;
  }
  /// Start a walk: every node reads as unset again.
  void begin() {
    if (++epoch_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }
  bool has(uint32_t node) const { return stamp_[node] == epoch_; }
  uint32_t& operator[](uint32_t node) { return value_[node]; }
  void set(uint32_t node, uint32_t value) {
    stamp_[node] = epoch_;
    value_[node] = value;
  }
  std::vector<uint32_t> stack; ///< the walk's worklist

private:
  std::vector<uint32_t> stamp_;
  std::vector<uint32_t> value_;
  uint32_t epoch_ = 1;
};

/// Truth table of `root` as a function of up to four cut leaves, extracted by
/// packed simulation of the cone over the 16 projection patterns: leaf i's
/// *literal* takes cut_projection(i) (so a complemented leaf literal models
/// the complement anchor bit), interior nodes evaluate bitwise. Returns false
/// — and leaves `tt` untouched — if the cone escapes the leaf set (reaches a
/// primary input or the constant node that is not listed as a leaf), which
/// marks the cut unusable rather than being an error.
/// `scratch` (sized for `aig`) holds the cone's words.
bool cut_truth_table(const aig::Aig& aig, aig::Lit root, const aig::Lit* leaves,
                     size_t num_leaves, uint16_t& tt, NodeScratch& scratch);

} // namespace smartly::sim
