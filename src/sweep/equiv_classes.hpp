// Candidate equivalence-class discovery for the SAT-sweeping (fraig) engine.
//
// The §II oracle machinery answers "is this control bit forced *inside one
// muxtree path*?"; this module generalizes the same packed-simulation
// substrate to the whole netlist: every combinational bit is bit-blasted into
// one module-wide AIG and classified by its behaviour over W×64 random
// patterns (sim::simulate_signatures). Bits whose signatures agree modulo
// global complement land in one candidate class — a necessary condition for
// functional equivalence, so truly-equivalent (or complement) bits can never
// be separated by refinement. Counterexamples learned from disproved SAT
// miters are fed back into the pattern pool; the next compute() splits every
// class the new pattern distinguishes, which is what keeps the fraig engine
// from re-querying disproved pairs.
//
// Determinism: base patterns derive from (seed, wire name, batch index) and
// counterexamples are appended in canonical class order at engine barriers,
// so signatures — and therefore classes — are a pure function of the module
// content, never of the thread count.
#pragma once

#include "aig/aigmap.hpp"
#include "rtlil/module.hpp"
#include "rtlil/topo.hpp"
#include "util/hashing.hpp"

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace smartly::util {
class ThreadPool;
}

namespace smartly::sweep {

struct EquivClassOptions {
  size_t sim_words = 8;    ///< random base batches (64 patterns each)
  uint64_t seed = 0x5eedba5e;
  size_t max_patterns = 1024; ///< counterexample pool cap (packed 64/word)
};

/// One candidate member: a canonical module bit with its blast-AIG literal.
struct EquivMember {
  rtlil::SigBit bit;
  aig::Lit lit = 0;
  /// Raw signature is the complement of the class signature: the member is a
  /// candidate for NOT(rep) (complement classes) / constant one (constant
  /// classes).
  bool inverted = false;
  /// Combinational driver cell, or nullptr for free bits (primary inputs,
  /// undriven wires, dff Q) — free bits can anchor a class as its
  /// representative but are never merged away.
  rtlil::Cell* driver = nullptr;
  int topo_pos = -1; ///< driver's topo position; -1 for free bits
  uint64_t rank = 0; ///< stable tie-break: rtlil::bit_id (wire creation order)
};

struct EquivClass {
  /// The class signature is identically zero: members are candidates for a
  /// constant (S0 when !inverted, S1 when inverted) rather than for a
  /// representative bit.
  bool constant = false;
  /// Canonical order: (topo_pos, rank) ascending. members[0] is the merge
  /// representative of non-constant classes — the topologically earliest
  /// member, so committed merges always point backwards and can never close
  /// a combinational cycle.
  std::vector<EquivMember> members;
};

/// A counterexample: values for a subset of the blast AIG's input bits
/// (missing bits are filled deterministically from the pattern seed).
using InputAssignment = std::vector<std::pair<rtlil::SigBit, bool>>;

class EquivClasses {
public:
  explicit EquivClasses(const EquivClassOptions& options = {});

  /// (Re)blast the module into a fresh whole-netlist AIG. Call after every
  /// structural change (the fraig engine's round barriers); the pattern pool
  /// survives rebinds — counterexamples are keyed by module bit, not by AIG
  /// input index.
  void bind(const rtlil::Module& module, const rtlil::NetlistIndex& index);

  /// Simulate the pattern pool (batch-parallel on `pool` when given) and
  /// partition all candidate bits into classes. Singleton classes and
  /// classes with no mergeable member are dropped; classes and members are
  /// in canonical order.
  std::vector<EquivClass> compute(util::ThreadPool* pool = nullptr);

  /// Add a counterexample pattern. Returns false if it was a duplicate or
  /// the pool is full.
  bool add_counterexample(const InputAssignment& assignment);

  const aig::AigMap& blast() const noexcept { return blast_; }
  /// AIG input index -> module bit (Aig::inputs() order).
  const std::vector<rtlil::SigBit>& input_bits() const noexcept { return input_bits_; }
  /// AIG input node -> input index.
  const std::unordered_map<uint32_t, size_t>& input_node_index() const noexcept {
    return input_node_index_;
  }
  size_t pattern_count() const noexcept { return cex_.size(); }
  size_t candidate_bits() const noexcept { return candidate_bits_; }

private:
  /// Pad-lane value of an input bit, given its stable_bit_hash.
  uint64_t fill_bit(uint64_t bit_hash, size_t pattern_index) const;

  EquivClassOptions options_;
  const rtlil::Module* module_ = nullptr;
  const rtlil::NetlistIndex* index_ = nullptr;
  aig::AigMap blast_;
  std::vector<rtlil::SigBit> input_bits_;
  std::unordered_map<uint32_t, size_t> input_node_index_;
  size_t candidate_bits_ = 0;

  std::vector<std::unordered_map<rtlil::SigBit, bool>> cex_;
  std::unordered_set<Hash128, Hash128Hasher> cex_seen_;
  /// Rendered pattern words per input bit (base batches + full cex batches);
  /// round-invariant, so compute() only renders what the pool grew by.
  std::unordered_map<rtlil::SigBit, std::vector<uint64_t>> word_cache_;
};

/// Content fingerprint of one cell: type, parameters, and canonicalized
/// input connections, with commutative operand order normalized. Two cells
/// with equal keys compute the same function from the same nets — the shared
/// "trivially identical" notion used by opt_merge's structural pre-pass and
/// the fraig engine's pre-merge.
Hash128 cell_structural_key(const rtlil::Cell& cell, const rtlil::SigMap& sigmap);

/// Exact form of the same notion: type, parameters, and normalized canonical
/// inputs compared field-for-field. opt_merge verifies this on every key hit
/// before aliasing — unlike the fraig engine's merges it has no SAT proof or
/// CEC backstop, so a fingerprint collision must not produce a wrong merge.
bool cell_structurally_identical(const rtlil::Cell& a, const rtlil::Cell& b,
                                 const rtlil::SigMap& sigmap);

/// Operand order of A/B is semantically irrelevant for these cell types
/// (shared by opt_merge and cell_structural_key).
bool cell_inputs_commutative(rtlil::CellType type) noexcept;

} // namespace smartly::sweep
