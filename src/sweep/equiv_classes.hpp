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
// Each round does flat, sequential work over what can form a class: pad
// lanes are drawn for the counterexample batches the rendered inputs lack,
// patterns are rendered from a column pool straight into the input rows of a
// node-major signature table, one AIG pass simulates every batch, and the
// candidate nodes are grouped by a hash of their normalized rows in an
// open-addressing table, members confirmed by exact row comparison.
//
// An AIG input that no AND node or output reads and that carries a single
// candidate bit (a "lone unread input") gets no slot, row, pad or hash: its
// row is its own name-seeded patterns, which equal another node's row only
// by chance — sim_words × 64 independent random bits, 512 at the default —
// so it can join no class. Its slot is created when a later round renders it.
//
// Determinism: base patterns derive from (seed, wire name, batch index) and
// counterexamples are appended in canonical class order at engine barriers,
// so signatures — and therefore classes — are a pure function of the module
// content.
#pragma once

#include "aig/aigmap.hpp"
#include "rtlil/module.hpp"
#include "rtlil/topo.hpp"
#include "sim/packed_sim.hpp"
#include "util/hashing.hpp"

#include <cstdint>
#include <memory>
#include <vector>

namespace smartly::sweep {

/// Seed of the name-seeded base batches and of the pad lanes.
inline constexpr uint64_t kSignatureSeed = 0x5eedba5e;

struct EquivClassOptions {
  size_t sim_words = 8;    ///< random base batches (64 patterns each)
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
  /// The class's members are ClassSet::members[first, last), in canonical
  /// order: (topo_pos, rank) ascending. The first is the merge
  /// representative of non-constant classes — the topologically earliest
  /// member, so committed merges always point backwards and can never close
  /// a combinational cycle.
  uint32_t first = 0;
  uint32_t last = 0;
};

/// One round's candidate classes, flat: every member of every class in one
/// array, each class a range of it, classes in canonical order (by their
/// first member). compute() refills it, so a set kept across rounds
/// allocates only while it grows.
struct ClassSet {
  std::vector<EquivMember> members;
  std::vector<EquivClass> classes;

  size_t size() const noexcept { return classes.size(); }
  bool empty() const noexcept { return classes.empty(); }
  const EquivMember* begin(const EquivClass& c) const noexcept { return members.data() + c.first; }
  const EquivMember* end(const EquivClass& c) const noexcept { return members.data() + c.last; }
  const EquivMember& front(const EquivClass& c) const noexcept { return members[c.first]; }
};

/// A counterexample: values for a subset of the blast AIG's input bits
/// (missing bits are filled deterministically from the pattern seed).
using InputAssignment = std::vector<std::pair<rtlil::SigBit, bool>>;

/// The pattern slots of one module's bits: bit id -> slot, and per slot the
/// stable bit hash (wire name folded once per wire, then the offset), the
/// base words and the pad words of each counterexample batch drawn so far.
/// Every entry is a pure function of the bit's name, so any number of
/// EquivClasses may use one table one after another and compute exactly what
/// each would with a table of its own; each keeps its own counterexample
/// pool. The deep loop (opt::fraig_rewrite_loop) shares one table across its
/// fraig stages, so each bit's slot is made once per design.
///
/// The table belongs to the module it is made for, and EquivClasses uses it
/// only when bound to that module object (a transaction's bisection probe
/// runs on a scratch copy, which gets a private table). Bit ids are never
/// reused within a module, restore_module included: a rollback gives the
/// restored wires new ids, so entries of the replaced wires are never read
/// again.
class PatternSlots {
public:
  explicit PatternSlots(const rtlil::Module& module,
                        size_t sim_words = EquivClassOptions{}.sim_words);

  const rtlil::Module& module() const noexcept { return *module_; }
  size_t sim_words() const noexcept { return sim_words_; }
  size_t size() const noexcept { return hash_.size(); }

private:
  friend class EquivClasses;
  static constexpr uint32_t kNone = 0xffffffffu;

  /// Slot of `bit`, created (base words drawn) on first use.
  uint32_t slot(const rtlil::SigBit& bit);
  /// Draw the pads of batches [pads_[s], batches) of slot `s`; returns the
  /// number drawn.
  size_t draw_pads(uint32_t s, uint32_t batches);
  uint64_t pad(uint32_t s, size_t batch) const { return pad_cols_[batch][s]; }

  const rtlil::Module* module_;
  size_t sim_words_;
  std::vector<uint32_t> slot_of_;  ///< rtlil::bit_id -> slot
  std::vector<uint64_t> hash_;     ///< stable bit hash per slot
  std::vector<uint64_t> base_words_; ///< [slot * sim_words + w]
  std::vector<uint32_t> pads_;     ///< leading batches with the slot's pad drawn
  std::vector<std::vector<uint64_t>> pad_cols_; ///< per batch, per slot
  uint32_t fold_base_ = kNone;     ///< bit_base() of the wire whose name is in fold_
  uint64_t fold_ = 0;
};

class EquivClasses {
public:
  /// With `slots` (see PatternSlots) the pattern slots come from that shared
  /// table while bound to its module, else from a private one.
  explicit EquivClasses(const EquivClassOptions& options = {}, PatternSlots* slots = nullptr);

  /// (Re)blast the module into a fresh whole-netlist AIG and collect its
  /// candidate bits. Call after every structural change (the fraig engine's
  /// round barriers); the pattern pool survives rebinds of the same module —
  /// counterexamples are keyed by module bit, not by AIG input index.
  void bind(const rtlil::Module& module, const rtlil::NetlistIndex& index);

  /// Simulate the pattern pool and partition all candidate bits into
  /// `out`'s classes (its previous contents are replaced, its storage
  /// reused). Singleton classes and classes with no mergeable member are
  /// dropped; classes and members are in canonical order.
  void compute(ClassSet& out);

  /// Add a counterexample pattern (after bind()). Returns false if it was a
  /// duplicate or the pool is full.
  bool add_counterexample(const std::pair<rtlil::SigBit, bool>* values, size_t count);
  bool add_counterexample(const InputAssignment& assignment) {
    return add_counterexample(assignment.data(), assignment.size());
  }

  const aig::AigMap& blast() const noexcept { return blast_; }
  /// Module bit whose patterns drive AIG input node `node`, which must be an
  /// input of blast().aig (a non-wire bit when no module bit maps to it).
  const rtlil::SigBit& input_bit(uint32_t node) const {
    return input_bits_[node_input_[node]];
  }
  size_t pattern_count() const noexcept { return patterns_; }
  /// Every wire bit of the blast, lone unread inputs included.
  size_t candidate_bits() const noexcept { return candidate_bits_; }
  /// Pad words this object drew: one per rendered slot per counterexample
  /// batch, less those a shared table already held.
  size_t pad_words() const noexcept { return pad_words_; }

private:
  static constexpr uint32_t kNone = 0xffffffffu; ///< no slot / not an AIG input

  /// Counterexample lanes of one bit in one 64-pattern batch. `value` bits
  /// are set only on `known` lanes; the slot's pad fills the others.
  struct Lanes {
    uint64_t known = 0;
    uint64_t value = 0;
  };

  /// Draw the pads of every batch a rendered slot lacks.
  void draw_pads();
  /// Size table_ for the blast (base batches, then one batch per 64
  /// counterexamples) and render the constant row and every rendered input
  /// row from the pool.
  void render();

  EquivClassOptions options_;
  PatternSlots* shared_; ///< the caller's table, or nullptr
  std::unique_ptr<PatternSlots> own_; ///< the table used off the shared one's module
  PatternSlots* slots_ = nullptr;     ///< the table of the bound module
  const rtlil::NetlistIndex* index_ = nullptr;
  aig::AigMap blast_;
  /// The wire bits compute() groups — all but those of lone unread inputs —
  /// with their literals, flat, in AIG node order.
  std::vector<std::pair<rtlil::SigBit, aig::Lit>> candidates_;
  size_t candidate_bits_ = 0;
  std::vector<rtlil::SigBit> input_bits_; ///< AIG input index -> module bit
  std::vector<uint32_t> node_input_; ///< AIG node -> input index, or kNone
  /// Inputs render() writes, every input but the lone unread ones: (AIG
  /// node, pool slot or kNone for an unmapped input).
  std::vector<std::pair<uint32_t, uint32_t>> rendered_;
  /// Signature rows, kept across compute() calls of one engine run.
  sim::SignatureTable table_;
  // compute()'s scratch, kept across rounds: the open-addressing table of
  // group leaders and the (leader, run) list.
  std::vector<uint64_t> leaders_;
  std::vector<std::pair<uint32_t, uint32_t>> grouped_;

  // Counterexample pool: per batch, the lanes of every slot (a column
  // shorter than the slot count reads as all unknown).
  std::vector<std::vector<Lanes>> cex_cols_;
  size_t patterns_ = 0;
  size_t pad_words_ = 0;
  std::vector<Hash128> cex_seen_; ///< sorted
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
