#include "sweep/equiv_classes.hpp"

#include "sim/packed_sim.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>

namespace smartly::sweep {

using rtlil::Cell;
using rtlil::CellType;
using rtlil::SigBit;

namespace {

/// Hash of a wire bit that is stable across design clones and process runs
/// (SigBit::hash mixes the wire pointer): wire name + offset.
uint64_t stable_bit_hash(const SigBit& bit) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bit.wire->name())
    h = hash_combine(h, c);
  return hash_combine(h, static_cast<uint64_t>(bit.offset));
}

} // namespace

EquivClasses::EquivClasses(const EquivClassOptions& options) : options_(options) {
  if (options_.sim_words == 0)
    options_.sim_words = 1;
}

void EquivClasses::bind(const rtlil::Module& module, const rtlil::NetlistIndex& index) {
  module_ = &module;
  index_ = &index;
  blast_ = aig::aigmap(module, index);

  // Reverse map: AIG input node -> module bit. Several bits can carry the
  // same plain input literal (a cell output strash-folds onto an input, e.g.
  // y = a & a), and blast_.bits iterates in pointer-hash order — so the
  // winner must be chosen deterministically: prefer the true free bit (no
  // combinational driver), then the lowest bit id (wire creation order).
  // Patterns are seeded from the winner's name; a pointer-dependent choice
  // would breach the cross-clone determinism contract.
  input_bits_.assign(blast_.aig.num_inputs(), SigBit());
  input_node_index_.clear();
  for (size_t i = 0; i < blast_.aig.num_inputs(); ++i)
    input_node_index_.emplace(blast_.aig.inputs()[i], i);
  const auto is_free = [&](const SigBit& bit) {
    const rtlil::Cell* driver = index.driver(bit);
    return !driver || driver->type() == rtlil::CellType::Dff;
  };
  for (const auto& [bit, lit] : blast_.bits) {
    if (aig::lit_compl(lit) || !bit.is_wire())
      continue;
    auto it = input_node_index_.find(aig::lit_node(lit));
    if (it == input_node_index_.end())
      continue;
    SigBit& slot = input_bits_[it->second];
    if (!slot.is_wire()) {
      slot = bit;
      continue;
    }
    const bool bit_free = is_free(bit);
    const bool slot_free = is_free(slot);
    if (bit_free != slot_free ? bit_free : rtlil::bit_id(bit) < rtlil::bit_id(slot))
      slot = bit;
  }
}

uint64_t EquivClasses::fill_bit(uint64_t bit_hash, size_t pattern_index) const {
  return hash_mix(hash_combine(options_.seed ^ 0xf111f111f111f111ULL,
                               hash_combine(bit_hash, pattern_index))) &
         1;
}

std::vector<EquivClass> EquivClasses::compute(util::ThreadPool* pool) {
  const size_t n_inputs = blast_.aig.num_inputs();
  const size_t cex_batches = (cex_.size() + 63) / 64;
  const size_t n_batches = options_.sim_words + cex_batches;

  // Pattern words are a pure function of (seed, wire name, batch) — base
  // batches are name-seeded Rng draws, a *full* counterexample batch never
  // changes once its 64 lanes are filled. Both are cached per bit across
  // rounds (the cache is keyed by module bit, so it survives re-blasts);
  // only the final partial cex batch is re-rendered, since its padded lanes
  // fill in as the pool grows. `bit_hash` is stable_bit_hash(bit), hashed
  // once per input bit per call.
  const auto render_batch = [&](const SigBit& bit, uint64_t bit_hash, size_t w) {
    if (w < options_.sim_words) {
      Rng rng(hash_combine(hash_combine(options_.seed, bit_hash), w));
      return rng.next();
    }
    uint64_t word = 0;
    for (size_t lane = 0; lane < 64; ++lane) {
      const size_t idx = (w - options_.sim_words) * 64 + lane;
      uint64_t v;
      if (idx < cex_.size()) {
        auto it = cex_[idx].find(bit);
        v = it != cex_[idx].end() ? (it->second ? 1 : 0) : fill_bit(bit_hash, idx);
      } else {
        v = fill_bit(bit_hash, idx); // pad lanes beyond the pool deterministically
      }
      word |= v << lane;
    }
    return word;
  };

  const size_t cacheable = options_.sim_words + cex_.size() / 64; // full batches only
  std::vector<std::vector<uint64_t>> batch_inputs(n_batches);
  for (auto& words : batch_inputs)
    words.resize(n_inputs, 0);
  for (size_t i = 0; i < n_inputs; ++i) {
    const SigBit& bit = input_bits_[i];
    if (!bit.is_wire())
      continue; // unmapped input (defensive): patterns stay 0
    const uint64_t bit_hash = stable_bit_hash(bit);
    std::vector<uint64_t>& cached = word_cache_[bit];
    while (cached.size() < cacheable)
      cached.push_back(render_batch(bit, bit_hash, cached.size()));
    for (size_t w = 0; w < n_batches; ++w)
      batch_inputs[w][i] = w < cacheable ? cached[w] : render_batch(bit, bit_hash, w);
  }

  const sim::SignatureTable table = sim::simulate_signatures(blast_.aig, batch_inputs, pool);

  // Partition candidate bits by normalized signature. Buckets keyed on the
  // 128-bit signature hash; equality is treated as identity (cone-cache
  // precedent) — a collision could only propose a false candidate, which the
  // SAT confirmation then disproves.
  struct Bucket {
    bool zero = true; ///< normalized signature identically zero
    std::vector<EquivMember> members;
  };
  std::unordered_map<Hash128, Bucket, Hash128Hasher> buckets;
  candidate_bits_ = 0;

  for (const auto& [bit, lit] : blast_.bits) {
    if (!bit.is_wire())
      continue;
    ++candidate_bits_;
    EquivMember m;
    m.bit = bit;
    m.lit = lit;
    Cell* driver = index_->driver(bit);
    if (driver && driver->type() != CellType::Dff) {
      m.driver = driver;
      m.topo_pos = index_->topo_position(driver);
    }
    m.rank = rtlil::bit_id(bit);

    m.inverted = (table.lit_word(lit, 0) & 1) != 0;
    Hash128 key{0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL};
    bool zero = true;
    for (size_t w = 0; w < n_batches; ++w) {
      uint64_t v = table.lit_word(lit, w);
      if (m.inverted)
        v = ~v;
      zero = zero && v == 0;
      key = hash128_combine(key, v);
    }
    Bucket& bucket = buckets[key];
    bucket.zero = zero;
    bucket.members.push_back(m);
  }

  const auto member_less = [](const EquivMember& a, const EquivMember& b) {
    if (a.topo_pos != b.topo_pos)
      return a.topo_pos < b.topo_pos;
    return a.rank < b.rank;
  };

  std::vector<EquivClass> classes;
  for (auto& [key, bucket] : buckets) {
    (void)key;
    EquivClass cls;
    cls.constant = bucket.zero;
    cls.members = std::move(bucket.members);
    std::sort(cls.members.begin(), cls.members.end(), member_less);
    bool mergeable = false;
    if (cls.constant) {
      for (const EquivMember& m : cls.members)
        mergeable = mergeable || m.driver != nullptr;
    } else {
      for (size_t i = 1; i < cls.members.size(); ++i)
        mergeable = mergeable || cls.members[i].driver != nullptr;
    }
    if (mergeable)
      classes.push_back(std::move(cls));
  }
  std::sort(classes.begin(), classes.end(), [&](const EquivClass& a, const EquivClass& b) {
    return member_less(a.members.front(), b.members.front());
  });
  return classes;
}

bool EquivClasses::add_counterexample(const InputAssignment& assignment) {
  Hash128 h{0x6a09e667f3bcc908ULL, 0xb5c0fbcfec4d3b2fULL};
  for (const auto& [bit, value] : assignment)
    hash128_mix_unordered(h, stable_bit_hash(bit) * 2 + (value ? 1 : 0));
  if (!cex_seen_.insert(h).second)
    return false;
  if (cex_.size() >= options_.max_patterns)
    return false;
  std::unordered_map<SigBit, bool> pattern;
  pattern.reserve(assignment.size());
  for (const auto& [bit, value] : assignment)
    pattern.emplace(bit, value);
  cex_.push_back(std::move(pattern));
  return true;
}

bool cell_inputs_commutative(CellType t) noexcept {
  switch (t) {
  case CellType::And:
  case CellType::Or:
  case CellType::Xor:
  case CellType::Xnor:
  case CellType::Add:
  case CellType::Mul:
  case CellType::Eq:
  case CellType::Ne:
  case CellType::LogicAnd:
  case CellType::LogicOr:
    return true;
  default:
    return false;
  }
}

namespace {

/// Canonical (port, signal) inputs with commutative operand order normalized
/// — the common substrate of cell_structural_key and the exact comparison.
std::vector<std::pair<rtlil::Port, rtlil::SigSpec>> normalized_inputs(
    const Cell& cell, const rtlil::SigMap& sigmap) {
  std::vector<std::pair<rtlil::Port, rtlil::SigSpec>> inputs;
  for (rtlil::Port port : cell.input_ports())
    inputs.emplace_back(port, sigmap(cell.port(port)));
  if (cell_inputs_commutative(cell.type()) && inputs.size() >= 2 &&
      inputs[1].second.hash() < inputs[0].second.hash())
    std::swap(inputs[0].second, inputs[1].second);
  return inputs;
}

} // namespace

Hash128 cell_structural_key(const Cell& cell, const rtlil::SigMap& sigmap) {
  const rtlil::CellParams& p = cell.params();
  Hash128 k{hash_mix(static_cast<uint64_t>(cell.type())),
            hash_mix(static_cast<uint64_t>(cell.type()) ^ 0x9216d5d98979fb1bULL)};
  k = hash128_combine(k, (static_cast<uint64_t>(static_cast<uint32_t>(p.a_width)) << 32) |
                             static_cast<uint32_t>(p.b_width));
  k = hash128_combine(k, (static_cast<uint64_t>(static_cast<uint32_t>(p.y_width)) << 32) |
                             static_cast<uint32_t>(p.width));
  k = hash128_combine(k, (static_cast<uint64_t>(static_cast<uint32_t>(p.s_width)) << 2) |
                             (p.a_signed ? 2u : 0u) | (p.b_signed ? 1u : 0u));

  for (const auto& [port, sig] : normalized_inputs(cell, sigmap)) {
    k = hash128_combine(k, static_cast<uint64_t>(port));
    for (const SigBit& bit : sig)
      k = hash128_combine(k, bit.hash());
  }
  return k;
}

bool cell_structurally_identical(const Cell& a, const Cell& b, const rtlil::SigMap& sigmap) {
  if (a.type() != b.type())
    return false;
  const rtlil::CellParams& pa = a.params();
  const rtlil::CellParams& pb = b.params();
  if (pa.a_width != pb.a_width || pa.b_width != pb.b_width || pa.y_width != pb.y_width ||
      pa.width != pb.width || pa.s_width != pb.s_width || pa.a_signed != pb.a_signed ||
      pa.b_signed != pb.b_signed)
    return false;
  return normalized_inputs(a, sigmap) == normalized_inputs(b, sigmap);
}

} // namespace smartly::sweep
