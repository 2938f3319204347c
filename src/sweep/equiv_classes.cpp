#include "sweep/equiv_classes.hpp"

#include "obs/trace.hpp"
#include "sim/packed_sim.hpp"

#include <algorithm>

namespace smartly::sweep {

using rtlil::Cell;
using rtlil::CellType;
using rtlil::SigBit;

namespace {

/// FNV-style fold of a wire name: the part of the stable bit hash shared by
/// every bit of the wire.
uint64_t name_fold(const std::string& name) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : name)
    h = hash_combine(h, c);
  return h;
}

/// Canonical member order: (topo_pos, rank) ascending.
bool member_less(const EquivMember& a, const EquivMember& b) {
  if (a.topo_pos != b.topo_pos)
    return a.topo_pos < b.topo_pos;
  return a.rank < b.rank;
}

bool hash128_less(const Hash128& a, const Hash128& b) {
  return a.lo != b.lo ? a.lo < b.lo : a.hi < b.hi;
}

} // namespace

PatternSlots::PatternSlots(const rtlil::Module& module, size_t sim_words)
    : module_(&module), sim_words_(sim_words == 0 ? 1 : sim_words) {
  // Made before the engines' temporaries: the table outlives every stage of
  // a loop, so it takes its blocks now, sized for the module's input and
  // register bits (the AIG inputs that receive slots), instead of growing
  // among a stage's short-lived blocks and keeping the heap above them
  // resident after the stage frees them.
  size_t free_bits = 0;
  for (const rtlil::Wire* w : module.ports())
    if (w->port_input)
      free_bits += static_cast<size_t>(w->width());
  for (const auto& cell : module.cells())
    if (cell->type() == CellType::Dff)
      free_bits += static_cast<size_t>(cell->params().width);
  slot_of_.assign(module.bit_id_bound(), kNone);
  hash_.reserve(free_bits);
  pads_.reserve(free_bits);
  base_words_.reserve(free_bits * sim_words_);
}

uint32_t PatternSlots::slot(const SigBit& bit) {
  const size_t id = rtlil::bit_id(bit);
  if (id >= slot_of_.size())
    slot_of_.resize(std::max(id + 1, module_->bit_id_bound()), kNone);
  if (slot_of_[id] != kNone)
    return slot_of_[id];
  const uint32_t s = static_cast<uint32_t>(hash_.size());
  slot_of_[id] = s;
  // Hash of a wire bit that is stable across design clones and process runs
  // (SigBit::hash mixes the wire pointer): wire name, then offset. Slots are
  // mostly made a wire at a time, so the name is folded once per wire.
  if (bit.wire->bit_base() != fold_base_) {
    fold_base_ = bit.wire->bit_base();
    fold_ = name_fold(bit.wire->name());
  }
  const uint64_t bit_hash = hash_combine(fold_, static_cast<uint64_t>(bit.offset));
  hash_.push_back(bit_hash);
  pads_.push_back(0);
  // Base batches are name-seeded Rng draws, fixed for the slot's lifetime.
  for (size_t w = 0; w < sim_words_; ++w)
    base_words_.push_back(Rng(hash_combine(hash_combine(kSignatureSeed, bit_hash), w)).next());
  return s;
}

size_t PatternSlots::draw_pads(uint32_t s, uint32_t batches) {
  // Lanes a counterexample leaves unassigned, and lanes past the pool, are
  // filled per (seed, bit, pattern index).
  const uint64_t seed = kSignatureSeed ^ 0xf111f111f111f111ULL;
  if (pad_cols_.size() < batches)
    pad_cols_.resize(batches);
  size_t drawn = 0;
  for (uint32_t& c = pads_[s]; c < batches; ++c, ++drawn) {
    std::vector<uint64_t>& col = pad_cols_[c];
    if (col.size() <= s)
      col.resize(hash_.size());
    uint64_t word = 0;
    for (size_t lane = 0; lane < 64; ++lane)
      word |= (hash_mix(hash_combine(seed, hash_combine(hash_[s], size_t(c) * 64 + lane))) & 1)
              << lane;
    col[s] = word;
  }
  return drawn;
}

EquivClasses::EquivClasses(const EquivClassOptions& options, PatternSlots* slots)
    : options_(options), shared_(slots) {
  if (options_.sim_words == 0)
    options_.sim_words = 1;
}

void EquivClasses::bind(const rtlil::Module& module, const rtlil::NetlistIndex& index) {
  const obs::Span bind_span("fraig", "fraig.bind");
  if (shared_ != nullptr && &shared_->module() == &module &&
      shared_->sim_words() == options_.sim_words) {
    slots_ = shared_;
  } else {
    if (own_ == nullptr || &own_->module() != &module)
      own_ = std::make_unique<PatternSlots>(module, options_.sim_words);
    slots_ = own_.get();
  }
  index_ = &index;
  blast_ = aig::AigMap(); // release the previous blast before building the next
  blast_ = aig::aigmap(module, index);
  const aig::Aig& g = blast_.aig;

  node_input_.assign(g.num_nodes(), kNone);
  for (size_t i = 0; i < g.num_inputs(); ++i)
    node_input_[g.inputs()[i]] = static_cast<uint32_t>(i);

  // One pass over the blast, in ascending bit id, collects the candidates
  // (every wire bit) and the reverse map AIG input node -> module bit.
  // Several bits can carry the same plain input literal (a cell output
  // strash-folds onto an input, e.g. y = a & a), so the winner is the true
  // free bit (no combinational driver), then the lowest bit id. Patterns are
  // seeded from the winner's name, so the choice must not depend on pointers
  // (the cross-clone determinism contract).
  input_bits_.assign(g.num_inputs(), SigBit());
  candidates_.clear();
  const auto is_free = [&](const SigBit& bit) {
    const Cell* driver = index.driver(bit);
    return !driver || driver->type() == CellType::Dff;
  };
  blast_.for_each_bit([&](const SigBit& bit, aig::Lit lit) {
    candidates_.emplace_back(bit, lit);
    const uint32_t input = node_input_[aig::lit_node(lit)];
    if (aig::lit_compl(lit) || input == kNone)
      return;
    SigBit& slot = input_bits_[input];
    if (!slot.is_wire() || (is_free(bit) && !is_free(slot)))
      slot = bit;
  });
  candidate_bits_ = candidates_.size();

  // Counting sort into node order: compute() then hashes each node's
  // signature row once, reading rows sequentially, with the node's bits
  // adjacent. The inputs render() writes are those an AND node or an output
  // reads and those carrying two or more candidate bits; the rest, lone
  // unread inputs, drop out of the candidates here.
  std::vector<uint32_t> next(g.num_nodes() + 1, 0);
  for (const auto& cand : candidates_)
    ++next[aig::lit_node(cand.second) + 1];
  std::vector<uint8_t> rendered(g.num_inputs(), 0);
  const auto mark_read = [&](aig::Lit l) {
    const uint32_t input = node_input_[aig::lit_node(l)];
    if (input != kNone)
      rendered[input] = 1;
  };
  for (uint32_t n = 1; n < g.num_nodes(); ++n) {
    if (g.is_and(n)) {
      mark_read(g.fanin0(n));
      mark_read(g.fanin1(n));
    }
  }
  for (size_t o = 0; o < g.num_outputs(); ++o)
    mark_read(g.output(static_cast<int>(o)));
  rendered_.clear();
  for (size_t i = 0; i < g.num_inputs(); ++i) {
    const uint32_t node = g.inputs()[i];
    if (!rendered[i] && next[node + 1] <= 1) {
      next[node + 1] = 0;
      continue;
    }
    rendered[i] = 1;
    rendered_.emplace_back(node,
                           input_bits_[i].is_wire() ? slots_->slot(input_bits_[i]) : kNone);
  }
  for (size_t n = 1; n < next.size(); ++n)
    next[n] += next[n - 1];
  std::vector<std::pair<SigBit, aig::Lit>> by_node(next.back());
  for (const auto& cand : candidates_) {
    const uint32_t node = aig::lit_node(cand.second);
    const uint32_t input = node_input_[node];
    if (input == kNone || rendered[input])
      by_node[next[node]++] = cand;
  }
  candidates_.swap(by_node);
}

void EquivClasses::draw_pads() {
  if (cex_cols_.empty())
    return;
  const obs::Span pad_span("fraig", "fraig.pad");
  const uint32_t batches = static_cast<uint32_t>(cex_cols_.size());
  for (const auto& [node, s] : rendered_)
    if (s != kNone)
      pad_words_ += slots_->draw_pads(s, batches);
}

void EquivClasses::render() {
  const obs::Span render_span("fraig", "fraig.render");
  const aig::Aig& g = blast_.aig;
  const size_t base = options_.sim_words;
  const size_t words = base + cex_cols_.size();
  // Room for one more counterexample batch, so the round after the first
  // disproof keeps the storage.
  table_.reshape(g.num_nodes(), words, g.num_nodes() * (words + 1));
  std::fill_n(table_.row(0), words, uint64_t(0)); // the constant node
  // Each input's row: its base words, then one word per counterexample
  // batch — the assigned lanes over the pad.
  for (const auto& [node, s] : rendered_) {
    uint64_t* out = table_.row(node);
    if (s == kNone) {
      std::fill_n(out, words, uint64_t(0)); // unmapped input (defensive)
      continue;
    }
    std::copy_n(slots_->base_words_.data() + size_t(s) * base, base, out);
    for (size_t c = 0; c < cex_cols_.size(); ++c) {
      const std::vector<Lanes>& col = cex_cols_[c];
      const Lanes l = s < col.size() ? col[s] : Lanes{};
      out[base + c] = (l.value & l.known) | (slots_->pad(s, c) & ~l.known);
    }
  }
}

void EquivClasses::compute(ClassSet& out) {
  draw_pads();
  render();
  {
    const obs::Span simulate_span("fraig", "fraig.simulate");
    sim::simulate_signatures(blast_.aig, table_);
  }
  const obs::Span bucket_span("fraig", "fraig.bucket");
  const size_t n_words = table_.words;

  // The normalized row (complemented when pattern 0 reads 1) depends only on
  // the AIG node, so each node — each run of candidates_ — is hashed once.
  // The first run with a given row leads its group in an open-addressing
  // table of leaders; a later run joins it when its hash matches and its row
  // is equal word for word. All-zero rows form the one constant group.
  // `grouped` lists (leader, run) for every run of a group that can form a
  // class: one with two or more bits, or the constant group.
  const auto node_of = [&](uint32_t c) { return aig::lit_node(candidates_[c].second); };
  const auto run_end = [&](uint32_t b) {
    uint32_t e = b + 1;
    while (e < candidates_.size() && node_of(e) == node_of(b))
      ++e;
    return e;
  };
  const auto normalized = [&](uint32_t node, size_t w) {
    const uint64_t* row = table_.row(node);
    return (row[0] & 1) ? ~row[w] : row[w];
  };
  // A table slot holds the leader's hash in its high half and the leader
  // plus one in its low half (0 = empty).
  size_t cap = 16;
  while (cap < 2 * candidates_.size())
    cap *= 2;
  std::vector<uint64_t>& leaders = leaders_;
  leaders.assign(cap, 0);
  std::vector<std::pair<uint32_t, uint32_t>>& grouped = grouped_;
  grouped.clear();
  uint32_t zero_lead = kNone;
  for (uint32_t b = 0, e; b < candidates_.size(); b = e) {
    e = run_end(b);
    const uint32_t n = node_of(b);
    // Four independent multiply chains: the hash only picks where a row is
    // looked up (rows are matched word for word), so any good mix will do,
    // and one chain's multiply latency per word would dominate the round.
    const uint64_t* row = table_.row(n);
    const uint64_t flip = (row[0] & 1) ? ~uint64_t(0) : 0;
    uint64_t h[4] = {0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL, 0xa4093822299f31d0ULL,
                     0x082efa98ec4e6c89ULL};
    uint64_t any = 0;
    for (size_t w = 0; w < n_words; ++w) {
      const uint64_t v = row[w] ^ flip;
      any |= v;
      h[w & 3] = (h[w & 3] ^ v) * 0x9e3779b97f4a7c15ULL;
    }
    if (any == 0) {
      if (zero_lead == kNone)
        zero_lead = b;
      grouped.emplace_back(zero_lead, b);
      continue;
    }
    const uint64_t hash = hash_mix(h[0] ^ hash_mix(h[1] ^ hash_mix(h[2] ^ hash_mix(h[3]))));
    const auto same_row = [&](uint32_t other) {
      const uint32_t m = node_of(other);
      for (size_t w = 0; w < n_words; ++w)
        if (normalized(m, w) != normalized(n, w))
          return false;
      return true;
    };
    size_t i = hash & (cap - 1);
    for (; leaders[i] != 0; i = (i + 1) & (cap - 1)) {
      const uint32_t leader = static_cast<uint32_t>(leaders[i]) - 1;
      if ((leaders[i] >> 32) == (hash >> 32) && same_row(leader))
        break;
    }
    if (leaders[i] == 0) {
      leaders[i] = (hash >> 32 << 32) | (uint64_t(b) + 1);
      if (e - b >= 2)
        grouped.emplace_back(b, b);
    } else {
      grouped.emplace_back(static_cast<uint32_t>(leaders[i]) - 1, b);
    }
  }
  std::sort(grouped.begin(), grouped.end());

  const auto make_member = [&](const SigBit& bit, aig::Lit lit) {
    EquivMember m;
    m.bit = bit;
    m.lit = lit;
    m.inverted = ((table_.row(aig::lit_node(lit))[0] & 1) != 0) != aig::lit_compl(lit);
    Cell* driver = index_->driver(bit);
    if (driver && driver->type() != CellType::Dff) {
      m.driver = driver;
      m.topo_pos = index_->topo_position(driver);
    }
    m.rank = rtlil::bit_id(bit);
    return m;
  };

  // Each leader's entries are adjacent, its own run first when listed (a
  // join always comes later in node order). A group keeps its class only
  // with a mergeable member: any driven bit of a constant class, or a driven
  // bit behind the representative. Members go straight into the flat
  // array; a dropped group's are truncated off again.
  std::vector<EquivMember>& members = out.members;
  members.clear();
  out.classes.clear();
  for (size_t i = 0, j; i < grouped.size(); i = j) {
    const uint32_t leader = grouped[i].first;
    EquivClass cls;
    cls.constant = leader == zero_lead;
    cls.first = static_cast<uint32_t>(members.size());
    const auto add_run = [&](uint32_t b) {
      for (uint32_t c = b, e = run_end(b); c < e; ++c)
        members.push_back(make_member(candidates_[c].first, candidates_[c].second));
    };
    if (grouped[i].second != leader)
      add_run(leader);
    for (j = i; j < grouped.size() && grouped[j].first == leader; ++j)
      add_run(grouped[j].second);
    cls.last = static_cast<uint32_t>(members.size());
    std::sort(members.begin() + cls.first, members.end(), member_less);
    bool mergeable = false;
    for (size_t k = cls.first + (cls.constant ? 0 : 1); k < cls.last && !mergeable; ++k)
      mergeable = members[k].driver != nullptr;
    if (mergeable)
      out.classes.push_back(cls);
    else
      members.resize(cls.first);
  }
  std::sort(out.classes.begin(), out.classes.end(),
            [&](const EquivClass& a, const EquivClass& b) {
              return member_less(members[a.first], members[b.first]);
            });
}

bool EquivClasses::add_counterexample(const std::pair<SigBit, bool>* values, size_t count) {
  Hash128 h{0x6a09e667f3bcc908ULL, 0xb5c0fbcfec4d3b2fULL};
  for (size_t i = 0; i < count; ++i) {
    const uint32_t s = slots_->slot(values[i].first);
    hash128_mix_unordered(h, slots_->hash_[s] * 2 + (values[i].second ? 1 : 0));
  }
  const auto seen = std::lower_bound(cex_seen_.begin(), cex_seen_.end(), h, hash128_less);
  if (seen != cex_seen_.end() && *seen == h)
    return false;
  cex_seen_.insert(seen, h);
  if (patterns_ >= options_.max_patterns)
    return false;
  const size_t lane = patterns_ % 64;
  if (lane == 0)
    cex_cols_.emplace_back(slots_->size()); // pads are drawn when rendered
  std::vector<Lanes>& col = cex_cols_.back();
  const uint64_t mask = uint64_t(1) << lane;
  for (size_t i = 0; i < count; ++i) {
    const uint32_t s = slots_->slot_of_[rtlil::bit_id(values[i].first)];
    if (s >= col.size())
      col.resize(slots_->size());
    Lanes& l = col[s];
    if (l.known & mask)
      continue; // a repeated bit keeps its first value
    l.known |= mask;
    if (values[i].second)
      l.value |= mask;
  }
  ++patterns_;
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

/// SigSpec::hash() of the canonical signal, without building it.
uint64_t canonical_hash(const rtlil::SigSpec& sig, const rtlil::SigMap& sigmap) {
  uint64_t h = 0x5137;
  for (const SigBit& bit : sig)
    h = hash_combine(h, sigmap(bit).hash());
  return h;
}

/// The port whose canonical signal stands at position `i` of the cell's
/// normalized inputs: the input ports in Port order, with the two operands
/// of a commutative cell swapped when the second one's canonical hash is
/// smaller. The ports themselves keep their positions.
struct NormalizedInputs {
  rtlil::PortList ports;
  bool swapped = false;

  NormalizedInputs(const Cell& cell, const rtlil::SigMap& sigmap) : ports(cell.input_ports()) {
    swapped = cell_inputs_commutative(cell.type()) && ports.size() >= 2 &&
              canonical_hash(cell.port(ports[1]), sigmap) <
                  canonical_hash(cell.port(ports[0]), sigmap);
  }
  rtlil::Port source(size_t i) const { return swapped && i < 2 ? ports[1 - i] : ports[i]; }
};

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

  const NormalizedInputs inputs(cell, sigmap);
  for (size_t i = 0; i < inputs.ports.size(); ++i) {
    k = hash128_combine(k, static_cast<uint64_t>(inputs.ports[i]));
    for (const SigBit& bit : cell.port(inputs.source(i)))
      k = hash128_combine(k, sigmap(bit).hash());
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
  const NormalizedInputs ia(a, sigmap);
  const NormalizedInputs ib(b, sigmap);
  if (!std::equal(ia.ports.begin(), ia.ports.end(), ib.ports.begin(), ib.ports.end()))
    return false;
  for (size_t i = 0; i < ia.ports.size(); ++i) {
    const std::vector<SigBit>& x = a.port(ia.source(i)).bits();
    const std::vector<SigBit>& y = b.port(ib.source(i)).bits();
    if (x.size() != y.size())
      return false;
    for (size_t j = 0; j < x.size(); ++j)
      if (sigmap(x[j]) != sigmap(y[j]))
        return false;
  }
  return true;
}

} // namespace smartly::sweep
