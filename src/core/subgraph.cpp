#include "core/subgraph.hpp"

#include "util/log.hpp"

#include <algorithm>

namespace smartly::core {

using rtlil::Cell;
using rtlil::CellType;
using rtlil::NetlistIndex;
using rtlil::Port;
using rtlil::SigBit;

// Adjacency comes from rtlil::combinational_adjacent_cells: region
// partitioning (opt/region_partition.cpp) must over-approximate these balls,
// so extraction and partitioning share one definition.
using rtlil::combinational_adjacent_cells;

uint64_t cell_content_hash(const rtlil::Cell& cell, const rtlil::SigMap& sigmap) {
  uint64_t h = hash_mix(0x5eedc0de ^ static_cast<uint64_t>(cell.type()));
  const auto& p = cell.params();
  h = hash_combine(h, static_cast<uint64_t>(p.a_width));
  h = hash_combine(h, static_cast<uint64_t>(p.b_width));
  h = hash_combine(h, static_cast<uint64_t>(p.y_width));
  h = hash_combine(h, static_cast<uint64_t>(p.width));
  h = hash_combine(h, static_cast<uint64_t>(p.s_width));
  h = hash_combine(h, static_cast<uint64_t>(p.a_signed) * 2 + static_cast<uint64_t>(p.b_signed));
  for (int pi = 0; pi < rtlil::kPortCount; ++pi) {
    const Port port = static_cast<Port>(pi);
    if (!cell.has_port(port))
      continue;
    h = hash_combine(h, 0x1000u + static_cast<uint64_t>(pi));
    for (const SigBit& raw : cell.port(port))
      h = hash_combine(h, sigmap(raw).hash());
  }
  return h;
}

Hash128 Subgraph::fingerprint(const rtlil::SigMap& sigmap) const {
  Hash128 fp = hash128_combine({}, cells.size());
  for (const Cell* c : cells)
    hash128_mix_unordered(fp, cell_content_hash(*c, sigmap));
  return fp;
}

Subgraph SubgraphScratch::extract(const rtlil::Module& module, const NetlistIndex& index,
                                  SigBit target, const std::vector<SigBit>& known,
                                  const SubgraphOptions& options) {
  (void)module;
  Subgraph out;

  in_ball_.clear();
  next_.clear();
  kept_.clear();
  bitq_.clear();
  seen_bits_.clear();
  driven_.clear();
  boundary_.clear();

  // --- stage 1: undirected ball of radius k around target + known ---------
  // ("all logical gates within a specified distance k from the control port")
  std::vector<Cell*>& ball = out.ball;
  combinational_adjacent_cells(index, target, next_);
  for (const SigBit& kb : known)
    combinational_adjacent_cells(index, kb, next_);
  for (Cell* c : next_)
    if (in_ball_.insert(c->id()))
      ball.push_back(c);
  rtlil::grow_combinational_ball(index, ball, in_ball_, options.depth, next_);
  // The ball is the decision's *support*: the walker only ever shrinks cell
  // ports, so a later query with the same target/known re-derives the same
  // answer unless some ball cell was mutated or removed in between. Callers
  // caching decisions key their invalidation on exactly this set.
  out.gates_before_filter = ball.size();

  // --- stage 2: Theorem II.1 relevance filter ------------------------------
  // A signal can constrain or be constrained by {target} ∪ known only through
  // common ancestors (Theorems II.1/II.2), so for encoding the question
  // "is target forced?" the gates that matter are exactly those whose output
  // is an ancestor of the target or of a known signal. Everything else in the
  // ball is dismissed (paper: "the method can dismiss about 80% gates").
  if (options.relevance_filter) {
    auto push_bit = [&](const SigBit& b) {
      if (b.is_wire() && seen_bits_.insert(static_cast<uint32_t>(rtlil::bit_id(b))))
        bitq_.push_back(b);
    };
    push_bit(target);
    for (const SigBit& kb : known)
      push_bit(kb);
    for (size_t head = 0; head < bitq_.size(); ++head) {
      const SigBit bit = bitq_[head];
      Cell* d = index.driver(bit);
      if (!d || d->type() == CellType::Dff)
        continue;
      if (!in_ball_.contains(d->id()))
        continue; // outside the ball: becomes a boundary input
      if (!kept_.insert(d->id()))
        continue;
      out.cells.push_back(d);
      for (Port p : d->input_ports())
        for (const SigBit& raw : d->port(p))
          push_bit(index.sigmap()(raw));
    }
  } else {
    out.cells = ball;
  }

  // --- boundary: bits read inside but not driven inside --------------------
  for (Cell* c : out.cells)
    for (const SigBit& raw : c->port(c->output_port())) {
      const SigBit bit = index.sigmap()(raw);
      if (bit.is_wire())
        driven_.insert(static_cast<uint32_t>(rtlil::bit_id(bit)));
    }
  for (Cell* c : out.cells)
    for (Port p : c->input_ports())
      for (const SigBit& raw : c->port(p)) {
        const SigBit bit = index.sigmap()(raw);
        if (!bit.is_wire())
          continue;
        const auto id = static_cast<uint32_t>(rtlil::bit_id(bit));
        if (!driven_.contains(id) && boundary_.insert(id))
          out.boundary.push_back(bit);
      }
  return out;
}

Subgraph extract_subgraph(const rtlil::Module& module, const NetlistIndex& index,
                          SigBit target, const std::vector<SigBit>& known,
                          const SubgraphOptions& options) {
  SubgraphScratch scratch;
  return scratch.extract(module, index, target, known, options);
}

} // namespace smartly::core
