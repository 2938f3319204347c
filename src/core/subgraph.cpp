#include "core/subgraph.hpp"

#include "obs/trace.hpp"
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

Subgraph SubgraphScratch::extract(const rtlil::Module& module, const NetlistIndex& index,
                                  SigBit target, const std::vector<SigBit>& known,
                                  const SubgraphOptions& options) {
  (void)module;
  const obs::Span span("oracle", "oracle.extract");
  Subgraph out;

  in_ball_.clear();
  ball_.clear();
  next_.clear();
  kept_.clear();
  bitq_.clear();
  seen_bits_.clear();

  // --- stage 1: undirected ball of radius k around target + known ---------
  // ("all logical gates within a specified distance k from the control port")
  combinational_adjacent_cells(index, target, next_);
  for (const SigBit& kb : known)
    combinational_adjacent_cells(index, kb, next_);
  for (Cell* c : next_)
    if (in_ball_.insert(c->id()))
      ball_.push_back(c);
  rtlil::grow_combinational_ball(index, ball_, in_ball_, options.depth);
  out.gates_before_filter = ball_.size();

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
    out.cells = ball_;
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
