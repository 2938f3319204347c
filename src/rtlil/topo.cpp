#include "rtlil/topo.hpp"

#include "util/log.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace smartly::rtlil {

void combinational_adjacent_cells(const NetlistIndex& index, const SigBit& bit,
                                  std::vector<Cell*>& out) {
  if (Cell* d = index.driver(bit); d && d->type() != CellType::Dff)
    out.push_back(d);
  for (Cell* r : index.readers(bit))
    if (r->type() != CellType::Dff)
      out.push_back(r);
}

void grow_combinational_ball(const NetlistIndex& index, std::vector<Cell*>& ball, IdSet& seen,
                             int layers, std::vector<Cell*>& scratch) {
  // ball[layer_begin, layer_end) is the frontier: the cells of the last layer.
  size_t layer_begin = 0;
  for (int d = 0; d < layers && layer_begin < ball.size(); ++d) {
    const size_t layer_end = ball.size();
    for (size_t i = layer_begin; i < layer_end; ++i) {
      const Cell* c = ball[i];
      scratch.clear();
      for (int pi = 0; pi < kPortCount; ++pi) {
        const Port p = static_cast<Port>(pi);
        if (!c->has_port(p))
          continue;
        for (const SigBit& raw : c->port(p)) {
          const SigBit bit = index.sigmap()(raw);
          if (bit.is_wire())
            combinational_adjacent_cells(index, bit, scratch);
        }
      }
      for (Cell* n : scratch)
        if (seen.insert(n->id()))
          ball.push_back(n);
    }
    layer_begin = layer_end;
  }
}

NetlistIndex::NetlistIndex(const Module& module)
    : module_(&module), sigmap_(module), driver_(module.bit_id_bound(), nullptr),
      reader_slot_(module.bit_id_bound(), 0), output_port_(module.bit_id_bound(), 0),
      reader_lists_(1), cell_reads_(module.cell_id_bound()),
      topo_pos_(module.cell_id_bound(), -1) {
  for (const auto& w : module.wires()) {
    if (!w->port_output)
      continue;
    for (int i = 0; i < w->width(); ++i)
      set_output_port(sigmap_(SigBit(w.get(), i)), true);
  }

  for (const auto& cptr : module.cells()) {
    Cell* c = cptr.get();
    for (const SigBit& raw : c->port(c->output_port())) {
      const SigBit bit = sigmap_(raw);
      if (!bit.is_wire())
        continue; // output tied to a constant alias: nothing to index
      Cell*& d = driver_[bit_id(bit)];
      if (d != nullptr)
        log_warn("multiple drivers for %s[%d] (cells %s, %s)", bit.wire->name().c_str(),
                 bit.offset, d->name().c_str(), c->name().c_str());
      else
        d = c;
    }
  }

  // Combinational dependency edges driver(bit) -> c run from a non-Dff
  // driver into a non-Dff reader (Dff.D is the sequential boundary, Dff.Q a
  // source); each read bit position is one edge.
  std::vector<int> indegree(module.cell_id_bound(), 0);
  for (const auto& cptr : module.cells()) {
    Cell* c = cptr.get();
    index_cell_reads(c);
    if (c->type() == CellType::Dff)
      continue;
    for (const SigBit& bit : cell_reads_[c->id()]) {
      const Cell* d = driver_[bit_id(bit)];
      if (d != nullptr && d->type() != CellType::Dff)
        ++indegree[c->id()];
    }
  }

  // Kahn's algorithm over combinational edges, FIFO order. Two properties
  // matter beyond validity:
  //   * deterministic content function — the queue is seeded in module cell
  //     order and each net releases its readers in reader-list order (module
  //     cell order, then port, then bit), so design clones number their
  //     AIG/CNF encodings identically; the fraig engine's solver_conflicts
  //     determinism and every cross-clone bench differential depend on it;
  //   * BFS layering — positions correlate with logic depth, so the fraig
  //     engine's minimum-position class representative is the shallowest
  //     member and merges collapse deep cones onto shallow ones.
  std::vector<Cell*> ready;
  for (const auto& cptr : module.cells())
    if (indegree[cptr->id()] == 0)
      ready.push_back(cptr.get());
  topo_.reserve(module.cells().size());
  std::vector<uint8_t> released(driver_.size(), 0); // net's edges already consumed
  for (size_t head = 0; head < ready.size();) {
    Cell* c = ready[head++];
    topo_.push_back(c);
    if (c->type() == CellType::Dff)
      continue;
    for (const SigBit& raw : c->port(c->output_port())) {
      const SigBit bit = sigmap_(raw);
      if (!bit.is_wire())
        continue;
      const size_t id = bit_id(bit);
      if (released[id] || driver_[id] == nullptr || driver_[id]->type() == CellType::Dff)
        continue;
      released[id] = 1;
      for (Cell* r : reader_lists_[reader_slot_[id]])
        if (r->type() != CellType::Dff && --indegree[r->id()] == 0)
          ready.push_back(r);
    }
  }
  if (topo_.size() != module.cells().size())
    throw std::logic_error("NetlistIndex: combinational cycle detected");
  topo_ids_.reserve(topo_.size());
  for (size_t i = 0; i < topo_.size(); ++i) {
    topo_pos_[topo_[i]->id()] = static_cast<int>(i);
    topo_ids_.push_back(topo_[i]->id());
  }
  topo_live_ = topo_.size();
}

size_t NetlistIndex::grow_bit_slot(const SigBit& bit) {
  const size_t id = bit_id(bit);
  if (id >= driver_.size()) {
    const size_t n = std::max(module_->bit_id_bound(), id + 1);
    driver_.resize(n, nullptr);
    reader_slot_.resize(n, 0);
    output_port_.resize(n, 0);
  }
  return id;
}

size_t NetlistIndex::grow_cell_slot(const Cell* cell) {
  const size_t id = cell->id();
  if (id >= topo_pos_.size()) {
    const size_t n = std::max(module_->cell_id_bound(), id + 1);
    cell_reads_.resize(n);
    topo_pos_.resize(n, -1);
  }
  return id;
}

const std::vector<Cell*>& NetlistIndex::readers_of(const SigBit& canonical) const {
  const size_t slot = bit_slot(canonical);
  return reader_lists_[slot == kNoSlot ? 0 : reader_slot_[slot]];
}

bool NetlistIndex::output_port_of(const SigBit& canonical) const {
  if (canonical.is_const())
    return (const_output_port_ >> static_cast<unsigned>(canonical.data)) & 1u;
  const size_t slot = bit_slot(canonical);
  return slot != kNoSlot && output_port_[slot] != 0;
}

void NetlistIndex::set_output_port(const SigBit& canonical, bool on) {
  if (canonical.is_const()) {
    const uint8_t mask = static_cast<uint8_t>(1u << static_cast<unsigned>(canonical.data));
    const_output_port_ = on ? (const_output_port_ | mask) : (const_output_port_ & ~mask);
  } else if (canonical.wire->module() == module_) {
    output_port_[grow_bit_slot(canonical)] = on ? 1 : 0;
  }
}

uint32_t NetlistIndex::new_reader_list() {
  if (!free_lists_.empty()) {
    const uint32_t slot = free_lists_.back();
    free_lists_.pop_back();
    return slot;
  }
  reader_lists_.emplace_back();
  return static_cast<uint32_t>(reader_lists_.size() - 1);
}

Cell* NetlistIndex::driver(SigBit bit) const {
  const size_t slot = bit_slot(sigmap_(bit));
  return slot == kNoSlot ? nullptr : driver_[slot];
}

const std::vector<Cell*>& NetlistIndex::readers(SigBit bit) const {
  return readers_of(sigmap_(bit));
}

int NetlistIndex::fanout(SigBit bit) const {
  const SigBit b = sigmap_(bit);
  return static_cast<int>(readers_of(b).size()) + (output_port_of(b) ? 1 : 0);
}

bool NetlistIndex::drives_output_port(SigBit bit) const { return output_port_of(sigmap_(bit)); }

void NetlistIndex::index_cell_reads(Cell* cell) {
  std::vector<SigBit>& reads = cell_reads_[grow_cell_slot(cell)];
  reads.clear();
  for (Port p : cell->input_ports())
    for (const SigBit& raw : cell->port(p)) {
      const SigBit bit = sigmap_(raw);
      if (!bit.is_wire())
        continue;
      uint32_t& slot = reader_slot_[grow_bit_slot(bit)];
      if (slot == 0)
        slot = new_reader_list();
      reader_lists_[slot].push_back(cell);
      reads.push_back(bit);
    }
}

void NetlistIndex::erase_cell_reads(Cell* cell) {
  if (cell->module() != module_ || cell->id() >= cell_reads_.size())
    return;
  std::vector<SigBit>& reads = cell_reads_[cell->id()];
  for (const SigBit& stored : reads) {
    const size_t id = bit_slot(sigmap_(stored)); // re-canonicalize: merges since
    if (id == kNoSlot || reader_slot_[id] == 0)
      continue;
    uint32_t& slot = reader_slot_[id];
    auto& list = reader_lists_[slot];
    auto pos = std::find(list.begin(), list.end(), cell);
    if (pos != list.end())
      list.erase(pos); // one occurrence per stored entry (multiset semantics)
    if (list.empty()) {
      free_lists_.push_back(slot);
      slot = 0;
    }
  }
  reads.clear();
}

void NetlistIndex::remove_cell(Cell* cell) {
  erase_cell_reads(cell);
  for (const SigBit& raw : cell->port(cell->output_port())) {
    const size_t id = bit_slot(sigmap_(raw));
    if (id != kNoSlot && driver_[id] == cell)
      driver_[id] = nullptr;
  }
  if (cell->module() == module_ && cell->id() < topo_pos_.size()) {
    std::vector<SigBit>().swap(cell_reads_[cell->id()]);
    int& pos = topo_pos_[cell->id()];
    if (pos >= 0) {
      pos = -1;
      --topo_live_;
    }
  }
}

void NetlistIndex::add_cell(Cell* cell, int topo_pos) {
  for (const SigBit& raw : cell->port(cell->output_port())) {
    const SigBit bit = sigmap_(raw);
    if (!bit.is_wire())
      continue;
    Cell*& d = driver_[grow_bit_slot(bit)];
    if (d == nullptr)
      d = cell;
    else if (d != cell)
      log_warn("add_cell: %s[%d] already driven by %s (adding %s)", bit.wire->name().c_str(),
               bit.offset, d->name().c_str(), cell->name().c_str());
  }
  index_cell_reads(cell);
  int& pos = topo_pos_[cell->id()];
  if (pos < 0) {
    pos = topo_pos;
    ++topo_live_;
  }
  topo_.push_back(cell);
  topo_ids_.push_back(cell->id());
  topo_needs_sort_ = true;
}

void NetlistIndex::add_alias(const SigSpec& lhs, const SigSpec& rhs) {
  const int n = std::min(lhs.size(), rhs.size());
  for (int i = 0; i < n; ++i) {
    const SigBit a = sigmap_(lhs[i]);
    const SigBit b = sigmap_(rhs[i]);
    if (a == b)
      continue;
    sigmap_.add(lhs[i], rhs[i]);
    const SigBit rep = sigmap_(lhs[i]);
    for (const SigBit& old : {a, b}) {
      if (old == rep)
        continue;
      // Reader entries / driver entries only exist for wire keys; a class
      // whose representative became a constant sheds them, exactly as a
      // rebuild (which never indexes constant-canonical bits) would.
      if (const size_t from = bit_slot(old); from != kNoSlot) {
        if (const uint32_t moved = reader_slot_[from]; moved != 0) {
          reader_slot_[from] = 0;
          if (rep.is_wire()) {
            uint32_t& dst = reader_slot_[grow_bit_slot(rep)];
            if (dst == 0) {
              dst = moved; // the whole list changes hands
            } else {
              auto& list = reader_lists_[dst];
              list.insert(list.end(), reader_lists_[moved].begin(), reader_lists_[moved].end());
              reader_lists_[moved].clear();
              free_lists_.push_back(moved);
            }
          } else {
            reader_lists_[moved].clear();
            free_lists_.push_back(moved);
          }
        }
        if (Cell* moved = driver_[from]; moved != nullptr) {
          driver_[from] = nullptr;
          if (rep.is_wire()) {
            Cell*& d = driver_[grow_bit_slot(rep)];
            if (d == nullptr)
              d = moved;
            else if (d != moved)
              log_warn("alias merges two driven nets (cells %s, %s)", d->name().c_str(),
                       moved->name().c_str());
          }
        }
      }
      if (output_port_of(old)) {
        set_output_port(rep, true);
        set_output_port(old, false);
      }
    }
  }
}

void NetlistIndex::refresh_cell_reads(Cell* cell) {
  erase_cell_reads(cell);
  index_cell_reads(cell);
}

void NetlistIndex::compact_topo() {
  if (topo_.size() == topo_live_ && !topo_needs_sort_)
    return;
  size_t kept = 0;
  for (size_t i = 0; i < topo_.size(); ++i) {
    if (topo_pos_[topo_ids_[i]] < 0)
      continue; // removed (possibly destroyed): never dereferenced
    topo_[kept] = topo_[i];
    topo_ids_[kept] = topo_ids_[i];
    ++kept;
  }
  topo_.resize(kept);
  topo_ids_.resize(kept);
  if (topo_needs_sort_) {
    // Added cells were appended out of place; restore position order. Ties
    // are possible — several added cells can take the same freed position,
    // and a rewrite plan's ops at one root position DO depend on each other
    // — and stable_sort keeps them in append order, which callers make
    // deterministic (journal order: intra-plan dependencies are appended in
    // program order).
    std::stable_sort(topo_.begin(), topo_.end(), [&](const Cell* a, const Cell* b) {
      return topo_pos_[a->id()] < topo_pos_[b->id()];
    });
    for (size_t i = 0; i < topo_.size(); ++i)
      topo_ids_[i] = topo_[i]->id();
    topo_needs_sort_ = false;
  }
  // Renumber to the compacted sequence so positions are unique again and
  // every dependency edge is *strictly* increasing (the invariant a fresh
  // rebuild establishes and index_consistent checks). Tied added cells get
  // distinct positions in their (deterministic) append order; all previously
  // distinct positions keep their relative order.
  for (size_t i = 0; i < topo_.size(); ++i)
    topo_pos_[topo_ids_[i]] = static_cast<int>(i);
}

bool index_consistent(const Module& module, const NetlistIndex& index) {
  NetlistIndex rebuilt(module); // throws on a cycle: a corrupted module fails loudly

  for (const auto& w : module.wires()) {
    for (int i = 0; i < w->width(); ++i) {
      const SigBit bit(w.get(), i);
      if (index.driver(bit) != rebuilt.driver(bit))
        return false;
      if (index.fanout(bit) != rebuilt.fanout(bit))
        return false;
      if (index.drives_output_port(bit) != rebuilt.drives_output_port(bit))
        return false;
      std::vector<Cell*> a = index.readers(bit);
      std::vector<Cell*> b = rebuilt.readers(bit);
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      if (a != b)
        return false;
    }
  }

  // Topo bookkeeping: every module cell exactly once, dependencies respected.
  // (Callers compare after journal application, so compact_topo has run.)
  if (index.topo_order().size() != module.cells().size())
    return false;
  std::unordered_set<const Cell*> seen;
  for (const Cell* c : index.topo_order())
    if (!seen.insert(c).second)
      return false;
  for (const auto& cptr : module.cells()) {
    Cell* c = cptr.get();
    if (!seen.count(c))
      return false;
    if (c->type() == CellType::Dff)
      continue;
    for (const Port p : c->input_ports()) {
      for (const SigBit& raw : c->port(p)) {
        Cell* d = index.driver(raw);
        if (d != nullptr && d->type() != CellType::Dff &&
            index.topo_position(d) >= index.topo_position(c))
          return false;
      }
    }
  }
  return true;
}

} // namespace smartly::rtlil
