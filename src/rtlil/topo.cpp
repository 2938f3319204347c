#include "rtlil/topo.hpp"

#include "obs/trace.hpp"
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
                             int layers) {
  // ball[layer_begin, layer_end) is the frontier: the cells of the last layer.
  size_t layer_begin = 0;
  for (int d = 0; d < layers && layer_begin < ball.size(); ++d) {
    const size_t layer_end = ball.size();
    for (size_t i = layer_begin; i < layer_end; ++i)
      for (Cell* n : index.combinational_neighbours(ball[i]))
        if (seen.insert(n->id()))
          ball.push_back(n);
    layer_begin = layer_end;
  }
}

namespace {

/// Bits of the ports `cell` reads (all but Y and Q), constants included.
uint32_t input_bit_count(const Cell& cell) {
  uint32_t bits = 0;
  for (int pi = 0; pi < kPortCount; ++pi) {
    const Port p = static_cast<Port>(pi);
    if (p != Port::Y && p != Port::Q && cell.has_port(p))
      bits += static_cast<uint32_t>(cell.port(p).size());
  }
  return bits;
}

/// Room for `extra` more entries in arena block `b`. A block that outgrows
/// its space moves to the arena's end with at least twice the room (the
/// last block just extends); the space it leaves stays unused.
template <class T, class Block>
void make_room(std::vector<T>& arena, Block& b, uint32_t extra) {
  const uint32_t need = b.size + extra;
  if (need <= b.cap)
    return;
  const uint32_t cap = std::max({need, 2 * b.cap, 2u});
  if (b.cap != 0 && b.begin + b.cap == arena.size()) {
    arena.resize(b.begin + cap);
  } else {
    const uint32_t begin = static_cast<uint32_t>(arena.size());
    arena.resize(begin + cap);
    std::copy_n(arena.begin() + b.begin, b.size, arena.begin() + begin);
    b.begin = begin;
  }
  b.cap = cap;
}

} // namespace

NetlistIndex::NetlistIndex(const Module& module) : module_(&module) {
  const obs::Span span("index", "index.build", "cells", module.cells().size());
  sigmap_ = &module.sigmap();
  const SigMap& map = *sigmap_;
  driver_.assign(module.bit_id_bound(), nullptr);
  readers_.resize(module.bit_id_bound());
  output_port_.assign(module.bit_id_bound(), 0);
  reads_.resize(module.cell_id_bound());
  topo_pos_.assign(module.cell_id_bound(), -1);
  neighbours_.resize(module.cell_id_bound());
  neighbour_mark_.assign(module.cell_id_bound(), 0);
  for (const auto& w : module.wires()) {
    if (!w->port_output)
      continue;
    for (int i = 0; i < w->width(); ++i)
      set_output_port(map(SigBit(w.get(), i)), true);
  }

  // Driver pass. It keeps each combinational cell's canonical output ids
  // for the Kahn pass below and flags the nets whose (first) driver is
  // combinational: their readers have a dependency edge, and Kahn's pass
  // releases each such net once.
  size_t input_bits = 0;
  std::vector<uint32_t> out_ids;
  std::vector<std::pair<uint32_t, uint32_t>> outputs(module.cell_id_bound()); // range in out_ids
  std::vector<uint8_t> unreleased(driver_.size(), 0);
  for (const auto& cptr : module.cells()) {
    Cell* c = cptr.get();
    input_bits += input_bit_count(*c);
    const bool comb = c->type() != CellType::Dff;
    outputs[c->id()].first = static_cast<uint32_t>(out_ids.size());
    for (const SigBit& raw : c->port(c->output_port())) {
      const SigBit bit = map(raw);
      if (!bit.is_wire())
        continue; // output tied to a constant alias: nothing to index
      const size_t id = bit_id(bit);
      Cell*& d = driver_[id];
      if (d != nullptr) {
        log_warn("multiple drivers for %s[%d] (cells %s, %s)", bit.wire->name().c_str(),
                 bit.offset, d->name().c_str(), c->name().c_str());
      } else {
        d = c;
        unreleased[id] = comb ? 1 : 0;
      }
      if (comb)
        out_ids.push_back(static_cast<uint32_t>(id));
    }
    outputs[c->id()].second = static_cast<uint32_t>(out_ids.size());
  }

  // Read lists in module-cell / port / bit order, counting the reads per
  // net; then each net's reader block is sized by its count and filled in
  // that same order, so every reader list lists its cells exactly as one
  // push_back per read in a module-order scan would.
  read_arena_.reserve(input_bits);
  for (const auto& cptr : module.cells()) {
    Cell* c = cptr.get();
    Block& reads = reads_[c->id()];
    reads.begin = static_cast<uint32_t>(read_arena_.size());
    for (int pi = 0; pi < kPortCount; ++pi) {
      const Port p = static_cast<Port>(pi);
      if (p == Port::Y || p == Port::Q || !c->has_port(p))
        continue;
      for (const SigBit& raw : c->port(p)) {
        const SigBit bit = map(raw);
        if (!bit.is_wire())
          continue;
        const uint32_t id = static_cast<uint32_t>(bit_id(bit));
        read_arena_.push_back(id);
        ++readers_[id].cap;
      }
    }
    reads.size = reads.cap = static_cast<uint32_t>(read_arena_.size()) - reads.begin;
  }
  uint32_t total = 0;
  for (Block& b : readers_) {
    b.begin = total;
    total += b.cap;
  }
  reader_arena_.resize(total);
  // Combinational dependency edges driver(bit) -> c run from a non-Dff
  // driver into a non-Dff reader (Dff.D is the sequential boundary, Dff.Q a
  // source); each read bit position is one edge. The reader ids beside the
  // reader lists spare Kahn's pass a look into every reader cell.
  std::vector<int> indegree(module.cell_id_bound(), 0);
  std::vector<uint32_t> reader_ids(total);
  for (const auto& cptr : module.cells()) {
    Cell* c = cptr.get();
    const Block& reads = reads_[c->id()];
    const bool sequential = c->type() == CellType::Dff;
    for (uint32_t k = reads.begin; k < reads.begin + reads.size; ++k) {
      Block& net = readers_[read_arena_[k]];
      reader_ids[net.begin + net.size] = c->id();
      reader_arena_[net.begin + net.size++] = c;
      if (!sequential && unreleased[read_arena_[k]])
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
  //
  // A Dff reader's indegree starts at 0 (it is seeded) and only falls below,
  // so it is never queued twice.
  std::vector<Cell*> ready;
  for (const auto& cptr : module.cells())
    if (indegree[cptr->id()] == 0)
      ready.push_back(cptr.get());
  topo_.reserve(module.cells().size());
  for (size_t head = 0; head < ready.size();) {
    Cell* c = ready[head++];
    topo_.push_back(c);
    const auto [first, last] = outputs[c->id()];
    for (uint32_t o = first; o < last; ++o) {
      const uint32_t id = out_ids[o];
      if (!unreleased[id])
        continue;
      unreleased[id] = 0;
      const Block& net = readers_[id];
      for (uint32_t k = net.begin; k < net.begin + net.size; ++k)
        if (--indegree[reader_ids[k]] == 0)
          ready.push_back(reader_arena_[k]);
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
    readers_.resize(n);
    output_port_.resize(n, 0);
  }
  return id;
}

size_t NetlistIndex::grow_cell_slot(const Cell* cell) {
  const size_t id = cell->id();
  if (id >= topo_pos_.size()) {
    const size_t n = std::max(module_->cell_id_bound(), id + 1);
    reads_.resize(n);
    topo_pos_.resize(n, -1);
    neighbours_.resize(n);
    neighbour_mark_.resize(n, 0);
  }
  return id;
}

CellRange NetlistIndex::readers_of(const SigBit& canonical) const {
  const size_t slot = bit_slot(canonical);
  if (slot == kNoSlot)
    return {};
  const Block& b = readers_[slot];
  return CellRange(reader_arena_.data() + b.begin, b.size);
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

Cell* NetlistIndex::driver(SigBit bit) const {
  const size_t slot = bit_slot(sigmap()(bit));
  return slot == kNoSlot ? nullptr : driver_[slot];
}

CellRange NetlistIndex::readers(SigBit bit) const { return readers_of(sigmap()(bit)); }

int NetlistIndex::fanout(SigBit bit) const {
  const SigBit b = sigmap()(bit);
  return static_cast<int>(readers_of(b).size()) + (output_port_of(b) ? 1 : 0);
}

bool NetlistIndex::drives_output_port(SigBit bit) const { return output_port_of(sigmap()(bit)); }

CellRange NetlistIndex::combinational_neighbours(const Cell* cell) const {
  if (neighbours_stale_) {
    std::fill(neighbours_.begin(), neighbours_.end(), Neighbours{});
    neighbour_arena_.clear();
    neighbours_stale_ = false;
  }
  Neighbours* entry = nullptr;
  if (cell->module() == module_ && cell->id() < neighbours_.size()) {
    entry = &neighbours_[cell->id()];
    if (entry->size < kScanned && entry->port_version == cell->port_version())
      return CellRange(neighbour_arena_.data() + entry->begin, entry->size);
  }

  // Scan the driver and readers of every port bit, keeping first occurrences
  // (a mark per cell id, stamped with this scan's number).
  if (++neighbour_scans_ == 0) {
    std::fill(neighbour_mark_.begin(), neighbour_mark_.end(), 0);
    neighbour_scans_ = 1;
  }
  neighbour_scan_.clear();
  const auto keep = [this](Cell* c) {
    uint32_t& mark = neighbour_mark_[c->id()];
    if (c->type() != CellType::Dff && mark != neighbour_scans_) {
      mark = neighbour_scans_;
      neighbour_scan_.push_back(c);
    }
  };
  size_t port_bits = 0;
  for (int pi = 0; pi < kPortCount; ++pi) {
    const Port p = static_cast<Port>(pi);
    if (!cell->has_port(p))
      continue;
    const SigSpec& sig = cell->port(p);
    port_bits += static_cast<size_t>(sig.size());
    for (const SigBit& raw : sig) {
      const size_t slot = bit_slot(sigmap()(raw));
      if (slot == kNoSlot)
        continue;
      if (Cell* d = driver_[slot])
        keep(d);
      const Block& list = readers_[slot];
      for (uint32_t k = list.begin; k < list.begin + list.size; ++k)
        keep(reader_arena_[k]);
    }
  }

  const uint32_t n = static_cast<uint32_t>(neighbour_scan_.size());
  if (entry == nullptr)
    return CellRange(neighbour_scan_.data(), n);
  entry->port_version = cell->port_version();
  if (n > port_bits) {
    entry->size = kScanned;
    return CellRange(neighbour_scan_.data(), n);
  }
  if (entry->cap < n) {
    entry->begin = static_cast<uint32_t>(neighbour_arena_.size());
    entry->cap = n;
    neighbour_arena_.resize(neighbour_arena_.size() + n);
  }
  std::copy(neighbour_scan_.begin(), neighbour_scan_.end(),
            neighbour_arena_.begin() + entry->begin);
  entry->size = n;
  return CellRange(neighbour_arena_.data() + entry->begin, n);
}

void NetlistIndex::push_reader(size_t bit, Cell* cell) {
  Block& list = readers_[bit];
  make_room(reader_arena_, list, 1);
  reader_arena_[list.begin + list.size++] = cell;
}

void NetlistIndex::index_cell_reads(Cell* cell) {
  const size_t cid = grow_cell_slot(cell);
  Block& reads = reads_[cid];
  reads.size = 0;
  make_room(read_arena_, reads, input_bit_count(*cell));
  for (int pi = 0; pi < kPortCount; ++pi) {
    const Port p = static_cast<Port>(pi);
    if (p == Port::Y || p == Port::Q || !cell->has_port(p))
      continue;
    for (const SigBit& raw : cell->port(p)) {
      const SigBit bit = sigmap()(raw);
      if (!bit.is_wire())
        continue;
      const size_t id = grow_bit_slot(bit);
      push_reader(id, cell);
      read_arena_[reads.begin + reads.size++] = static_cast<uint32_t>(id);
    }
  }
}

void NetlistIndex::erase_cell_reads(Cell* cell) {
  if (cell->module() != module_ || cell->id() >= reads_.size())
    return;
  Block& reads = reads_[cell->id()];
  for (uint32_t k = reads.begin; k < reads.begin + reads.size; ++k) {
    const size_t id = sigmap_->find_id(read_arena_[k]); // re-canonicalize: merges since
    if (id >= readers_.size())
      continue; // the class became a constant
    Block& list = readers_[id];
    Cell** first = reader_arena_.data() + list.begin;
    Cell** last = first + list.size;
    Cell** pos = std::find(first, last, cell);
    if (pos != last) { // one occurrence per stored entry (multiset semantics)
      std::copy(pos + 1, last, pos);
      --list.size;
    }
  }
  reads.size = 0;
}

void NetlistIndex::remove_cell(Cell* cell) {
  forget_neighbours();
  erase_cell_reads(cell);
  for (const SigBit& raw : cell->port(cell->output_port())) {
    const size_t id = bit_slot(sigmap()(raw));
    if (id != kNoSlot && driver_[id] == cell)
      driver_[id] = nullptr;
  }
  if (cell->module() == module_ && cell->id() < topo_pos_.size()) {
    int& pos = topo_pos_[cell->id()];
    if (pos >= 0) {
      pos = -1;
      --topo_live_;
    }
  }
}

void NetlistIndex::add_cell(Cell* cell, int topo_pos) {
  forget_neighbours();
  for (const SigBit& raw : cell->port(cell->output_port())) {
    const SigBit bit = sigmap()(raw);
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

void NetlistIndex::connect(Module& module, const SigSpec& lhs, const SigSpec& rhs) {
  if (&module != module_)
    throw std::invalid_argument("NetlistIndex::connect: not the indexed module");
  forget_neighbours();
  merges_.clear();
  module.connect(lhs, rhs, &merges_);
  for (const auto& [old, rep] : merges_) {
    // Reader entries / driver entries only exist for wire keys; a class
    // whose representative became a constant sheds them, exactly as a
    // rebuild (which never indexes constant-canonical bits) would.
    if (const size_t from = bit_slot(old); from != kNoSlot) {
      if (readers_[from].size != 0 && rep.is_wire()) {
        const size_t to = grow_bit_slot(rep);
        Block& dst = readers_[to];
        Block& moved = readers_[from];
        if (dst.size == 0) {
          std::swap(dst, moved); // the whole list changes hands
        } else {
          make_room(reader_arena_, dst, moved.size);
          std::copy_n(reader_arena_.begin() + moved.begin, moved.size,
                      reader_arena_.begin() + dst.begin + dst.size);
          dst.size += moved.size;
        }
      }
      readers_[from].size = 0;
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

void NetlistIndex::refresh_cell_reads(Cell* cell) {
  forget_neighbours();
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
      const CellRange ra = index.readers(bit);
      const CellRange rb = rebuilt.readers(bit);
      std::vector<Cell*> a(ra.begin(), ra.end());
      std::vector<Cell*> b(rb.begin(), rb.end());
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
