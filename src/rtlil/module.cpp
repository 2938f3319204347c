#include "rtlil/module.hpp"

#include "obs/trace.hpp"
#include "rtlil/sigmap.hpp"
#include "util/log.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <unordered_set>

namespace smartly::rtlil {

Module::Module(Design* design, std::string name)
    : design_(design), name_(std::move(name)), sigmap_(std::make_unique<SigMap>()) {}

Module::~Module() = default;

Wire* Module::add_wire(std::string_view name, int width) {
  return add_wire(NameKey(name), width);
}

Wire* Module::add_wire(const NameKey& key, int width) {
  if (width < 0)
    throw std::invalid_argument("wire width must be >= 0");
  auto w = std::make_unique<Wire>(this, std::string(key.text), width, next_bit_id_);
  const auto [it, inserted] = wire_by_name_.emplace(NameKey(w->name(), key.hash), w.get());
  if (!inserted)
    throw std::invalid_argument(str_format("duplicate wire name: %s", w->name().c_str()));
  if (static_cast<uint64_t>(width) > UINT32_MAX - next_bit_id_) {
    wire_by_name_.erase(it);
    throw std::length_error(str_format("wire %s: module bit ids exhausted", w->name().c_str()));
  }
  next_bit_id_ += static_cast<uint32_t>(width);
  wires_.push_back(std::move(w));
  return wires_.back().get();
}

Wire* Module::new_wire(int width, std::string_view prefix) {
  return add_wire(unique_name(prefix), width);
}

Wire* Module::wire(std::string_view name) const {
  auto it = wire_by_name_.find(NameKey(name));
  return it == wire_by_name_.end() ? nullptr : it->second;
}

bool Module::has_wire(std::string_view name) const { return wire(name) != nullptr; }

void Module::set_port_input(Wire* w) {
  if (!w->port_id) {
    ports_.push_back(w);
    w->port_id = static_cast<int>(ports_.size());
  }
  w->port_input = true;
}

void Module::set_port_output(Wire* w) {
  if (!w->port_id) {
    ports_.push_back(w);
    w->port_id = static_cast<int>(ports_.size());
  }
  w->port_output = true;
}

Module::NameKey Module::unique_name(std::string_view prefix) {
  name_buf_.assign(prefix);
  name_buf_ += '$';
  const size_t stem = name_buf_.size();
  for (;;) {
    char digits[24];
    const auto end = std::to_chars(digits, digits + sizeof digits, name_counter_++).ptr;
    name_buf_.resize(stem);
    name_buf_.append(digits, end);
    const NameKey key(name_buf_);
    if (!wire_by_name_.count(key) && !cell_by_name_.count(key))
      return key;
  }
}

Cell* Module::add_cell(CellType type, std::string_view name) {
  return add_cell(type, name.empty() ? unique_name(cell_type_name(type)) : NameKey(name));
}

Cell* Module::add_cell(CellType type, const NameKey& key) {
  auto c = std::make_unique<Cell>(this, std::string(key.text), type, next_cell_id_);
  if (!cell_by_name_.emplace(NameKey(c->name(), key.hash), c.get()).second)
    throw std::invalid_argument(str_format("duplicate cell name: %s", c->name().c_str()));
  ++next_cell_id_;
  cells_.push_back(std::move(c));
  return cells_.back().get();
}

Cell* Module::cell(std::string_view name) const {
  auto it = cell_by_name_.find(NameKey(name));
  return it == cell_by_name_.end() ? nullptr : it->second;
}

void Module::remove_cell(Cell* cell) { remove_cells({cell}); }

void Module::remove_wire(Wire* w) {
  drop_sigmap();
  wire_by_name_.erase(NameKey(w->name()));
  // The common caller retires the just-created $sig temp, so search back-first.
  for (auto it = wires_.rbegin(); it != wires_.rend(); ++it) {
    if (it->get() == w) {
      wires_.erase(std::next(it).base());
      return;
    }
  }
}

void Module::remove_cells(const std::vector<Cell*>& dead) {
  if (dead.empty())
    return;
  std::unordered_set<const Cell*> kill(dead.begin(), dead.end());
  for (const Cell* c : dead)
    cell_by_name_.erase(NameKey(c->name()));
  cells_.erase(std::remove_if(cells_.begin(), cells_.end(),
                              [&](const std::unique_ptr<Cell>& c) { return kill.count(c.get()); }),
               cells_.end());
}

void Module::connect(const SigSpec& lhs, const SigSpec& rhs,
                     std::vector<AliasMerge>* merges) {
  if (lhs.size() != rhs.size())
    throw std::invalid_argument(str_format("connect width mismatch: %d vs %d", lhs.size(),
                                           rhs.size()));
  if (merges != nullptr)
    sigmap();
  if (sigmap_built_) {
    try {
      sigmap_->add(lhs, rhs, merges);
    } catch (...) {
      drop_sigmap(); // a bit of another module: the map no longer equals a rebuild
      throw;
    }
  }
  connections_.emplace_back(lhs, rhs);
}

const SigMap& Module::sigmap() const {
  if (!sigmap_built_) {
    const obs::Span span("rtlil", "rtlil.sigmap", "connections",
                         static_cast<uint64_t>(connections_.size()));
    SigMap map;
    for (const auto& [lhs, rhs] : connections_)
      map.add(lhs, rhs);
    *sigmap_ = std::move(map);
    sigmap_built_ = true;
  }
  return *sigmap_;
}

void Module::drop_sigmap() {
  if (!sigmap_built_)
    return; // empty already
  *sigmap_ = SigMap();
  sigmap_built_ = false;
}

SigSpec Module::add_unary(CellType type, const SigSpec& a, int y_width, bool a_signed) {
  Wire* y = new_wire(y_width);
  Cell* c = add_cell(type);
  c->set_port(Port::A, a);
  c->set_port(Port::Y, SigSpec(y));
  c->params().a_signed = a_signed;
  c->infer_widths();
  return SigSpec(y);
}

SigSpec Module::add_binary(CellType type, const SigSpec& a, const SigSpec& b, int y_width,
                           bool a_signed, bool b_signed) {
  Wire* y = new_wire(y_width);
  Cell* c = add_cell(type);
  c->set_port(Port::A, a);
  c->set_port(Port::B, b);
  c->set_port(Port::Y, SigSpec(y));
  c->params().a_signed = a_signed;
  c->params().b_signed = b_signed;
  c->infer_widths();
  return SigSpec(y);
}

SigSpec Module::Mux(const SigSpec& a, const SigSpec& b, const SigSpec& s) {
  Wire* y = new_wire(a.size());
  add_mux(a, b, s, SigSpec(y));
  return SigSpec(y);
}

SigSpec Module::Pmux(const SigSpec& a, const SigSpec& b, const SigSpec& s) {
  Wire* y = new_wire(a.size());
  add_pmux(a, b, s, SigSpec(y));
  return SigSpec(y);
}

SigSpec Module::Dff(const SigSpec& d, const SigSpec& clk) {
  Wire* q = new_wire(d.size());
  add_dff(d, SigSpec(q), clk);
  return SigSpec(q);
}

Cell* Module::add_mux(const SigSpec& a, const SigSpec& b, const SigSpec& s, const SigSpec& y) {
  Cell* c = add_cell(CellType::Mux);
  c->set_port(Port::A, a);
  c->set_port(Port::B, b);
  c->set_port(Port::S, s);
  c->set_port(Port::Y, y);
  c->infer_widths();
  c->check();
  return c;
}

Cell* Module::add_pmux(const SigSpec& a, const SigSpec& b, const SigSpec& s, const SigSpec& y) {
  Cell* c = add_cell(CellType::Pmux);
  c->set_port(Port::A, a);
  c->set_port(Port::B, b);
  c->set_port(Port::S, s);
  c->set_port(Port::Y, y);
  c->infer_widths();
  c->check();
  return c;
}

Cell* Module::add_dff(const SigSpec& d, const SigSpec& q, const SigSpec& clk) {
  Cell* c = add_cell(CellType::Dff);
  c->set_port(Port::D, d);
  c->set_port(Port::Q, q);
  c->set_port(Port::Clk, clk);
  c->infer_widths();
  c->check();
  return c;
}

void Module::check() const {
  for (const auto& c : cells_) {
    c->check();
    for (int i = 0; i < kPortCount; ++i) {
      const Port p = static_cast<Port>(i);
      if (!c->has_port(p))
        continue;
      for (const SigBit& bit : c->port(p)) {
        if (!bit.is_wire())
          continue;
        if (bit.wire->module() != this)
          throw std::logic_error(str_format("cell %s references foreign wire %s",
                                            c->name().c_str(), bit.wire->name().c_str()));
        if (bit.offset < 0 || bit.offset >= bit.wire->width())
          throw std::logic_error(str_format("cell %s references out-of-range bit %s[%d]",
                                            c->name().c_str(), bit.wire->name().c_str(),
                                            bit.offset));
      }
    }
  }
}

size_t Module::count_cells(CellType t) const noexcept {
  size_t n = 0;
  for (const auto& c : cells_)
    if (c->type() == t)
      ++n;
  return n;
}

Module* Design::add_module(const std::string& name) {
  if (module_by_name_.count(name))
    throw std::invalid_argument(str_format("duplicate module name: %s", name.c_str()));
  modules_.push_back(std::make_unique<Module>(this, name));
  Module* m = modules_.back().get();
  module_by_name_.emplace(m->name(), m);
  return m;
}

Module* Design::module(const std::string& name) const {
  auto it = module_by_name_.find(name);
  return it == module_by_name_.end() ? nullptr : it->second;
}

Module* Design::top() const { return modules_.empty() ? nullptr : modules_.front().get(); }

/// Deep-copy `src`'s contents into the empty module `dst`, including the
/// generated-name counter so both modules name future wires/cells
/// identically. Shared by clone_design and restore_module.
void copy_module_into(Module& dst, const Module& src) {
  dst.drop_sigmap(); // rebuilt from the copied connections on first use
  // The copy of each source wire, stored at the wire's bit_base(): the bit
  // ranges of wires that a bit can reference (width > 0) are disjoint.
  std::vector<Wire*> copy_of(src.bit_id_bound());
  dst.wires_.reserve(src.wires().size());
  dst.wire_by_name_.reserve(src.wires().size());
  for (const auto& sw : src.wires()) {
    Wire* dw = dst.add_wire(Module::NameKey(sw->name()), sw->width());
    if (sw->port_input)
      dst.set_port_input(dw);
    if (sw->port_output)
      dst.set_port_output(dw);
    if (sw->width() > 0)
      copy_of[sw->bit_base()] = dw;
  }
  auto map_sig = [&](const SigSpec& s) {
    std::vector<SigBit> bits = s.bits();
    for (SigBit& b : bits) {
      if (b.wire == nullptr)
        continue;
      if (b.wire->module() != &src)
        throw std::out_of_range(str_format("copy of module %s: bit of foreign wire %s",
                                           src.name().c_str(), b.wire->name().c_str()));
      b.wire = copy_of[b.wire->bit_base()];
    }
    return SigSpec(std::move(bits));
  };
  dst.cells_.reserve(src.cells().size());
  dst.cell_by_name_.reserve(src.cells().size());
  for (const auto& sc : src.cells()) {
    Cell* dc = dst.add_cell(sc->type(), Module::NameKey(sc->name()));
    dc->params() = sc->params();
    for (int i = 0; i < kPortCount; ++i) {
      const Port p = static_cast<Port>(i);
      if (sc->has_port(p))
        dc->set_port(p, map_sig(sc->port(p)));
    }
  }
  // The source's connections are already width-checked, and dst's alias map
  // is dropped, so they are appended without connect()'s checks.
  dst.connections_.reserve(src.connections().size());
  for (const auto& [lhs, rhs] : src.connections())
    dst.connections_.emplace_back(map_sig(lhs), map_sig(rhs));
  dst.name_counter_ = src.name_counter_;
}

std::unique_ptr<Design> clone_design(const Design& src) {
  auto dst = std::make_unique<Design>();
  for (const auto& sm : src.modules())
    copy_module_into(*dst->add_module(sm->name()), *sm);
  return dst;
}

void restore_module(Module& dst, const Module& src) {
  dst.wire_by_name_.clear(); // before the wires and cells whose names the keys view
  dst.cell_by_name_.clear();
  dst.wires_.clear();
  dst.cells_.clear();
  dst.connections_.clear();
  dst.ports_.clear();
  dst.name_counter_ = 0;
  copy_module_into(dst, src);
}

} // namespace smartly::rtlil
