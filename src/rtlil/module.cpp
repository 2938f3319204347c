#include "rtlil/module.hpp"

#include "obs/trace.hpp"
#include "rtlil/sigmap.hpp"
#include "util/log.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace smartly::rtlil {

Module::Module(Design* design, std::string name)
    : design_(design), name_(std::move(name)), sigmap_(std::make_unique<SigMap>()) {}

Module::~Module() = default;

Wire* Module::add_wire(const std::string& name, int width) {
  if (width < 0)
    throw std::invalid_argument("wire width must be >= 0");
  if (wire_by_name_.count(name))
    throw std::invalid_argument(str_format("duplicate wire name: %s", name.c_str()));
  if (static_cast<uint64_t>(width) > UINT32_MAX - next_bit_id_)
    throw std::length_error(str_format("wire %s: module bit ids exhausted", name.c_str()));
  wires_.push_back(std::make_unique<Wire>(this, name, width, next_bit_id_));
  next_bit_id_ += static_cast<uint32_t>(width);
  Wire* w = wires_.back().get();
  wire_by_name_.emplace(w->name(), w);
  return w;
}

Wire* Module::new_wire(int width, const std::string& prefix) {
  return add_wire(unique_name(prefix), width);
}

Wire* Module::wire(const std::string& name) const {
  auto it = wire_by_name_.find(name);
  return it == wire_by_name_.end() ? nullptr : it->second;
}

bool Module::has_wire(const std::string& name) const { return wire_by_name_.count(name) > 0; }

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

std::string Module::unique_name(const std::string& prefix) {
  for (;;) {
    std::string candidate = str_format("%s$%llu", prefix.c_str(),
                                       static_cast<unsigned long long>(name_counter_++));
    if (!wire_by_name_.count(candidate) && !cell_by_name_.count(candidate))
      return candidate;
  }
}

Cell* Module::add_cell(CellType type, const std::string& name) {
  std::string cname = name.empty() ? unique_name(cell_type_name(type)) : name;
  if (cell_by_name_.count(cname))
    throw std::invalid_argument(str_format("duplicate cell name: %s", cname.c_str()));
  cells_.push_back(std::make_unique<Cell>(this, cname, type, next_cell_id_++));
  Cell* c = cells_.back().get();
  cell_by_name_.emplace(c->name(), c);
  return c;
}

Cell* Module::cell(const std::string& name) const {
  auto it = cell_by_name_.find(name);
  return it == cell_by_name_.end() ? nullptr : it->second;
}

void Module::remove_cell(Cell* cell) { remove_cells({cell}); }

void Module::remove_wire(Wire* w) {
  drop_sigmap();
  wire_by_name_.erase(w->name());
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
    cell_by_name_.erase(c->name());
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
  std::unordered_map<const Wire*, Wire*> wmap;
  for (const auto& sw : src.wires()) {
    Wire* dw = dst.add_wire(sw->name(), sw->width());
    if (sw->port_input)
      dst.set_port_input(dw);
    if (sw->port_output)
      dst.set_port_output(dw);
    wmap.emplace(sw.get(), dw);
  }
  auto map_sig = [&](const SigSpec& s) {
    SigSpec out;
    for (const SigBit& b : s)
      out.append(b.is_wire() ? SigBit(wmap.at(b.wire), b.offset) : b);
    return out;
  };
  for (const auto& sc : src.cells()) {
    Cell* dc = dst.add_cell(sc->type(), sc->name());
    dc->params() = sc->params();
    for (int i = 0; i < kPortCount; ++i) {
      const Port p = static_cast<Port>(i);
      if (sc->has_port(p))
        dc->set_port(p, map_sig(sc->port(p)));
    }
  }
  for (const auto& [lhs, rhs] : src.connections())
    dst.connect(map_sig(lhs), map_sig(rhs));
  dst.name_counter_ = src.name_counter_;
}

std::unique_ptr<Design> clone_design(const Design& src) {
  auto dst = std::make_unique<Design>();
  for (const auto& sm : src.modules())
    copy_module_into(*dst->add_module(sm->name()), *sm);
  return dst;
}

void restore_module(Module& dst, const Module& src) {
  dst.wires_.clear();
  dst.wire_by_name_.clear();
  dst.cells_.clear();
  dst.cell_by_name_.clear();
  dst.connections_.clear();
  dst.ports_.clear();
  dst.name_counter_ = 0;
  copy_module_into(dst, src);
}

} // namespace smartly::rtlil
