#include "opt/opt_clean.hpp"

#include "obs/trace.hpp"
#include "rtlil/sigmap.hpp"
#include "util/log.hpp"

#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace smartly::opt {

using rtlil::Cell;
using rtlil::Module;
using rtlil::Port;
using rtlil::SigBit;

size_t opt_clean(Module& module) {
  const obs::Span span("opt", "opt.opt_clean");
  const rtlil::SigMap sigmap(module);

  // Driver index over canonical bits.
  std::unordered_map<SigBit, Cell*> driver;
  for (const auto& cptr : module.cells())
    for (const SigBit& raw : cptr->port(cptr->output_port())) {
      const SigBit bit = sigmap(raw);
      if (bit.is_wire())
        driver.emplace(bit, cptr.get());
    }

  // Seed: output-port bits.
  std::vector<SigBit> work;
  std::unordered_set<SigBit> needed;
  for (const auto& w : module.wires()) {
    if (!w->port_output)
      continue;
    for (int i = 0; i < w->width(); ++i) {
      const SigBit bit = sigmap(SigBit(w.get(), i));
      if (bit.is_wire() && needed.insert(bit).second)
        work.push_back(bit);
    }
  }

  std::unordered_set<Cell*> live;
  while (!work.empty()) {
    const SigBit bit = work.back();
    work.pop_back();
    auto it = driver.find(bit);
    if (it == driver.end())
      continue;
    Cell* cell = it->second;
    if (!live.insert(cell).second)
      continue;
    for (Port p : cell->input_ports())
      for (const SigBit& raw : cell->port(p)) {
        const SigBit in = sigmap(raw);
        if (in.is_wire() && needed.insert(in).second)
          work.push_back(in);
      }
  }

  std::vector<Cell*> dead;
  for (const auto& cptr : module.cells())
    if (!live.count(cptr.get()))
      dead.push_back(cptr.get());
  module.remove_cells(dead);
  if (!dead.empty())
    log_debug("opt_clean: removed %zu dead cells", dead.size());
  return dead.size();
}

} // namespace smartly::opt
