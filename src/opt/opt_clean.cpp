#include "opt/opt_clean.hpp"

#include "obs/trace.hpp"
#include "rtlil/sigmap.hpp"
#include "util/log.hpp"

#include <vector>

namespace smartly::opt {

using rtlil::Cell;
using rtlil::Module;
using rtlil::Port;
using rtlil::SigBit;

size_t opt_clean(Module& module) {
  const obs::Span span("opt", "opt.opt_clean");
  const rtlil::SigMap& sigmap = module.sigmap();

  // Driver table over canonical bits, by rtlil::bit_id; the first driver wins.
  std::vector<Cell*> driver(module.bit_id_bound(), nullptr);
  for (const auto& cptr : module.cells())
    for (const SigBit& raw : cptr->port(cptr->output_port())) {
      const SigBit bit = sigmap(raw);
      if (bit.is_wire() && driver[rtlil::bit_id(bit)] == nullptr)
        driver[rtlil::bit_id(bit)] = cptr.get();
    }

  // Seed: output-port bits.
  std::vector<SigBit> work;
  std::vector<bool> needed(module.bit_id_bound(), false);
  const auto need = [&](const SigBit& bit) {
    if (!bit.is_wire() || needed[rtlil::bit_id(bit)])
      return;
    needed[rtlil::bit_id(bit)] = true;
    work.push_back(bit);
  };
  for (const auto& w : module.wires()) {
    if (!w->port_output)
      continue;
    for (int i = 0; i < w->width(); ++i)
      need(sigmap(SigBit(w.get(), i)));
  }

  // Live cells, by Cell::id().
  std::vector<bool> live(module.cell_id_bound(), false);
  while (!work.empty()) {
    const SigBit bit = work.back();
    work.pop_back();
    Cell* cell = driver[rtlil::bit_id(bit)];
    if (cell == nullptr || live[cell->id()])
      continue;
    live[cell->id()] = true;
    for (Port p : cell->input_ports())
      for (const SigBit& raw : cell->port(p))
        need(sigmap(raw));
  }

  std::vector<Cell*> dead;
  for (const auto& cptr : module.cells())
    if (!live[cptr->id()])
      dead.push_back(cptr.get());
  module.remove_cells(dead);
  if (!dead.empty())
    log_debug("opt_clean: removed %zu dead cells", dead.size());
  return dead.size();
}

} // namespace smartly::opt
