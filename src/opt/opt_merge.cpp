#include "opt/opt_merge.hpp"

#include "obs/trace.hpp"
#include "rtlil/sigmap.hpp"
#include "sweep/equiv_classes.hpp"
#include "util/hashing.hpp"
#include "util/log.hpp"

#include <unordered_map>

namespace smartly::opt {

using rtlil::Cell;
using rtlil::Module;

size_t opt_merge(Module& module) {
  const obs::Span span("opt", "opt.opt_merge");
  size_t merged_total = 0;
  for (bool changed = true; changed;) {
    changed = false;
    // An iteration reads the map as it stood at its start: its connects are
    // buffered and applied in order when it ends.
    const rtlil::SigMap& sigmap = module.sigmap();
    std::vector<std::pair<rtlil::SigSpec, rtlil::SigSpec>> connects;
    // Keyed on the sweep subsystem's structural fingerprint (type, params,
    // canonical inputs, commutative normalization) — the same "trivially
    // identical" notion the fraig engine's pre-merge uses, so everything this
    // pass leaves behind is genuine work for simulation + SAT. Hits are
    // verified exactly: unlike the fraig engine's merges this pass has no
    // SAT proof or CEC backstop, so a fingerprint collision must not alias
    // two different cells.
    std::unordered_map<Hash128, Cell*, Hash128Hasher> seen;
    std::vector<Cell*> dead;

    for (const auto& cptr : module.cells()) {
      Cell* cell = cptr.get();
      const Hash128 key = sweep::cell_structural_key(*cell, sigmap);
      auto [it, inserted] = seen.emplace(key, cell);
      if (inserted)
        continue;
      if (!sweep::cell_structurally_identical(*cell, *it->second, sigmap))
        continue; // fingerprint collision: leave both cells alone
      // Same computation: alias this cell's output to the first one's.
      connects.emplace_back(cell->port(cell->output_port()),
                            it->second->port(it->second->output_port()));
      dead.push_back(cell);
      ++merged_total;
      changed = true;
    }
    for (const auto& [lhs, rhs] : connects)
      module.connect(lhs, rhs);
    module.remove_cells(dead);
  }
  if (merged_total)
    log_debug("opt_merge: merged %zu cells", merged_total);
  return merged_total;
}

} // namespace smartly::opt
