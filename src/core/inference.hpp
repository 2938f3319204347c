// Forward/backward inference rules over a sub-graph (paper §II, Table I).
//
// "Considering that the logical relationships are often not overly complex …
// straightforward inferences can help reduce unknown signals. smaRTLy
// applies the inference rules to the known value signals. If a condition
// matches, the corresponding signal in the result becomes a new known value
// signal."
//
// Table I gives the rules for OR cells; this engine implements them plus the
// analogous rules for and/not/xor/xnor/mux/eq/logic_* cells, iterated with a
// worklist until fixpoint. Everything is propositional reasoning on a
// {0, 1, unknown} lattice over canonical SigBits — no search, so it is cheap
// and it runs before any simulation or SAT query.
#pragma once

#include "rtlil/module.hpp"
#include "rtlil/sigmap.hpp"

#include <optional>
#include <unordered_map>
#include <vector>

namespace smartly::core {

class InferenceEngine {
public:
  /// `cells` is the sub-graph; `sigmap` must be the module's canonicalizer.
  InferenceEngine(const std::vector<rtlil::Cell*>& cells, const rtlil::SigMap& sigmap);

  /// Seed a known value (canonical bit). Returns false on contradiction.
  bool assume(rtlil::SigBit bit, bool value);

  /// Run rules to fixpoint. Returns false if a contradiction was derived
  /// (the path condition is unsatisfiable).
  bool propagate();

  /// Value of a canonical bit, if determined.
  std::optional<bool> value(rtlil::SigBit bit) const;

  size_t num_known() const noexcept { return values_.size(); }

private:
  bool set_value(rtlil::SigBit bit, bool value);
  bool infer_cell(rtlil::Cell* cell);

  std::optional<bool> bit_value(const rtlil::SigBit& raw) const;

  const rtlil::SigMap* sigmap_ = nullptr;
  std::vector<rtlil::Cell*> cells_;
  std::unordered_map<rtlil::SigBit, std::vector<rtlil::Cell*>> touching_; ///< bit -> cells
  std::unordered_map<rtlil::SigBit, bool> values_;
  std::vector<rtlil::Cell*> worklist_;
  std::unordered_map<rtlil::Cell*, bool> in_worklist_;
  bool contradiction_ = false;
};

} // namespace smartly::core
