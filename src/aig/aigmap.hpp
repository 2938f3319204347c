// aigmap — bit-blast an RTLIL module into an AIG (Yosys `aigmap` analogue).
//
// Sequential cells are cut exactly as the paper's metric requires ("we
// exclude Flip-Flop gates from consideration"): every $dff Q bit becomes an
// AIG input and every D bit an AIG output, so the AIG covers precisely the
// combinational cones and its AND count is the paper's "AIG area".
//
// x/z constants map to 0. This is the usual synthesis resolution of
// don't-cares and is applied identically to baseline and optimized designs.
#pragma once

#include "aig/aig.hpp"
#include "rtlil/id_set.hpp"
#include "rtlil/module.hpp"
#include "rtlil/topo.hpp"

#include <unordered_map>

namespace smartly::aig {

namespace detail {
template <class Result>
class Mapper;
}

/// A whole-module blast: the graph plus the literal of every mapped
/// canonical wire bit. The literals sit in a flat table indexed by
/// rtlil::bit_id (kNoLit = unmapped), so mapping a bit allocates nothing.
class AigMap {
public:
  Aig aig;

  /// Literal of canonical bit `bit` of the blasted module; kNoLit for
  /// constants, unmapped bits and bits created after the blast.
  Lit find(const rtlil::SigBit& bit) const noexcept {
    if (!bit.is_wire() || bit.wire->module() != module_)
      return kNoLit;
    const size_t id = rtlil::bit_id(bit);
    return id < lits_.size() ? lits_[id] : kNoLit;
  }

  /// Call f(bit, lit) for every mapped canonical bit, in ascending bit id.
  template <class F>
  void for_each_bit(F&& f) const {
    if (module_ == nullptr)
      return; // nothing blasted yet
    for (const auto& w : module_->wires()) {
      if (w->bit_base() >= lits_.size())
        break; // wires created after the blast
      for (int i = 0; i < w->width(); ++i) {
        const Lit l = lits_[w->bit_base() + static_cast<size_t>(i)];
        if (l != kNoLit)
          f(rtlil::SigBit(w.get(), i), l);
      }
    }
  }

private:
  template <class>
  friend class detail::Mapper;

  const rtlil::Module* module_ = nullptr;
  std::vector<Lit> lits_; ///< by bit id
};

/// A sub-graph blast. Its literal table is open addressing over the cone's
/// bit ids, so a query costs O(cone) even in a large module.
class ConeMap {
public:
  Aig aig;

  /// Literal of canonical bit `bit`; kNoLit for constants and bits outside
  /// the cone.
  Lit find(const rtlil::SigBit& bit) const {
    return bit.is_wire() ? lits_.find(static_cast<uint32_t>(rtlil::bit_id(bit))) : kNoLit;
  }

private:
  template <class>
  friend class detail::Mapper;

  rtlil::IdMap lits_; ///< bit id -> literal
};

/// Bit-blast `module`. AIG outputs = module output ports + dff D inputs;
/// AIG inputs = module input ports + undriven wires + dff Q outputs. Inputs
/// and outputs are unnamed (Aig renders `i<k>` / `o<k>`).
AigMap aigmap(const rtlil::Module& module);

/// Whole-module blast with a caller-maintained NetlistIndex. The fraig engine
/// re-blasts the netlist every refinement round against the index it updates
/// incrementally; rebuilding the index per round would dominate small rounds.
AigMap aigmap(const rtlil::Module& module, const rtlil::NetlistIndex& index);

/// aigmap() with symbol names for interchange (the AIGER writer): inputs are
/// named after their port or register bit (`wire[offset]`), outputs after
/// their port bit or, for a dff D-cone, the Q bit it feeds (`q[offset].D`).
AigMap aigmap_named(const rtlil::Module& module);

/// Bit-blast only a sub-graph with a caller-provided NetlistIndex: the given
/// `cells` are mapped (in topological order); any bit driven by a cell
/// outside the set becomes an AIG input. AIG outputs are the requested
/// `roots`. Used by the §II redundancy engine to hand a bounded sub-graph to
/// simulation or SAT.
ConeMap aigmap_cone(const rtlil::Module& module, const rtlil::NetlistIndex& index,
                    const std::vector<rtlil::Cell*>& cells,
                    const std::vector<rtlil::SigBit>& roots);

/// Convenience: the paper's area metric (AND nodes reachable from outputs).
size_t aig_area(const rtlil::Module& module);

/// Input registry for shared-graph mapping (see aigmap_shared).
struct SharedInputs {
  std::unordered_map<std::string, Lit> by_name;
};

/// Bit-blast `module` into an existing graph, reusing same-named inputs from
/// earlier calls. Structurally identical cones of the two designs strash to
/// the same literal, which lets the equivalence checker discharge untouched
/// logic without any SAT work. Returns (name, literal) pairs for the module's
/// outputs and dff D-cones, named as by aigmap_named(); outputs are NOT
/// registered on the graph (two designs would collide).
std::vector<std::pair<std::string, Lit>> aigmap_shared(Aig& graph, SharedInputs& inputs,
                                                       const rtlil::Module& module);

} // namespace smartly::aig
