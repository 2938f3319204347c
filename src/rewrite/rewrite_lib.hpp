// Replacement-structure library for the cut-rewriting engine.
//
// For every cut function (a 4-input truth table) the library supplies a
// *gate program*: a short DAG of word-level cells (Not / And / Or / Xor /
// Mux) over the four cut leaves that recomputes the function. Programs are
// synthesized by memoized min-cost decomposition — every variable is tried
// with the single-cell forms
//
//   f = x & g            (cofactor0 == 0)            And
//   f = x | g            (cofactor1 == const1)       Or
//   f = x ? 0 : g        (cofactor1 == 0)            Mux with constant B
//   f = x ? g : 1        (cofactor0 == const1)       Mux with constant A
//   f = x ^ g            (cofactor0 == ~cofactor1)   Xor
//   f = x ? f1 : f0      (always)                    Mux (Shannon)
//
// recursing on the residual function(s); shared subfunctions are emitted
// once (the emitter hashes on sub-truth-table). The engine pre-seeds the
// memo with the 222 NPN class representatives (rewrite/npn.hpp) so the
// per-class structures form the built-in library; other members of a class
// reach their program through the same shared recursion, which keeps the
// memo bounded by the 65536 possible tables.
//
// Cell cost is uniform (1 per gate) because the engine's gain accounting is
// in RTLIL cells — the paper-level metric the benchmarks gate on is cell
// count after `aigmap`, and the commit path re-checks every program node
// against logic the netlist already contains (DAG-aware sharing), so the
// static cost here is only the tie-break-stable upper bound.
#pragma once

#include "rewrite/npn.hpp"
#include "rtlil/cell.hpp"

#include <cstdint>
#include <vector>

namespace smartly::rewrite {

/// One operand of a gate-program op: a constant, one of the four cut leaves,
/// or the output of an earlier op in the same program.
struct GateOperand {
  enum Kind : uint8_t { Const0, Const1, Leaf, Node } kind = Const0;
  uint8_t index = 0; ///< leaf index (Leaf) or op index (Node)

  bool operator==(const GateOperand& o) const noexcept {
    return kind == o.kind && index == o.index;
  }
};

/// One gate: `type` is Not (a), And/Or/Xor (a, b) or Mux (y = s ? b : a).
struct GateOp {
  rtlil::CellType type = rtlil::CellType::Not;
  GateOperand a, b, s;
  TruthTable tt = 0; ///< this op's function over the program's leaves
};

struct GateProgram {
  std::vector<GateOp> ops; ///< topologically ordered (operands precede users)
  GateOperand out;         ///< the program result (may be a Leaf or Const)
  uint8_t support = 0;     ///< mask of leaves the function depends on
  TruthTable tt = 0;
};

/// Most gates a program takes, the size of the engine's per-op arrays. A
/// Shannon tree over four variables takes at most 1 + 2 + 4 = 7 muxes plus
/// one inverter of the last variable (inverters are explicit cells here,
/// unlike AIG complement edges, and a shared subfunction is emitted once);
/// min-cost decomposition never does worse, and 44 functions need all 8.
constexpr size_t kMaxProgramOps = 8;

/// Mask of the leaves `tt` depends on.
uint8_t tt_support(TruthTable tt);

/// Evaluate a program over explicit leaf tables (the tests check programs with it).
TruthTable eval_program(const GateProgram& p, const TruthTable leaves[4]);

class RewriteLibrary {
public:
  /// Process-wide library with the 222 NPN class representatives pre-built.
  static const RewriteLibrary& instance();

  /// The (memoized) program for `tt`. Thread-safe; the reference stays valid
  /// for the library's lifetime. Programs are a pure function of `tt`, so
  /// lookups are deterministic regardless of memoization order.
  const GateProgram& program(TruthTable tt) const;

  /// Worst-case gate count over all 65536 functions: kMaxProgramOps.
  size_t max_cost() const;

private:
  RewriteLibrary();

  struct Impl;
  Impl* impl_; // intentionally leaked with the process-wide singleton
};

} // namespace smartly::rewrite
