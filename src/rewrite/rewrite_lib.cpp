#include "rewrite/rewrite_lib.hpp"

#include "obs/trace.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace smartly::rewrite {

using rtlil::CellType;

namespace {

constexpr TruthTable kAllOnes = 0xffff;

/// Cofactor of `tt` with input `var` fixed to `val`, replicated back onto
/// both halves (the result no longer depends on `var`).
TruthTable cofactor(TruthTable tt, int var, int val) {
  const int shift = 1 << var;
  if (val) {
    const TruthTable part = tt & kProjection[var];
    return static_cast<TruthTable>(part | (part >> shift));
  }
  const TruthTable part = tt & static_cast<TruthTable>(~kProjection[var]);
  return static_cast<TruthTable>(part | (part << shift));
}

/// Decomposition forms, in tie-break order (first var, then this order).
enum class Form : uint8_t {
  Const,   ///< f is constant 0/1
  Proj,    ///< f = x_var
  NotProj, ///< f = ~x_var
  AndVar,  ///< f = x & f1
  OrVar,   ///< f = x | f0
  MuxZero, ///< f = x ? 0 : f0
  MuxOne,  ///< f = x ? f1 : 1
  XorVar,  ///< f = x ^ f0
  Mux,     ///< f = x ? f1 : f0 (Shannon)
  MuxPair, ///< f = t ? x_b : x_a with computed select t (mux bi-decomposition)
};

/// Cost is lexicographic (cells, AIG nodes): the engine's gain gate is in
/// RTLIL cells, but among equal-cell structures the one with the smaller
/// blast footprint wins — that is what lets mux-heavy netlists trade two
/// chained muxes for an And + Mux (same cells, 4 AIG nodes instead of 6).
struct Decomp {
  uint16_t cells = 0;
  uint16_t aig = 0;
  Form form = Form::Const;
  uint8_t var = 0; ///< variable; for MuxPair: a_var * 4 + b_var
};

uint16_t eval_operand(const GateOperand& o, const TruthTable leaves[4],
                      const std::vector<uint16_t>& vals) {
  switch (o.kind) {
  case GateOperand::Const0: return 0;
  case GateOperand::Const1: return kAllOnes;
  case GateOperand::Leaf: return leaves[o.index];
  case GateOperand::Node: return vals[o.index];
  }
  return 0;
}

} // namespace

uint8_t tt_support(TruthTable tt) {
  uint8_t mask = 0;
  for (uint8_t v = 0; v < 4; ++v)
    if (cofactor(tt, v, 0) != cofactor(tt, v, 1))
      mask |= static_cast<uint8_t>(1u << v);
  return mask;
}

TruthTable eval_program(const GateProgram& p, const TruthTable leaves[4]) {
  std::vector<uint16_t> vals(p.ops.size());
  for (size_t i = 0; i < p.ops.size(); ++i) {
    const GateOp& op = p.ops[i];
    const uint16_t a = eval_operand(op.a, leaves, vals);
    const uint16_t b = eval_operand(op.b, leaves, vals);
    switch (op.type) {
    case CellType::Not: vals[i] = static_cast<uint16_t>(~a); break;
    case CellType::And: vals[i] = a & b; break;
    case CellType::Or: vals[i] = a | b; break;
    case CellType::Xor: vals[i] = a ^ b; break;
    case CellType::Mux: {
      const uint16_t s = eval_operand(op.s, leaves, vals);
      vals[i] = static_cast<uint16_t>((s & b) | (~s & a));
      break;
    }
    default: vals[i] = 0; break;
    }
  }
  return static_cast<TruthTable>(eval_operand(p.out, leaves, vals));
}

struct RewriteLibrary::Impl {
  mutable std::mutex mutex;
  mutable std::unordered_map<TruthTable, Decomp> decomp;
  mutable std::unordered_map<TruthTable, std::unique_ptr<GateProgram>> programs;
  mutable size_t max_cost = 0;
  mutable bool max_cost_known = false;

  const Decomp& decompose(TruthTable tt) const {
    auto it = decomp.find(tt);
    if (it != decomp.end())
      return it->second;

    Decomp best;
    bool trivial = true;
    if (tt == 0 || tt == kAllOnes) {
      best = {0, 0, Form::Const, 0};
    } else {
      trivial = false;
      for (uint8_t v = 0; v < 4; ++v) {
        if (tt == kProjection[v]) {
          best = {0, 0, Form::Proj, v};
          trivial = true;
          break;
        }
        if (tt == static_cast<TruthTable>(~kProjection[v])) {
          best = {1, 0, Form::NotProj, v};
          trivial = true;
          break;
        }
      }
    }
    if (!trivial) {
      best.cells = std::numeric_limits<uint16_t>::max();
      best.aig = std::numeric_limits<uint16_t>::max();
      const auto consider = [&](Form form, uint8_t var, uint32_t cells, uint32_t aig) {
        if (cells < best.cells || (cells == best.cells && aig < best.aig))
          best = {static_cast<uint16_t>(cells), static_cast<uint16_t>(aig), form, var};
      };
      for (uint8_t v = 0; v < 4; ++v) {
        const TruthTable f0 = cofactor(tt, v, 0);
        const TruthTable f1 = cofactor(tt, v, 1);
        if (f0 == f1)
          continue; // not in the support
        if (f0 == 0) {
          const Decomp& d = decompose(f1);
          consider(Form::AndVar, v, 1u + d.cells, 1u + d.aig);
        }
        if (f1 == kAllOnes) {
          const Decomp& d = decompose(f0);
          consider(Form::OrVar, v, 1u + d.cells, 1u + d.aig);
        }
        if (f1 == 0) {
          // A constant-leg mux blasts to a single AND (x ? 0 : g == ~x & g).
          const Decomp& d = decompose(f0);
          consider(Form::MuxZero, v, 1u + d.cells, 1u + d.aig);
        }
        if (f0 == kAllOnes) {
          // x ? g : 1 blasts to two ANDs (~(s & ~g) with the inner product).
          const Decomp& d = decompose(f1);
          consider(Form::MuxOne, v, 1u + d.cells, 2u + d.aig);
        }
        if (f0 == static_cast<TruthTable>(~f1)) {
          const Decomp& d = decompose(f0);
          consider(Form::XorVar, v, 1u + d.cells, 3u + d.aig);
        }
        {
          const Decomp& d0 = decompose(f0);
          const Decomp& d1 = decompose(f1);
          consider(Form::Mux, v, 1u + d0.cells + d1.cells, 3u + d0.aig + d1.aig);
        }
      }
      // Mux bi-decomposition: f = t ? x_b : x_a with a *computed* select.
      // This is the form chained muxes with shared legs reduce through
      // (two muxes -> select gate + one mux), unreachable by single-variable
      // Shannon steps.
      for (uint8_t a = 0; a < 4; ++a) {
        for (uint8_t b = 0; b < 4; ++b) {
          if (a == b)
            continue;
          const TruthTable t = cofactor(cofactor(tt, a, 0), b, 1);
          if (t == tt)
            continue; // neither var in the support: no decomposition
          const TruthTable muxed =
              static_cast<TruthTable>((t & kProjection[b]) |
                                      (static_cast<TruthTable>(~t) & kProjection[a]));
          if (muxed != tt)
            continue;
          const Decomp& d = decompose(t);
          consider(Form::MuxPair, static_cast<uint8_t>(a * 4 + b), 1u + d.cells,
                   3u + d.aig);
        }
      }
    }
    return decomp.emplace(tt, best).first->second;
  }

  /// Emit the decomposition of `tt` into `prog`, hashing on sub-truth-table
  /// so shared residual functions become one op (DAG sharing).
  GateOperand emit(TruthTable tt, GateProgram& prog,
                   std::unordered_map<TruthTable, GateOperand>& done) const {
    if (tt == 0)
      return {GateOperand::Const0, 0};
    if (tt == kAllOnes)
      return {GateOperand::Const1, 0};
    const auto it = done.find(tt);
    if (it != done.end())
      return it->second;

    const Decomp d = decompose(tt);
    GateOp op;
    op.tt = tt;
    const GateOperand leaf{GateOperand::Leaf, d.var};
    switch (d.form) {
    case Form::Const:
      return {GateOperand::Const0, 0}; // unreachable: handled above
    case Form::Proj:
      return done.emplace(tt, leaf).first->second;
    case Form::NotProj:
      op.type = CellType::Not;
      op.a = leaf;
      break;
    case Form::AndVar:
      op.type = CellType::And;
      op.a = leaf;
      op.b = emit(cofactor(tt, d.var, 1), prog, done);
      break;
    case Form::OrVar:
      op.type = CellType::Or;
      op.a = leaf;
      op.b = emit(cofactor(tt, d.var, 0), prog, done);
      break;
    case Form::MuxZero:
      op.type = CellType::Mux;
      op.a = emit(cofactor(tt, d.var, 0), prog, done);
      op.b = {GateOperand::Const0, 0};
      op.s = leaf;
      break;
    case Form::MuxOne:
      op.type = CellType::Mux;
      op.a = {GateOperand::Const1, 0};
      op.b = emit(cofactor(tt, d.var, 1), prog, done);
      op.s = leaf;
      break;
    case Form::XorVar:
      op.type = CellType::Xor;
      op.a = leaf;
      op.b = emit(cofactor(tt, d.var, 0), prog, done);
      break;
    case Form::Mux:
      op.type = CellType::Mux;
      op.a = emit(cofactor(tt, d.var, 0), prog, done);
      op.b = emit(cofactor(tt, d.var, 1), prog, done);
      op.s = leaf;
      break;
    case Form::MuxPair: {
      const uint8_t a_var = d.var / 4, b_var = d.var % 4;
      op.type = CellType::Mux;
      op.a = {GateOperand::Leaf, a_var};
      op.b = {GateOperand::Leaf, b_var};
      op.s = emit(cofactor(cofactor(tt, a_var, 0), b_var, 1), prog, done);
      break;
    }
    }
    prog.ops.push_back(op);
    const GateOperand res{GateOperand::Node, static_cast<uint8_t>(prog.ops.size() - 1)};
    return done.emplace(tt, res).first->second;
  }

  const GateProgram& build(TruthTable tt) const {
    const auto it = programs.find(tt);
    if (it != programs.end())
      return *it->second;
    auto prog = std::make_unique<GateProgram>();
    prog->tt = tt;
    prog->support = tt_support(tt);
    std::unordered_map<TruthTable, GateOperand> done;
    prog->out = emit(tt, *prog, done);
    return *programs.emplace(tt, std::move(prog)).first->second;
  }
};

RewriteLibrary::RewriteLibrary() : impl_(new Impl) {
  // Pre-seed the 222 NPN class representatives: the built-in library proper.
  // Their residual functions warm the shared decomposition memo for every
  // other member of each class.
  for (const TruthTable rep : NpnTable::instance().representatives())
    impl_->build(rep);
}

const RewriteLibrary& RewriteLibrary::instance() {
  // The first call builds the library and, through it, the NPN table.
  static const RewriteLibrary lib = [] {
    const obs::Span s("rewrite", "rewrite.library");
    return RewriteLibrary();
  }();
  return lib;
}

const GateProgram& RewriteLibrary::program(TruthTable tt) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->build(tt);
}

size_t RewriteLibrary::max_cost() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (!impl_->max_cost_known) {
    for (uint32_t tt = 0; tt < 65536; ++tt)
      impl_->max_cost = std::max(impl_->max_cost,
                                 impl_->build(static_cast<TruthTable>(tt)).ops.size());
    impl_->max_cost_known = true;
  }
  return impl_->max_cost;
}

} // namespace smartly::rewrite
