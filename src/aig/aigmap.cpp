#include "aig/aigmap.hpp"

#include "obs/trace.hpp"
#include "rtlil/topo.hpp"
#include "util/log.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

namespace smartly::aig {

namespace detail {

using rtlil::Cell;
using rtlil::CellType;
using rtlil::Module;
using rtlil::Port;
using rtlil::SigBit;
using rtlil::SigSpec;
using rtlil::State;

/// One blast of `module` into an AigMap (whole module, dense literal table)
/// or a ConeMap (sub-graph, open-addressing literal table).
template <class Result>
class Mapper {
public:
  /// Without `index` the mapper builds its own. `named` gives every input
  /// and output its port or register name (see aigmap_named).
  Mapper(const Module& module, const rtlil::NetlistIndex* index, bool named)
      : module_(module),
        owned_index_(index ? nullptr : std::make_unique<rtlil::NetlistIndex>(module)),
        index_(index ? *index : *owned_index_), named_(named) {
    if constexpr (std::is_same_v<Result, AigMap>) {
      result_.module_ = &module;
      result_.lits_.assign(module.bit_id_bound(), kNoLit);
    }
  }

  /// Shared-graph mode: node construction goes into `graph`, and input
  /// creation consults/extends `shared` so same-named inputs unify across
  /// modules mapped into the same graph.
  Mapper(const Module& module, Aig& graph, SharedInputs& shared)
      : Mapper(module, nullptr, true) {
    shared_graph_ = &graph;
    shared_inputs_ = &shared;
  }

  Result run() {
    map_module([&](Lit l, const SigBit& name_bit, bool d_cone) {
      if (named_)
        result_.aig.add_output(l, output_name(name_bit, d_cone));
      else
        result_.aig.add_output(l);
    });
    return std::move(result_);
  }

  std::vector<std::pair<std::string, Lit>> run_shared() {
    std::vector<std::pair<std::string, Lit>> outs;
    map_module([&](Lit l, const SigBit& name_bit, bool d_cone) {
      outs.emplace_back(output_name(name_bit, d_cone), l);
    });
    return outs;
  }

  /// Map only `cells` with AIG outputs `roots` (sub-graph mode).
  Result run_cone(const std::vector<Cell*>& cells, const std::vector<SigBit>& roots) {
    // Sort the cone cells into evaluation order locally — O(|cone| log) per
    // query instead of rescanning the whole module.
    std::vector<Cell*> ordered(cells.begin(), cells.end());
    std::sort(ordered.begin(), ordered.end(), [&](const Cell* a, const Cell* b) {
      return index_.topo_position(a) < index_.topo_position(b);
    });
    for (Cell* cell : ordered) {
      if (cell->type() == CellType::Dff)
        continue;
      map_cell(*cell);
    }
    for (const SigBit& r : roots)
      result_.aig.add_output(lit_of(r));
    return std::move(result_);
  }

private:
  /// Whole-module mapping. Each AIG output goes to emit(lit, name_bit,
  /// d_cone): module output ports first, then dff D-cones.
  template <class Emit>
  void map_module(Emit&& emit) {
    reserve_graph();
    // Create inputs in port order first so the AIG interface is stable.
    for (const rtlil::Wire* w : module_.ports()) {
      if (!w->port_input)
        continue;
      for (int i = 0; i < w->width(); ++i) {
        const SigBit raw(const_cast<rtlil::Wire*>(w), i);
        const SigBit bit = index_.sigmap()(raw);
        // Name after the port bit (stable across optimization), map by the
        // canonical bit.
        if (bit.is_wire() && get(bit) == kNoLit)
          put(bit, new_input(raw));
      }
    }

    for (Cell* cell : index_.topo_order()) {
      if (cell->type() == CellType::Dff)
        continue; // Q bits appear as free inputs; D handled at the end
      map_cell(*cell);
    }

    for (const rtlil::Wire* w : module_.ports()) {
      if (!w->port_output)
        continue;
      for (int i = 0; i < w->width(); ++i) {
        const SigBit raw(const_cast<rtlil::Wire*>(w), i);
        emit(lit_of(raw), raw, false);
      }
    }
    for (const auto& cptr : module_.cells()) {
      if (cptr->type() != CellType::Dff)
        continue;
      // Name next-state outputs after the *Q* bit they feed: Q wires are the
      // user-visible registers and survive optimization unchanged, while cell
      // names are generated and shift between designs — CEC matches outputs
      // by name, so D-cones must be keyed on something stable.
      const SigSpec& d = cptr->port(Port::D);
      const SigSpec& q = cptr->port(Port::Q);
      for (int i = 0; i < d.size(); ++i)
        emit(lit_of(d[i]), q[i], true);
    }
  }

  Aig& graph() { return shared_graph_ ? *shared_graph_ : result_.aig; }

  /// Size the graph once for the whole module: an input per input-port and
  /// register bit, and the AND nodes each cell's gates create before strash
  /// and constant folding merge any (so usually an overestimate). The
  /// strash table then never regrows mid-blast.
  void reserve_graph() {
    const auto is_const = [](const SigSpec& sig, size_t i) {
      return i >= static_cast<size_t>(sig.size()) || sig[static_cast<int>(i)].is_const();
    };
    size_t inputs = 0, ands = 0;
    for (const rtlil::Wire* w : module_.ports())
      if (w->port_input)
        inputs += static_cast<size_t>(w->width());
    for (const auto& cptr : module_.cells()) {
      const auto& p = cptr->params();
      const size_t a = static_cast<size_t>(std::max(p.a_width, 0));
      const size_t b = static_cast<size_t>(std::max(p.b_width, 0));
      const size_t y = static_cast<size_t>(std::max(p.y_width, 0));
      const size_t ab = std::max(a, b);
      switch (cptr->type()) {
      case CellType::Dff: inputs += static_cast<size_t>(std::max(p.width, 0)); break;
      case CellType::Not:
      case CellType::Pos: break;
      case CellType::And:
      case CellType::Or: ands += y; break;
      case CellType::Xor:
      case CellType::Xnor: ands += 3 * y; break;
      case CellType::ReduceAnd:
      case CellType::ReduceOr:
      case CellType::ReduceBool:
      case CellType::LogicNot: ands += a; break;
      case CellType::ReduceXor:
      case CellType::ReduceXnor: ands += 3 * a; break;
      case CellType::LogicAnd:
      case CellType::LogicOr: ands += a + b + 1; break;
      case CellType::Neg:
      case CellType::Add:
      case CellType::Sub: ands += 9 * y; break;
      case CellType::Mul: ands += 10 * y * y; break;
      case CellType::Shl:
      case CellType::Shr:
      case CellType::Sshr: {
        // The barrel shifter's stages (see map_cell), then the shift-out
        // guard over B's higher bits.
        const size_t w = std::max(a, y);
        size_t stages = 1;
        while ((size_t(1) << (stages - 1)) < w)
          ++stages;
        ands += 3 * w * std::min(stages, b) + (b > stages ? b - stages + 3 * w : 0);
        break;
      }
      case CellType::Eq:
      case CellType::Ne:
        // A bit compared with a constant folds its XNOR away.
        for (size_t i = 0; i < ab; ++i)
          ands += is_const(cptr->port(Port::A), i) || is_const(cptr->port(Port::B), i) ? 1 : 4;
        break;
      case CellType::Lt:
      case CellType::Le:
      case CellType::Ge:
      case CellType::Gt: ands += 6 * ab; break;
      case CellType::Mux:
      case CellType::Pmux: {
        // A leg that is a constant folds the mux into one AND.
        const SigSpec& legs = cptr->port(Port::B);
        const size_t cases =
            cptr->type() == CellType::Mux ? 1 : static_cast<size_t>(std::max(p.s_width, 0));
        for (size_t i = 0; i < cases * static_cast<size_t>(std::max(p.width, 0)); ++i)
          ands += is_const(legs, i) ? 1 : 3;
        break;
      }
      default: break;
      }
    }
    graph().reserve(ands, inputs);
  }

  // The literal table: dense by bit id for a whole-module blast, open
  // addressing for a cone.
  Lit get(const SigBit& bit) const {
    const size_t id = rtlil::bit_id(bit);
    if constexpr (std::is_same_v<Result, AigMap>)
      return result_.lits_[id];
    else
      return result_.lits_.find(static_cast<uint32_t>(id));
  }
  void put(const SigBit& bit, Lit l) {
    const size_t id = rtlil::bit_id(bit);
    if constexpr (std::is_same_v<Result, AigMap>)
      result_.lits_[id] = l;
    else
      result_.lits_.set(static_cast<uint32_t>(id), l);
  }

  static std::string bit_name(const SigBit& bit) {
    if (bit.is_const())
      return "const";
    return bit.wire->name() + "[" + std::to_string(bit.offset) + "]";
  }
  static std::string output_name(const SigBit& name_bit, bool d_cone) {
    return d_cone ? bit_name(name_bit) + ".D" : bit_name(name_bit);
  }

  /// A fresh AIG input standing for `name_bit` (named only when asked; in
  /// shared mode, the same-named input of an earlier module if there is one).
  Lit new_input(const SigBit& name_bit) {
    if (shared_inputs_ == nullptr)
      return named_ ? result_.aig.add_input(bit_name(name_bit)) : result_.aig.add_input();
    const std::string name = bit_name(name_bit);
    auto it = shared_inputs_->by_name.find(name);
    if (it != shared_inputs_->by_name.end())
      return it->second;
    const Lit l = graph().add_input(name);
    shared_inputs_->by_name.emplace(name, l);
    return l;
  }

  /// Literal for a bit; creates an AIG input on first use of an unmapped
  /// wire bit (primary input, undriven wire, or dff Q).
  Lit lit_of(const SigBit& raw) {
    const SigBit bit = index_.sigmap()(raw);
    if (bit.is_const())
      return bit.data == State::S1 ? kTrue : kFalse;
    Lit l = get(bit);
    if (l == kNoLit) {
      l = new_input(bit);
      put(bit, l);
    }
    return l;
  }

  /// The literals of `sig` into `out` (its storage reused).
  void sig_lits(const SigSpec& sig, std::vector<Lit>& out) {
    out.clear();
    for (const SigBit& b : sig)
      out.push_back(lit_of(b));
  }

  /// Resize to `width`, filling with the sign bit or 0.
  static void extend(std::vector<Lit>& v, size_t width, bool is_signed) {
    const Lit fill = (is_signed && !v.empty()) ? v.back() : kFalse;
    v.resize(width, fill);
  }

  void set_output(const SigSpec& y, const std::vector<Lit>& lits) {
    for (int i = 0; i < y.size(); ++i) {
      const SigBit bit = index_.sigmap()(y[i]);
      if (bit.is_wire())
        put(bit, i < static_cast<int>(lits.size()) ? lits[static_cast<size_t>(i)] : kFalse);
    }
  }

  /// sum = a + b + cin over a.size() bits; `sum` must not be `a` or `b`.
  void ripple_add(const std::vector<Lit>& a, const std::vector<Lit>& b, Lit cin,
                  std::vector<Lit>& sum) {
    sum.resize(a.size());
    Lit carry = cin;
    for (size_t i = 0; i < a.size(); ++i) {
      const Lit axb = graph().xor_(a[i], b[i]);
      sum[i] = graph().xor_(axb, carry);
      // carry = a&b | carry&(a^b), the carry leg's AND created first
      const Lit propagate = graph().and_(carry, axb);
      const Lit generate = graph().and_(a[i], b[i]);
      carry = graph().or_(generate, propagate);
    }
  }

  Lit reduce_and(const std::vector<Lit>& v) {
    Lit acc = kTrue;
    for (Lit l : v)
      acc = graph().and_(acc, l);
    return acc;
  }
  /// OR of v[from..].
  Lit reduce_or(const std::vector<Lit>& v, size_t from = 0) {
    Lit acc = kFalse;
    for (size_t i = from; i < v.size(); ++i)
      acc = graph().or_(acc, v[i]);
    return acc;
  }
  Lit reduce_xor(const std::vector<Lit>& v) {
    Lit acc = kFalse;
    for (Lit l : v)
      acc = graph().xor_(acc, l);
    return acc;
  }

  /// Unsigned a < b over equal-width vectors (ripple from LSB).
  Lit less_unsigned(const std::vector<Lit>& a, const std::vector<Lit>& b) {
    Lit lt = kFalse;
    for (size_t i = 0; i < a.size(); ++i) {
      const Lit eq = graph().xnor_(a[i], b[i]);
      const Lit here = graph().and_(lit_not(a[i]), b[i]);
      lt = graph().or_(here, graph().and_(eq, lt));
    }
    return lt;
  }

  void map_cell(Cell& cell) {
    const auto& p = cell.params();
    Aig& g = graph();
    // The literal buffers, reused from cell to cell.
    std::vector<Lit>& a = a_;
    std::vector<Lit>& b = b_;
    std::vector<Lit>& y = y_;
    y.clear();

    if (rtlil::cell_is_unary(cell.type())) {
      sig_lits(cell.port(Port::A), a);
      switch (cell.type()) {
      case CellType::Not: {
        extend(a, static_cast<size_t>(p.y_width), p.a_signed);
        for (Lit l : a)
          y.push_back(lit_not(l));
        break;
      }
      case CellType::Pos:
        extend(a, static_cast<size_t>(p.y_width), p.a_signed);
        y.swap(a);
        break;
      case CellType::Neg: {
        extend(a, static_cast<size_t>(p.y_width), p.a_signed);
        for (Lit& l : a)
          l = lit_not(l);
        b.assign(a.size(), kFalse);
        ripple_add(a, b, kTrue, y);
        break;
      }
      case CellType::ReduceAnd: y.push_back(reduce_and(a)); break;
      case CellType::ReduceOr:
      case CellType::ReduceBool: y.push_back(reduce_or(a)); break;
      case CellType::ReduceXor: y.push_back(reduce_xor(a)); break;
      case CellType::ReduceXnor: y.push_back(lit_not(reduce_xor(a))); break;
      case CellType::LogicNot: y.push_back(lit_not(reduce_or(a))); break;
      default: throw std::logic_error("aigmap: unhandled unary");
      }
      extend(y, static_cast<size_t>(p.y_width), false);
      set_output(cell.port(Port::Y), y);
      return;
    }

    if (rtlil::cell_is_binary(cell.type())) {
      sig_lits(cell.port(Port::A), a);
      sig_lits(cell.port(Port::B), b);
      const bool sign = p.a_signed && p.b_signed;
      switch (cell.type()) {
      case CellType::And:
      case CellType::Or:
      case CellType::Xor:
      case CellType::Xnor: {
        extend(a, static_cast<size_t>(p.y_width), p.a_signed);
        extend(b, static_cast<size_t>(p.y_width), p.b_signed);
        for (size_t i = 0; i < a.size(); ++i) {
          switch (cell.type()) {
          case CellType::And: y.push_back(g.and_(a[i], b[i])); break;
          case CellType::Or: y.push_back(g.or_(a[i], b[i])); break;
          case CellType::Xor: y.push_back(g.xor_(a[i], b[i])); break;
          default: y.push_back(g.xnor_(a[i], b[i])); break;
          }
        }
        break;
      }
      case CellType::Add:
      case CellType::Sub: {
        const size_t w = static_cast<size_t>(p.y_width);
        extend(a, w, p.a_signed);
        extend(b, w, p.b_signed);
        if (cell.type() == CellType::Sub) {
          for (Lit& l : b)
            l = lit_not(l);
          ripple_add(a, b, kTrue, y);
        } else {
          ripple_add(a, b, kFalse, y);
        }
        break;
      }
      case CellType::Mul: {
        const size_t w = static_cast<size_t>(p.y_width);
        extend(a, w, p.a_signed);
        extend(b, w, p.b_signed);
        std::vector<Lit>& acc = y;
        std::vector<Lit>& pp = t_;
        acc.assign(w, kFalse);
        for (size_t i = 0; i < w; ++i) {
          pp.assign(w, kFalse);
          for (size_t j = i; j < w; ++j)
            pp[j] = g.and_(a[j - i], b[i]);
          ripple_add(acc, pp, kFalse, u_);
          acc.swap(u_);
        }
        break;
      }
      case CellType::Shl:
      case CellType::Shr:
      case CellType::Sshr: {
        const size_t w = std::max({a.size(), static_cast<size_t>(p.y_width)});
        extend(a, w, p.a_signed);
        const Lit fill =
            (cell.type() == CellType::Sshr && p.a_signed && !a.empty()) ? a.back() : kFalse;
        // Barrel shifter over the low bits of B; any higher set bit of B
        // shifts everything out.
        size_t stages = 0;
        while ((size_t(1) << stages) < w)
          ++stages;
        ++stages; // allow shifting fully out
        std::vector<Lit>& cur = y;
        std::vector<Lit>& shifted = t_;
        cur.assign(a.begin(), a.end());
        for (size_t s = 0; s < std::min(stages, b.size()); ++s) {
          const size_t dist = size_t(1) << s;
          shifted.assign(cur.size(), fill);
          for (size_t i = 0; i < cur.size(); ++i) {
            if (cell.type() == CellType::Shl) {
              shifted[i] = (i >= dist) ? cur[i - dist] : kFalse;
            } else {
              shifted[i] = (i + dist < cur.size()) ? cur[i + dist] : fill;
            }
          }
          for (size_t i = 0; i < cur.size(); ++i)
            cur[i] = g.mux_(b[s], shifted[i], cur[i]);
        }
        if (b.size() > stages) {
          const Lit any_high = reduce_or(b, stages);
          for (Lit& l : cur)
            l = g.mux_(any_high, fill, l);
        }
        break;
      }
      case CellType::Lt:
      case CellType::Le:
      case CellType::Ge:
      case CellType::Gt: {
        const size_t w = std::max(a.size(), b.size());
        extend(a, w, p.a_signed);
        extend(b, w, p.b_signed);
        if (sign && w > 0) {
          // Signed compare == unsigned compare with inverted sign bits.
          a.back() = lit_not(a.back());
          b.back() = lit_not(b.back());
        }
        const Lit lt = less_unsigned(a, b);
        Lit r = kFalse;
        switch (cell.type()) {
        case CellType::Lt: r = lt; break;
        case CellType::Ge: r = lit_not(lt); break;
        case CellType::Le: r = lit_not(less_unsigned(b, a)); break;
        default: r = less_unsigned(b, a); break;
        }
        y.push_back(r);
        break;
      }
      case CellType::Eq:
      case CellType::Ne: {
        const size_t w = std::max(a.size(), b.size());
        extend(a, w, p.a_signed);
        extend(b, w, p.b_signed);
        Lit eq = kTrue;
        for (size_t i = 0; i < w; ++i)
          eq = g.and_(eq, g.xnor_(a[i], b[i]));
        y.push_back(cell.type() == CellType::Eq ? eq : lit_not(eq));
        break;
      }
      case CellType::LogicAnd:
      case CellType::LogicOr: {
        const Lit la = reduce_or(a);
        const Lit lb = reduce_or(b);
        y.push_back(cell.type() == CellType::LogicAnd ? g.and_(la, lb) : g.or_(la, lb));
        break;
      }
      default:
        throw std::logic_error("aigmap: unhandled binary");
      }
      extend(y, static_cast<size_t>(p.y_width), false);
      set_output(cell.port(Port::Y), y);
      return;
    }

    if (cell.type() == CellType::Mux) {
      sig_lits(cell.port(Port::A), a);
      sig_lits(cell.port(Port::B), b);
      const Lit s = lit_of(cell.port(Port::S)[0]);
      y.resize(a.size());
      for (size_t i = 0; i < a.size(); ++i)
        y[i] = graph().mux_(s, b[i], a[i]);
      set_output(cell.port(Port::Y), y);
      return;
    }

    if (cell.type() == CellType::Pmux) {
      std::vector<Lit>& s = t_;
      sig_lits(cell.port(Port::A), a);
      sig_lits(cell.port(Port::B), b);
      sig_lits(cell.port(Port::S), s);
      const size_t w = static_cast<size_t>(p.width);
      y.assign(a.begin(), a.end());
      // Priority: lowest set S bit wins, so fold from the last case inward.
      for (size_t i = s.size(); i-- > 0;) {
        for (size_t j = 0; j < w; ++j)
          y[j] = graph().mux_(s[i], b[i * w + j], y[j]);
      }
      set_output(cell.port(Port::Y), y);
      return;
    }

    throw std::logic_error(std::string("aigmap: unhandled cell type ") +
                           rtlil::cell_type_name(cell.type()));
  }

  const Module& module_;
  std::unique_ptr<rtlil::NetlistIndex> owned_index_;
  const rtlil::NetlistIndex& index_;
  const bool named_;
  Result result_;
  Aig* shared_graph_ = nullptr;
  SharedInputs* shared_inputs_ = nullptr;
  std::vector<Lit> a_, b_, y_, t_, u_; ///< map_cell's literal buffers
};

} // namespace detail

AigMap aigmap(const rtlil::Module& module) {
  return detail::Mapper<AigMap>(module, nullptr, false).run();
}

AigMap aigmap(const rtlil::Module& module, const rtlil::NetlistIndex& index) {
  return detail::Mapper<AigMap>(module, &index, false).run();
}

AigMap aigmap_named(const rtlil::Module& module) {
  return detail::Mapper<AigMap>(module, nullptr, true).run();
}

ConeMap aigmap_cone(const rtlil::Module& module, const rtlil::NetlistIndex& index,
                    const std::vector<rtlil::Cell*>& cells,
                    const std::vector<rtlil::SigBit>& roots) {
  return detail::Mapper<ConeMap>(module, &index, false).run_cone(cells, roots);
}

std::vector<std::pair<std::string, Lit>> aigmap_shared(Aig& graph, SharedInputs& inputs,
                                                       const rtlil::Module& module) {
  return detail::Mapper<AigMap>(module, graph, inputs).run_shared();
}

size_t aig_area(const rtlil::Module& module) {
  const obs::Span area_span("aig", "aig.area");
  return aigmap(module).aig.num_ands_reachable();
}

} // namespace smartly::aig
