#include "sim/eval.hpp"

#include "rtlil/topo.hpp"
#include "util/log.hpp"

#include <stdexcept>

namespace smartly::sim {

namespace {

using rtlil::Port;
using rtlil::state_is_def;

State s_not(State a) {
  if (a == State::S0) return State::S1;
  if (a == State::S1) return State::S0;
  return State::Sx;
}
State s_and(State a, State b) {
  if (a == State::S0 || b == State::S0) return State::S0;
  if (a == State::S1 && b == State::S1) return State::S1;
  return State::Sx;
}
State s_or(State a, State b) {
  if (a == State::S1 || b == State::S1) return State::S1;
  if (a == State::S0 && b == State::S0) return State::S0;
  return State::Sx;
}
State s_xor(State a, State b) {
  if (!state_is_def(a) || !state_is_def(b)) return State::Sx;
  return a == b ? State::S0 : State::S1;
}

Const all_x(int width) { return Const(std::vector<State>(static_cast<size_t>(width), State::Sx)); }

Const from_bool(bool v, int y_width) {
  Const c(v ? 1 : 0, std::max(y_width, 1));
  return c;
}

/// Ripple add: out = a + b + cin. Inputs must be same width and fully defined.
Const ripple_add(const Const& a, const Const& b, bool cin) {
  std::vector<State> out(static_cast<size_t>(a.size()));
  int carry = cin ? 1 : 0;
  for (int i = 0; i < a.size(); ++i) {
    const int sum = (a[i] == State::S1) + (b[i] == State::S1) + carry;
    out[static_cast<size_t>(i)] = (sum & 1) ? State::S1 : State::S0;
    carry = sum >> 1;
  }
  return Const(std::move(out));
}

Const bit_not(const Const& a) {
  std::vector<State> out(static_cast<size_t>(a.size()));
  for (int i = 0; i < a.size(); ++i)
    out[static_cast<size_t>(i)] = s_not(a[i]);
  return Const(std::move(out));
}

/// Unsigned/two's-complement comparison a < b on equal-width defined consts.
bool ult(const Const& a, const Const& b) {
  for (int i = a.size() - 1; i >= 0; --i) {
    if (a[i] != b[i])
      return a[i] == State::S0;
  }
  return false;
}

bool slt(const Const& a, const Const& b) {
  const State sa = a.size() ? a[a.size() - 1] : State::S0;
  const State sb = b.size() ? b[b.size() - 1] : State::S0;
  if (sa != sb)
    return sa == State::S1; // negative < non-negative
  return ult(a, b);
}

} // namespace

Const eval_unary(CellType type, const Const& a, bool a_signed, int y_width) {
  switch (type) {
  case CellType::Not: {
    return bit_not(a.extended(y_width, a_signed));
  }
  case CellType::Pos:
    return a.extended(y_width, a_signed);
  case CellType::Neg: {
    const Const ax = a.extended(y_width, a_signed);
    if (!ax.is_fully_def())
      return all_x(y_width);
    return ripple_add(bit_not(ax), Const(0, y_width), true);
  }
  case CellType::ReduceAnd: {
    State acc = State::S1;
    for (int i = 0; i < a.size(); ++i)
      acc = s_and(acc, a[i]);
    return Const(acc).extended(y_width, false);
  }
  case CellType::ReduceOr:
  case CellType::ReduceBool: {
    State acc = State::S0;
    for (int i = 0; i < a.size(); ++i)
      acc = s_or(acc, a[i]);
    return Const(acc).extended(y_width, false);
  }
  case CellType::ReduceXor: {
    State acc = State::S0;
    for (int i = 0; i < a.size(); ++i)
      acc = s_xor(acc, a[i]);
    return Const(acc).extended(y_width, false);
  }
  case CellType::ReduceXnor: {
    State acc = State::S0;
    for (int i = 0; i < a.size(); ++i)
      acc = s_xor(acc, a[i]);
    return Const(s_not(acc)).extended(y_width, false);
  }
  case CellType::LogicNot: {
    State acc = State::S0;
    for (int i = 0; i < a.size(); ++i)
      acc = s_or(acc, a[i]);
    return Const(s_not(acc)).extended(y_width, false);
  }
  default:
    throw std::logic_error("eval_unary: not a unary cell type");
  }
}

Const eval_binary(CellType type, const Const& a, const Const& b, bool a_signed, bool b_signed,
                  int y_width) {
  const bool sign = a_signed && b_signed;
  const int ext = std::max({a.size(), b.size(), y_width});

  switch (type) {
  case CellType::And:
  case CellType::Or:
  case CellType::Xor:
  case CellType::Xnor: {
    const Const ax = a.extended(y_width, a_signed);
    const Const bx = b.extended(y_width, b_signed);
    std::vector<State> out(static_cast<size_t>(y_width));
    for (int i = 0; i < y_width; ++i) {
      switch (type) {
      case CellType::And: out[static_cast<size_t>(i)] = s_and(ax[i], bx[i]); break;
      case CellType::Or: out[static_cast<size_t>(i)] = s_or(ax[i], bx[i]); break;
      case CellType::Xor: out[static_cast<size_t>(i)] = s_xor(ax[i], bx[i]); break;
      default: out[static_cast<size_t>(i)] = s_not(s_xor(ax[i], bx[i])); break;
      }
    }
    return Const(std::move(out));
  }

  case CellType::Shl:
  case CellType::Shr:
  case CellType::Sshr: {
    if (!a.is_fully_def() || !b.is_fully_def())
      return all_x(y_width);
    const uint64_t sh = b.as_uint();
    const Const ax = a.extended(std::max(a.size(), y_width), a_signed);
    std::vector<State> out(static_cast<size_t>(y_width), State::S0);
    const State fill =
        (type == CellType::Sshr && a_signed && a.size()) ? a[a.size() - 1] : State::S0;
    for (int i = 0; i < y_width; ++i) {
      int64_t src = (type == CellType::Shl) ? static_cast<int64_t>(i) - static_cast<int64_t>(sh)
                                            : static_cast<int64_t>(i) + static_cast<int64_t>(sh);
      if (src < 0)
        out[static_cast<size_t>(i)] = State::S0;
      else if (src >= ax.size())
        out[static_cast<size_t>(i)] = fill;
      else
        out[static_cast<size_t>(i)] = ax[static_cast<int>(src)];
    }
    return Const(std::move(out));
  }

  case CellType::Add:
  case CellType::Sub: {
    const Const ax = a.extended(ext, a_signed);
    const Const bx = b.extended(ext, b_signed);
    if (!ax.is_fully_def() || !bx.is_fully_def())
      return all_x(y_width);
    const Const r = (type == CellType::Add) ? ripple_add(ax, bx, false)
                                            : ripple_add(ax, bit_not(bx), true);
    return r.extended(y_width, sign);
  }

  case CellType::Mul: {
    const Const ax = a.extended(ext, a_signed);
    const Const bx = b.extended(ext, b_signed);
    if (!ax.is_fully_def() || !bx.is_fully_def())
      return all_x(y_width);
    Const acc(0, ext);
    for (int i = 0; i < ext; ++i) {
      if (bx[i] != State::S1)
        continue;
      // acc += (ax << i), truncated to ext bits.
      std::vector<State> shifted(static_cast<size_t>(ext), State::S0);
      for (int j = i; j < ext; ++j)
        shifted[static_cast<size_t>(j)] = ax[j - i];
      acc = ripple_add(acc, Const(std::move(shifted)), false);
    }
    return acc.extended(y_width, sign);
  }

  case CellType::Lt:
  case CellType::Le:
  case CellType::Ge:
  case CellType::Gt: {
    const int w = std::max(a.size(), b.size());
    const Const ax = a.extended(w, a_signed);
    const Const bx = b.extended(w, b_signed);
    if (!ax.is_fully_def() || !bx.is_fully_def())
      return all_x(y_width);
    const bool lt = sign ? slt(ax, bx) : ult(ax, bx);
    const bool eq = ax == bx;
    bool r = false;
    switch (type) {
    case CellType::Lt: r = lt; break;
    case CellType::Le: r = lt || eq; break;
    case CellType::Ge: r = !lt; break;
    default: r = !lt && !eq; break;
    }
    return from_bool(r, y_width);
  }

  case CellType::Eq:
  case CellType::Ne: {
    const int w = std::max(a.size(), b.size());
    const Const ax = a.extended(w, a_signed);
    const Const bx = b.extended(w, b_signed);
    // Bit-precise: a definite mismatch decides even with x elsewhere.
    bool any_undef = false;
    for (int i = 0; i < w; ++i) {
      if (!state_is_def(ax[i]) || !state_is_def(bx[i])) {
        any_undef = true;
        continue;
      }
      if (ax[i] != bx[i])
        return from_bool(type == CellType::Ne, y_width);
    }
    if (any_undef)
      return all_x(y_width);
    return from_bool(type == CellType::Eq, y_width);
  }

  case CellType::LogicAnd:
  case CellType::LogicOr: {
    State la = State::S0, lb = State::S0;
    for (int i = 0; i < a.size(); ++i)
      la = s_or(la, a[i]);
    for (int i = 0; i < b.size(); ++i)
      lb = s_or(lb, b[i]);
    const State r = (type == CellType::LogicAnd) ? s_and(la, lb) : s_or(la, lb);
    return Const(r).extended(y_width, false);
  }

  default:
    throw std::logic_error("eval_binary: not a binary cell type");
  }
}

Const eval_mux(const Const& a, const Const& b, State s) {
  if (s == State::S1)
    return b;
  if (s == State::S0)
    return a;
  std::vector<State> out(static_cast<size_t>(a.size()));
  for (int i = 0; i < a.size(); ++i)
    out[static_cast<size_t>(i)] =
        (state_is_def(a[i]) && a[i] == b[i]) ? a[i] : State::Sx;
  return Const(std::move(out));
}

Const eval_pmux(const Const& a, const Const& b, const Const& s, int width) {
  for (int i = 0; i < s.size(); ++i) {
    if (s[i] == State::S1)
      return b.extract(i * width, width);
    if (s[i] != State::S0)
      return all_x(width);
  }
  return a;
}

Const eval_cell(const Cell& cell, const std::function<Const(rtlil::Port)>& read) {
  const auto& p = cell.params();
  if (rtlil::cell_is_unary(cell.type()))
    return eval_unary(cell.type(), read(Port::A), p.a_signed, p.y_width);
  if (rtlil::cell_is_binary(cell.type()))
    return eval_binary(cell.type(), read(Port::A), read(Port::B), p.a_signed, p.b_signed,
                       p.y_width);
  if (cell.type() == CellType::Mux) {
    const Const s = read(Port::S);
    return eval_mux(read(Port::A), read(Port::B), s[0]);
  }
  if (cell.type() == CellType::Pmux)
    return eval_pmux(read(Port::A), read(Port::B), read(Port::S), p.width);
  throw std::logic_error("eval_cell: unsupported cell type");
}

Evaluator::Evaluator(const Module& module) : module_(module) {}

void Evaluator::set_input(const rtlil::Wire* wire, const Const& value) {
  for (int i = 0; i < wire->width(); ++i)
    values_[SigBit(const_cast<rtlil::Wire*>(wire), i)] =
        i < value.size() ? value[i] : State::S0;
}

void Evaluator::set_bit(SigBit bit, State value) { values_[bit] = value; }

void Evaluator::run() {
  const rtlil::NetlistIndex index(module_);
  const rtlil::SigMap& sigmap = index.sigmap();

  auto bit_value = [&](SigBit raw) {
    const SigBit bit = sigmap(raw);
    if (bit.is_const())
      return bit.data;
    // Prefer explicit assignment on the canonical bit, then on the raw bit.
    if (auto it = values_.find(bit); it != values_.end())
      return it->second;
    if (auto it = values_.find(raw); it != values_.end())
      return it->second;
    return State::Sx;
  };

  for (Cell* cell : index.topo_order()) {
    if (cell->type() == CellType::Dff)
      continue; // Q supplied externally (or x)
    auto read = [&](rtlil::Port p) {
      const SigSpec& sig = cell->port(p);
      std::vector<State> bits;
      bits.reserve(static_cast<size_t>(sig.size()));
      for (const SigBit& b : sig)
        bits.push_back(bit_value(b));
      return Const(std::move(bits));
    };
    const Const y = eval_cell(*cell, read);
    const SigSpec& out = cell->port(cell->output_port());
    for (int i = 0; i < out.size(); ++i) {
      const SigBit bit = sigmap(out[i]);
      if (bit.is_wire())
        values_[bit] = i < y.size() ? y[i] : State::S0;
    }
  }

  // Also materialize values for alias bits so value() works on raw names.
  // (Handled lazily in value() via sigmap.)
}

State Evaluator::value(SigBit bit) const {
  const rtlil::SigMap& sigmap = module_.sigmap();
  const SigBit canon = sigmap(bit);
  if (canon.is_const())
    return canon.data;
  if (auto it = values_.find(canon); it != values_.end())
    return it->second;
  if (auto it = values_.find(bit); it != values_.end())
    return it->second;
  return State::Sx;
}

Const Evaluator::value(const SigSpec& sig) const {
  const rtlil::SigMap& sigmap = module_.sigmap();
  std::vector<State> bits;
  bits.reserve(static_cast<size_t>(sig.size()));
  for (const SigBit& b : sig) {
    const SigBit canon = sigmap(b);
    if (canon.is_const()) {
      bits.push_back(canon.data);
      continue;
    }
    auto it = values_.find(canon);
    if (it == values_.end())
      it = values_.find(b);
    bits.push_back(it == values_.end() ? State::Sx : it->second);
  }
  return Const(std::move(bits));
}

} // namespace smartly::sim
