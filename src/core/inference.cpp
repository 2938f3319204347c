#include "core/inference.hpp"

#include "util/log.hpp"

namespace smartly::core {

using rtlil::Cell;
using rtlil::CellType;
using rtlil::Port;
using rtlil::SigBit;
using rtlil::SigSpec;
using rtlil::State;

InferenceEngine::InferenceEngine(const std::vector<Cell*>& cells, const rtlil::SigMap& sigmap)
    : sigmap_(&sigmap), cells_(cells) {
  for (Cell* c : cells_) {
    for (int pi = 0; pi < rtlil::kPortCount; ++pi) {
      const Port p = static_cast<Port>(pi);
      if (!c->has_port(p))
        continue;
      for (const SigBit& raw : c->port(p)) {
        const SigBit bit = (*sigmap_)(raw);
        if (bit.is_wire())
          touching_[bit].push_back(c);
      }
    }
  }
}

std::optional<bool> InferenceEngine::bit_value(const SigBit& raw) const {
  const SigBit bit = (*sigmap_)(raw);
  if (bit.is_const()) {
    if (bit.data == State::S0)
      return false;
    if (bit.data == State::S1)
      return true;
    return std::nullopt; // x/z: unconstrained
  }
  auto it = values_.find(bit);
  if (it == values_.end())
    return std::nullopt;
  return it->second;
}

std::optional<bool> InferenceEngine::value(SigBit bit) const { return bit_value(bit); }

bool InferenceEngine::set_value(SigBit raw, bool v) {
  const SigBit bit = (*sigmap_)(raw);
  if (bit.is_const()) {
    const bool cv = bit.data == State::S1;
    if (!rtlil::state_is_def(bit.data))
      return true; // x: cannot contradict
    if (cv != v)
      contradiction_ = true;
    return !contradiction_;
  }
  auto [it, inserted] = values_.emplace(bit, v);
  if (!inserted) {
    if (it->second != v)
      contradiction_ = true;
    return !contradiction_;
  }
  // Wake all cells touching this bit.
  auto t = touching_.find(bit);
  if (t != touching_.end()) {
    for (Cell* c : t->second) {
      if (!in_worklist_[c]) {
        in_worklist_[c] = true;
        worklist_.push_back(c);
      }
    }
  }
  return true;
}

bool InferenceEngine::assume(SigBit bit, bool value) { return set_value(bit, value); }

bool InferenceEngine::propagate() {
  // Initially evaluate every cell once (seeds may already decide things).
  for (Cell* c : cells_) {
    if (!in_worklist_[c]) {
      in_worklist_[c] = true;
      worklist_.push_back(c);
    }
  }
  while (!worklist_.empty() && !contradiction_) {
    Cell* c = worklist_.back();
    worklist_.pop_back();
    in_worklist_[c] = false;
    if (!infer_cell(c))
      return false;
  }
  return !contradiction_;
}

bool InferenceEngine::infer_cell(Cell* cell) {
  const CellType t = cell->type();

  auto A = [&](int i) { return bit_value(cell->port(Port::A)[i]); };
  auto B = [&](int i) { return bit_value(cell->port(Port::B)[i]); };
  auto Y = [&](int i) { return bit_value(cell->port(Port::Y)[i]); };
  auto setA = [&](int i, bool v) { return set_value(cell->port(Port::A)[i], v); };
  auto setB = [&](int i, bool v) { return set_value(cell->port(Port::B)[i], v); };
  auto setY = [&](int i, bool v) { return set_value(cell->port(Port::Y)[i], v); };

  const int aw = cell->has_port(Port::A) ? cell->port(Port::A).size() : 0;
  const int bw = cell->has_port(Port::B) ? cell->port(Port::B).size() : 0;
  const int yw = cell->has_port(Port::Y) ? cell->port(Port::Y).size() : 0;

  switch (t) {
  case CellType::Not: {
    // Bitwise involution: y[i] = !a[i] in both directions. Extension bits of
    // y (beyond aw) are ~fill; only handled for the unsigned case (fill 0).
    for (int i = 0; i < yw; ++i) {
      if (i >= aw) {
        if (!cell->params().a_signed && !setY(i, true))
          return false;
        continue;
      }
      if (auto v = A(i); v && !setY(i, !*v))
        return false;
      if (auto v = Y(i); v && !setA(i, !*v))
        return false;
    }
    return true;
  }

  case CellType::And:
  case CellType::Or: {
    const bool is_or = t == CellType::Or;
    // Table I (OR): a=1 ⇒ y=1; a=b=0 ⇒ y=0; y=0 ⇒ a=b=0; y=1 ∧ a=0 ⇒ b=1.
    // AND is the dual. Applied bitwise; unsigned zero-extension of narrow
    // operands contributes constant 0 bits.
    for (int i = 0; i < yw; ++i) {
      auto a = (i < aw) ? A(i) : (cell->params().a_signed && aw > 0 ? A(aw - 1)
                                                                    : std::optional<bool>(false));
      auto b = (i < bw) ? B(i) : (cell->params().b_signed && bw > 0 ? B(bw - 1)
                                                                    : std::optional<bool>(false));
      auto y = Y(i);
      const bool dominant = is_or; // OR: 1 dominates; AND: 0 dominates
      // forward
      if (a && *a == dominant && !setY(i, dominant))
        return false;
      if (b && *b == dominant && !setY(i, dominant))
        return false;
      if (a && b && *a != dominant && *b != dominant && !setY(i, !dominant))
        return false;
      // backward
      if (y && *y != dominant) {
        if (i < aw && !setA(i, !dominant))
          return false;
        if (i < bw && !setB(i, !dominant))
          return false;
      }
      if (y && *y == dominant) {
        if (a && *a != dominant && i < bw && !setB(i, dominant))
          return false;
        if (b && *b != dominant && i < aw && !setA(i, dominant))
          return false;
      }
    }
    return true;
  }

  case CellType::Xor:
  case CellType::Xnor: {
    const bool flip = t == CellType::Xnor;
    for (int i = 0; i < yw; ++i) {
      auto a = (i < aw) ? A(i) : std::optional<bool>(false);
      auto b = (i < bw) ? B(i) : std::optional<bool>(false);
      auto y = Y(i);
      // Any two of (a, b, y) determine the third.
      if (a && b && !setY(i, (*a != *b) != flip))
        return false;
      if (a && y && i < bw && !setB(i, (*a != *y) != flip))
        return false;
      if (b && y && i < aw && !setA(i, (*b != *y) != flip))
        return false;
    }
    return true;
  }

  case CellType::LogicNot:
  case CellType::ReduceOr:
  case CellType::ReduceBool: {
    // y = |a  (LogicNot: y = !(|a)).
    const bool neg = t == CellType::LogicNot;
    auto y = Y(0);
    int unknown = -1, n_unknown = 0, n_one = 0;
    for (int i = 0; i < aw; ++i) {
      auto v = A(i);
      if (!v) {
        unknown = i;
        ++n_unknown;
      } else if (*v) {
        ++n_one;
      }
    }
    if (n_one > 0 && !setY(0, !neg))
      return false;
    if (n_unknown == 0 && n_one == 0 && !setY(0, neg))
      return false;
    if (y && *y == neg) { // |a must be 0: every bit is 0
      for (int i = 0; i < aw; ++i)
        if (!setA(i, false))
          return false;
    }
    if (y && *y == !neg && n_unknown == 1 && n_one == 0) {
      // |a = 1 with exactly one undetermined bit: that bit is 1.
      if (!setA(unknown, true))
        return false;
    }
    for (int i = 1; i < yw; ++i)
      if (!setY(i, false))
        return false;
    return true;
  }

  case CellType::ReduceAnd: {
    auto y = Y(0);
    int unknown = -1, n_unknown = 0, n_zero = 0;
    for (int i = 0; i < aw; ++i) {
      auto v = A(i);
      if (!v) {
        unknown = i;
        ++n_unknown;
      } else if (!*v) {
        ++n_zero;
      }
    }
    if (n_zero > 0 && !setY(0, false))
      return false;
    if (n_unknown == 0 && n_zero == 0 && !setY(0, true))
      return false;
    if (y && *y) {
      for (int i = 0; i < aw; ++i)
        if (!setA(i, true))
          return false;
    }
    if (y && !*y && n_unknown == 1 && n_zero == 0) {
      if (!setA(unknown, false))
        return false;
    }
    for (int i = 1; i < yw; ++i)
      if (!setY(i, false))
        return false;
    return true;
  }

  case CellType::ReduceXor:
  case CellType::ReduceXnor: {
    const bool flip = t == CellType::ReduceXnor;
    int n_unknown = 0, unknown = -1;
    bool parity = false;
    for (int i = 0; i < aw; ++i) {
      auto v = A(i);
      if (!v) {
        ++n_unknown;
        unknown = i;
      } else {
        parity ^= *v;
      }
    }
    auto y = Y(0);
    if (n_unknown == 0 && !setY(0, parity != flip))
      return false;
    if (n_unknown == 1 && y && !setA(unknown, ((*y != flip) != parity)))
      return false;
    for (int i = 1; i < yw; ++i)
      if (!setY(i, false))
        return false;
    return true;
  }

  case CellType::LogicAnd:
  case CellType::LogicOr: {
    // y = (|a) op (|b). Full tables only when both operands are 1-bit;
    // otherwise forward-only via the determined reductions.
    auto red = [&](Port p, int w) -> std::optional<bool> {
      int ones = 0, unknowns = 0;
      for (int i = 0; i < w; ++i) {
        auto v = bit_value(cell->port(p)[i]);
        if (!v)
          ++unknowns;
        else if (*v)
          ++ones;
      }
      if (ones > 0)
        return true;
      if (unknowns == 0)
        return false;
      return std::nullopt;
    };
    const auto ra = red(Port::A, aw);
    const auto rb = red(Port::B, bw);
    const bool is_and = t == CellType::LogicAnd;
    auto y = Y(0);
    if (is_and) {
      if ((ra && !*ra) || (rb && !*rb)) {
        if (!setY(0, false))
          return false;
      } else if (ra && rb && !setY(0, true))
        return false;
      if (y && *y) { // both sides must be true
        if (aw == 1 && !setA(0, true))
          return false;
        if (bw == 1 && !setB(0, true))
          return false;
      }
      if (y && !*y) {
        if (ra && *ra && bw == 1 && !setB(0, false))
          return false;
        if (rb && *rb && aw == 1 && !setA(0, false))
          return false;
      }
    } else {
      if ((ra && *ra) || (rb && *rb)) {
        if (!setY(0, true))
          return false;
      } else if (ra && rb && !setY(0, false))
        return false;
      if (y && !*y) {
        if (aw == 1 && !setA(0, false))
          return false;
        if (bw == 1 && !setB(0, false))
          return false;
      }
      if (y && *y) {
        if (ra && !*ra && bw == 1 && !setB(0, true))
          return false;
        if (rb && !*rb && aw == 1 && !setA(0, true))
          return false;
      }
    }
    for (int i = 1; i < yw; ++i)
      if (!setY(i, false))
        return false;
    return true;
  }

  case CellType::Eq:
  case CellType::Ne: {
    const bool is_eq = t == CellType::Eq;
    if ((cell->params().a_signed || cell->params().b_signed) && aw != bw)
      return true; // sign extension not modelled by these rules
    const int w = std::max(aw, bw);
    auto ext = [&](Port p, int pw, int i) -> std::optional<bool> {
      if (i < pw)
        return bit_value(cell->port(p)[i]);
      return false; // unsigned zero extension (subset: signed eq not inferred)
    };
    // forward: definite mismatch / full match
    bool mismatch = false;
    int n_unknown = 0;
    for (int i = 0; i < w; ++i) {
      auto a = ext(Port::A, aw, i);
      auto b = ext(Port::B, bw, i);
      if (!a || !b) {
        ++n_unknown;
        continue;
      }
      if (*a != *b)
        mismatch = true;
    }
    if (mismatch && !setY(0, !is_eq))
      return false;
    if (!mismatch && n_unknown == 0 && !setY(0, is_eq))
      return false;
    // backward: y says "equal" -> copy known bits across
    auto y = Y(0);
    if (y && (*y == is_eq)) {
      for (int i = 0; i < w; ++i) {
        auto a = ext(Port::A, aw, i);
        auto b = ext(Port::B, bw, i);
        if (a && !b && i < bw && !setB(i, *a))
          return false;
        if (b && !a && i < aw && !setA(i, *b))
          return false;
      }
    }
    // backward: y says "not equal" with exactly one free bit and all other
    // bit pairs equal -> that pair must differ.
    if (y && (*y != is_eq)) {
      int free_i = -1, free_n = 0;
      bool any_diff = false;
      for (int i = 0; i < w; ++i) {
        auto a = ext(Port::A, aw, i);
        auto b = ext(Port::B, bw, i);
        if (a && b) {
          if (*a != *b)
            any_diff = true;
          continue;
        }
        if ((a && !b) || (b && !a)) {
          ++free_n;
          free_i = i;
        } else {
          free_n += 2; // both free: no deduction
        }
      }
      if (!any_diff && free_n == 1) {
        auto a = ext(Port::A, aw, free_i);
        auto b = ext(Port::B, bw, free_i);
        if (a && free_i < bw && !setB(free_i, !*a))
          return false;
        if (b && free_i < aw && !setA(free_i, !*b))
          return false;
      }
    }
    for (int i = 1; i < yw; ++i)
      if (!setY(i, false))
        return false;
    return true;
  }

  case CellType::Mux: {
    auto s = bit_value(cell->port(Port::S)[0]);
    for (int i = 0; i < yw; ++i) {
      auto a = A(i);
      auto b = B(i);
      auto y = Y(i);
      if (s) {
        // Selected side flows both directions.
        if (*s) {
          if (b && !setY(i, *b))
            return false;
          if (y && !setB(i, *y))
            return false;
        } else {
          if (a && !setY(i, *a))
            return false;
          if (y && !setA(i, *y))
            return false;
        }
      } else {
        if (a && b && *a == *b && !setY(i, *a))
          return false;
        // y differs from one side -> select the other side.
        if (y && a && *y != *a && !set_value(cell->port(Port::S)[0], true))
          return false;
        if (y && b && *y != *b && !set_value(cell->port(Port::S)[0], false))
          return false;
      }
    }
    return true;
  }

  case CellType::Pmux: {
    // Forward only: if every select bit is known, the selected part flows.
    const int width = cell->params().width;
    const SigSpec& s = cell->port(Port::S);
    int sel = -1; // -2 unknown, -1 none
    for (int i = 0; i < s.size(); ++i) {
      auto v = bit_value(s[i]);
      if (!v) {
        sel = -2;
        break;
      }
      if (*v) {
        sel = i;
        break;
      }
    }
    if (sel == -2)
      return true;
    for (int i = 0; i < width; ++i) {
      const SigBit src = sel < 0 ? cell->port(Port::A)[i]
                                 : cell->port(Port::B)[sel * width + i];
      if (auto v = bit_value(src); v && !setY(i, *v))
        return false;
      if (auto v = Y(i); v && !set_value(src, *v))
        return false;
    }
    return true;
  }

  default:
    // Arithmetic / shifts / comparisons other than eq: no inference rules
    // (the SAT/simulation stage covers them via the bit-blasted sub-graph).
    return true;
  }
}

} // namespace smartly::core
