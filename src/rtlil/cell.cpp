#include "rtlil/cell.hpp"

#include "util/log.hpp"

#include <stdexcept>

namespace smartly::rtlil {

const char* cell_type_name(CellType t) noexcept {
  switch (t) {
  case CellType::Not: return "$not";
  case CellType::Pos: return "$pos";
  case CellType::Neg: return "$neg";
  case CellType::ReduceAnd: return "$reduce_and";
  case CellType::ReduceOr: return "$reduce_or";
  case CellType::ReduceXor: return "$reduce_xor";
  case CellType::ReduceXnor: return "$reduce_xnor";
  case CellType::ReduceBool: return "$reduce_bool";
  case CellType::LogicNot: return "$logic_not";
  case CellType::And: return "$and";
  case CellType::Or: return "$or";
  case CellType::Xor: return "$xor";
  case CellType::Xnor: return "$xnor";
  case CellType::Shl: return "$shl";
  case CellType::Shr: return "$shr";
  case CellType::Sshr: return "$sshr";
  case CellType::Add: return "$add";
  case CellType::Sub: return "$sub";
  case CellType::Mul: return "$mul";
  case CellType::Lt: return "$lt";
  case CellType::Le: return "$le";
  case CellType::Eq: return "$eq";
  case CellType::Ne: return "$ne";
  case CellType::Ge: return "$ge";
  case CellType::Gt: return "$gt";
  case CellType::LogicAnd: return "$logic_and";
  case CellType::LogicOr: return "$logic_or";
  case CellType::Mux: return "$mux";
  case CellType::Pmux: return "$pmux";
  case CellType::Dff: return "$dff";
  }
  return "$unknown";
}

bool cell_is_unary(CellType t) noexcept {
  switch (t) {
  case CellType::Not:
  case CellType::Pos:
  case CellType::Neg:
  case CellType::ReduceAnd:
  case CellType::ReduceOr:
  case CellType::ReduceXor:
  case CellType::ReduceXnor:
  case CellType::ReduceBool:
  case CellType::LogicNot:
    return true;
  default:
    return false;
  }
}

bool cell_is_binary(CellType t) noexcept {
  switch (t) {
  case CellType::And:
  case CellType::Or:
  case CellType::Xor:
  case CellType::Xnor:
  case CellType::Shl:
  case CellType::Shr:
  case CellType::Sshr:
  case CellType::Add:
  case CellType::Sub:
  case CellType::Mul:
  case CellType::Lt:
  case CellType::Le:
  case CellType::Eq:
  case CellType::Ne:
  case CellType::Ge:
  case CellType::Gt:
  case CellType::LogicAnd:
  case CellType::LogicOr:
    return true;
  default:
    return false;
  }
}

bool cell_is_compare(CellType t) noexcept {
  switch (t) {
  case CellType::Lt:
  case CellType::Le:
  case CellType::Eq:
  case CellType::Ne:
  case CellType::Ge:
  case CellType::Gt:
    return true;
  default:
    return false;
  }
}

const char* port_name(Port p) noexcept {
  switch (p) {
  case Port::A: return "A";
  case Port::B: return "B";
  case Port::S: return "S";
  case Port::Y: return "Y";
  case Port::D: return "D";
  case Port::Q: return "Q";
  case Port::Clk: return "CLK";
  case Port::Count_: break;
  }
  return "?";
}

const SigSpec& Cell::port(Port p) const {
  if (!connected_[static_cast<size_t>(p)])
    throw std::logic_error(str_format("cell %s (%s): port %s not connected", name_.c_str(),
                                      cell_type_name(type_), port_name(p)));
  return ports_[static_cast<size_t>(p)];
}

void Cell::set_port(Port p, const SigSpec& sig) {
  ports_[static_cast<size_t>(p)] = sig;
  connected_[static_cast<size_t>(p)] = true;
  ++port_version_;
}

void Cell::set_port(Port p, SigSpec&& sig) {
  ports_[static_cast<size_t>(p)] = std::move(sig);
  connected_[static_cast<size_t>(p)] = true;
  ++port_version_;
}

void Cell::infer_widths() {
  if (cell_is_unary(type_)) {
    params_.a_width = port(Port::A).size();
    params_.y_width = port(Port::Y).size();
  } else if (cell_is_binary(type_)) {
    params_.a_width = port(Port::A).size();
    params_.b_width = port(Port::B).size();
    params_.y_width = port(Port::Y).size();
  } else if (type_ == CellType::Mux) {
    params_.width = port(Port::Y).size();
  } else if (type_ == CellType::Pmux) {
    params_.width = port(Port::Y).size();
    params_.s_width = port(Port::S).size();
  } else if (type_ == CellType::Dff) {
    params_.width = port(Port::Q).size();
  }
}

void Cell::check() const {
  auto require = [&](bool ok, const char* what) {
    if (!ok)
      throw std::logic_error(str_format("cell %s (%s): %s", name_.c_str(),
                                        cell_type_name(type_), what));
  };
  if (cell_is_unary(type_)) {
    require(has_port(Port::A) && has_port(Port::Y), "needs A and Y");
    require(port(Port::A).size() == params_.a_width, "A width mismatch");
    require(port(Port::Y).size() == params_.y_width, "Y width mismatch");
  } else if (cell_is_binary(type_)) {
    require(has_port(Port::A) && has_port(Port::B) && has_port(Port::Y), "needs A, B, Y");
    require(port(Port::A).size() == params_.a_width, "A width mismatch");
    require(port(Port::B).size() == params_.b_width, "B width mismatch");
    require(port(Port::Y).size() == params_.y_width, "Y width mismatch");
    if (cell_is_compare(type_) || type_ == CellType::LogicAnd || type_ == CellType::LogicOr)
      require(params_.y_width >= 1, "compare Y must be >= 1 bit");
  } else if (type_ == CellType::Mux) {
    require(has_port(Port::A) && has_port(Port::B) && has_port(Port::S) && has_port(Port::Y),
            "needs A, B, S, Y");
    require(port(Port::A).size() == params_.width, "A width mismatch");
    require(port(Port::B).size() == params_.width, "B width mismatch");
    require(port(Port::S).size() == 1, "S must be 1 bit");
    require(port(Port::Y).size() == params_.width, "Y width mismatch");
  } else if (type_ == CellType::Pmux) {
    require(has_port(Port::A) && has_port(Port::B) && has_port(Port::S) && has_port(Port::Y),
            "needs A, B, S, Y");
    require(port(Port::A).size() == params_.width, "A width mismatch");
    require(port(Port::B).size() == params_.width * params_.s_width, "B width mismatch");
    require(port(Port::S).size() == params_.s_width, "S width mismatch");
    require(port(Port::Y).size() == params_.width, "Y width mismatch");
  } else if (type_ == CellType::Dff) {
    require(has_port(Port::D) && has_port(Port::Q) && has_port(Port::Clk), "needs D, Q, CLK");
    require(port(Port::D).size() == params_.width, "D width mismatch");
    require(port(Port::Q).size() == params_.width, "Q width mismatch");
    require(port(Port::Clk).size() == 1, "CLK must be 1 bit");
  }
}

} // namespace smartly::rtlil
