// Cell — one word-level netlist operation (Yosys $-cell subset).
#pragma once

#include "rtlil/sigspec.hpp"

#include <array>
#include <string>
#include <utility>
#include <vector>

namespace smartly::rtlil {

class Module;

/// Word-level cell types. Semantics follow Yosys's internal cell library:
/// inputs are extended to max(A_WIDTH,B_WIDTH) (sign per *_SIGNED), the
/// operation is computed, and the result is extended/truncated to Y_WIDTH.
enum class CellType : uint8_t {
  // Unary: A -> Y
  Not,        ///< Y = ~A
  Pos,        ///< Y = +A  (width cast)
  Neg,        ///< Y = -A
  ReduceAnd,  ///< Y = &A   (1 bit)
  ReduceOr,   ///< Y = |A   (1 bit)
  ReduceXor,  ///< Y = ^A   (1 bit)
  ReduceXnor, ///< Y = ~^A  (1 bit)
  ReduceBool, ///< Y = |A   (1 bit; logic cast)
  LogicNot,   ///< Y = !A   (1 bit)
  // Binary bitwise / arithmetic: A, B -> Y
  And, Or, Xor, Xnor,
  Shl,  ///< Y = A << B   (B unsigned)
  Shr,  ///< Y = A >> B   (logical)
  Sshr, ///< Y = A >>> B  (arithmetic if A_SIGNED)
  Add, Sub, Mul,
  // Comparisons (1-bit Y)
  Lt, Le, Eq, Ne, Ge, Gt,
  // Logic (1-bit Y)
  LogicAnd, LogicOr,
  // Multiplexers
  Mux,  ///< Y = S ? B : A        (WIDTH-bit A/B/Y, 1-bit S)
  Pmux, ///< Y = S[i] ? B[i*W +: W] : A ; lowest set S bit wins; A if none
  // Sequential
  Dff,  ///< Q <= D @ posedge CLK (WIDTH-bit)
};

const char* cell_type_name(CellType t) noexcept;

bool cell_is_unary(CellType t) noexcept;
bool cell_is_binary(CellType t) noexcept;
bool cell_is_compare(CellType t) noexcept;

/// Port identifiers (fixed vocabulary — cheaper than string keys).
enum class Port : uint8_t { A = 0, B, S, Y, D, Q, Clk, Count_ };
constexpr int kPortCount = static_cast<int>(Port::Count_);

const char* port_name(Port p) noexcept;

/// A short list of ports in Port order, held in place (no allocation).
class PortList {
public:
  void push_back(Port p) noexcept { ports_[size_++] = p; }
  const Port* begin() const noexcept { return ports_.data(); }
  const Port* end() const noexcept { return ports_.data() + size_; }
  size_t size() const noexcept { return size_; }
  Port operator[](size_t i) const noexcept { return ports_[i]; }

private:
  std::array<Port, kPortCount> ports_{};
  size_t size_ = 0;
};

/// Typed cell parameters (Yosys keeps these as a generic dict; the cell
/// library here is closed, so explicit fields are clearer and faster).
struct CellParams {
  int a_width = 0;
  int b_width = 0;
  int y_width = 0;
  int width = 0;   ///< Mux/Pmux/Dff data width
  int s_width = 0; ///< Pmux select width (number of cases)
  bool a_signed = false;
  bool b_signed = false;
};

class Cell {
public:
  /// Id of a cell built outside Module::add_cell (a detached probe): past
  /// every dense per-cell table, so index lookups treat it as unknown.
  static constexpr uint32_t kDetachedId = UINT32_MAX;

  Cell(Module* module, std::string name, CellType type, uint32_t id = kDetachedId)
      : module_(module), name_(std::move(name)), type_(type), id_(id) {}

  Module* module() const noexcept { return module_; }
  const std::string& name() const noexcept { return name_; }
  /// Dense module-wide id, assigned by Module::add_cell and never reused
  /// within the module: the index of the cell's slot in per-cell tables.
  uint32_t id() const noexcept { return id_; }
  CellType type() const noexcept { return type_; }

  CellParams& params() noexcept { return params_; }
  const CellParams& params() const noexcept { return params_; }

  bool has_port(Port p) const noexcept { return connected_[static_cast<size_t>(p)]; }
  const SigSpec& port(Port p) const;
  /// Connect port `p`. An lvalue is copied into the port's storage, which
  /// keeps its capacity, so a cell whose ports are reset over and over (a
  /// probe) stops allocating once its ports are wide enough.
  void set_port(Port p, const SigSpec& sig);
  void set_port(Port p, SigSpec&& sig);
  /// Bumped by every set_port, so a cache keyed on the cell's connections
  /// (NetlistIndex's neighbour lists) notices in-place port edits.
  uint32_t port_version() const noexcept { return port_version_; }

  /// Ports that the cell reads (everything except Y/Q), in Port order.
  PortList input_ports() const noexcept {
    PortList out;
    for (int i = 0; i < kPortCount; ++i)
      if (connected_[static_cast<size_t>(i)] && i != static_cast<int>(Port::Y) &&
          i != static_cast<int>(Port::Q))
        out.push_back(static_cast<Port>(i));
    return out;
  }
  /// Ports the cell drives (Y, or Q for Dff).
  Port output_port() const noexcept { return type_ == CellType::Dff ? Port::Q : Port::Y; }

  const SigSpec& output() const { return port(output_port()); }

  /// Fill in params_ widths from the current port connections.
  void infer_widths();

  /// Basic structural sanity (port widths consistent with params). Throws on
  /// violation; used by tests and after pass mutations.
  void check() const;

private:
  Module* module_;
  std::string name_;
  CellType type_;
  uint32_t id_;
  uint32_t port_version_ = 0;
  CellParams params_;
  std::array<SigSpec, kPortCount> ports_;
  std::array<bool, kPortCount> connected_{};
};

} // namespace smartly::rtlil
