// Wire / Module / Design — netlist containers.
#pragma once

#include "rtlil/cell.hpp"
#include "rtlil/sigspec.hpp"

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace smartly::rtlil {

class Module;
class Design;
class SigMap;

/// One union of two alias classes made by SigMap::add: the class whose
/// representative was `from` joined the class of `to`, its representative.
struct AliasMerge {
  SigBit from;
  SigBit to;
};

/// A named bundle of bits. Ports are wires flagged input/output.
class Wire {
public:
  Wire(Module* module, std::string name, int width, uint32_t bit_base)
      : module_(module), name_(std::move(name)), width_(width), bit_base_(bit_base) {}

  Module* module() const noexcept { return module_; }
  const std::string& name() const noexcept { return name_; }
  int width() const noexcept { return width_; }
  /// Module-wide id of bit 0; bit i has id bit_base() + i (see bit_id).
  /// Assigned by Module::add_wire and never reused within the module.
  uint32_t bit_base() const noexcept { return bit_base_; }

  bool port_input = false;
  bool port_output = false;
  /// 1-based creation order among ports; 0 for non-ports.
  int port_id = 0;

private:
  Module* module_;
  std::string name_;
  int width_;
  uint32_t bit_base_;
};

/// Dense module-wide id of a wire bit: the index of its slot in per-bit
/// tables (SigMap, NetlistIndex). Unique within the bit's module only.
inline size_t bit_id(const SigBit& bit) {
  return static_cast<size_t>(bit.wire->bit_base()) + static_cast<size_t>(bit.offset);
}

/// One hardware module: wires + cells + alias connections.
class Module {
public:
  explicit Module(Design* design, std::string name);
  ~Module();
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  Design* design() const noexcept { return design_; }
  const std::string& name() const noexcept { return name_; }

  // --- wires -------------------------------------------------------------
  Wire* add_wire(std::string_view name, int width = 1);
  /// Fresh wire with a unique generated name based on `prefix`.
  Wire* new_wire(int width, std::string_view prefix = "$sig");
  Wire* wire(std::string_view name) const;
  bool has_wire(std::string_view name) const;
  const std::vector<std::unique_ptr<Wire>>& wires() const noexcept { return wires_; }
  /// Remove a wire nothing references anymore (caller's responsibility —
  /// SigBits holding the pointer would dangle). Used by the elaborator to
  /// retire $sig temporaries it retargeted onto assignment lvalues. Drops
  /// the alias map, which the next sigmap() rebuilds.
  void remove_wire(Wire* w);

  void set_port_input(Wire* w);
  void set_port_output(Wire* w);
  const std::vector<Wire*>& ports() const noexcept { return ports_; }

  // --- cells -------------------------------------------------------------
  Cell* add_cell(CellType type, std::string_view name = {});
  Cell* cell(std::string_view name) const;
  const std::vector<std::unique_ptr<Cell>>& cells() const noexcept { return cells_; }
  size_t cell_count() const noexcept { return cells_.size(); }

  /// One past the largest bit id / Cell::id() handed out so far, removed
  /// wires and cells included: the size of a dense table that covers every
  /// current wire bit / cell.
  size_t bit_id_bound() const noexcept { return next_bit_id_; }
  size_t cell_id_bound() const noexcept { return next_cell_id_; }

  void remove_cell(Cell* cell);
  void remove_cells(const std::vector<Cell*>& dead);

  // --- alias connections (lhs is driven by rhs) --------------------------
  /// Append lhs = rhs to connections() and extend the alias map in place
  /// when it is built. With `merges`, the map is built first and every class
  /// union the connect makes is appended to `merges` in bit order (the
  /// NetlistIndex moves its per-net entries along them).
  void connect(const SigSpec& lhs, const SigSpec& rhs,
               std::vector<AliasMerge>* merges = nullptr);
  const std::vector<std::pair<SigSpec, SigSpec>>& connections() const noexcept {
    return connections_;
  }
  /// The module's alias map (rtlil::SigMap), the one every pass and index
  /// reads. Built from connections() on first use, under an `rtlil.sigmap`
  /// span; every connect() then extends it with the same add() sequence a
  /// rebuild would replay, so it always equals one. remove_wire,
  /// copy_module_into and restore_module drop its contents, and the next
  /// call rebuilds it in place: the returned object lives as long as the
  /// module. A read may build the map or compress its chains, so one
  /// module is never read from two threads at once.
  const SigMap& sigmap() const;

  // --- value-style builders (create cell + result wire) ------------------
  SigSpec add_unary(CellType type, const SigSpec& a, int y_width, bool a_signed = false);
  SigSpec add_binary(CellType type, const SigSpec& a, const SigSpec& b, int y_width,
                     bool a_signed = false, bool b_signed = false);
  SigSpec Not(const SigSpec& a) { return add_unary(CellType::Not, a, a.size()); }
  SigSpec Neg(const SigSpec& a, int w) { return add_unary(CellType::Neg, a, w); }
  SigSpec ReduceAnd(const SigSpec& a) { return add_unary(CellType::ReduceAnd, a, 1); }
  SigSpec ReduceOr(const SigSpec& a) { return add_unary(CellType::ReduceOr, a, 1); }
  SigSpec ReduceXor(const SigSpec& a) { return add_unary(CellType::ReduceXor, a, 1); }
  SigSpec LogicNot(const SigSpec& a) { return add_unary(CellType::LogicNot, a, 1); }
  SigSpec And(const SigSpec& a, const SigSpec& b) {
    return add_binary(CellType::And, a, b, std::max(a.size(), b.size()));
  }
  SigSpec Or(const SigSpec& a, const SigSpec& b) {
    return add_binary(CellType::Or, a, b, std::max(a.size(), b.size()));
  }
  SigSpec Xor(const SigSpec& a, const SigSpec& b) {
    return add_binary(CellType::Xor, a, b, std::max(a.size(), b.size()));
  }
  SigSpec Add(const SigSpec& a, const SigSpec& b, int w) {
    return add_binary(CellType::Add, a, b, w);
  }
  SigSpec Sub(const SigSpec& a, const SigSpec& b, int w) {
    return add_binary(CellType::Sub, a, b, w);
  }
  SigSpec Eq(const SigSpec& a, const SigSpec& b) { return add_binary(CellType::Eq, a, b, 1); }
  SigSpec Ne(const SigSpec& a, const SigSpec& b) { return add_binary(CellType::Ne, a, b, 1); }
  SigSpec Lt(const SigSpec& a, const SigSpec& b) { return add_binary(CellType::Lt, a, b, 1); }
  SigSpec LogicAnd(const SigSpec& a, const SigSpec& b) {
    return add_binary(CellType::LogicAnd, a, b, 1);
  }
  SigSpec LogicOr(const SigSpec& a, const SigSpec& b) {
    return add_binary(CellType::LogicOr, a, b, 1);
  }
  /// Y = S ? B : A (Yosys convention).
  SigSpec Mux(const SigSpec& a, const SigSpec& b, const SigSpec& s);
  /// Parallel mux: Y = B[i] where S[i] is the lowest set bit, else A.
  SigSpec Pmux(const SigSpec& a, const SigSpec& b, const SigSpec& s);
  SigSpec Dff(const SigSpec& d, const SigSpec& clk);

  /// Create Mux/Pmux/Dff driving an existing output signal.
  Cell* add_mux(const SigSpec& a, const SigSpec& b, const SigSpec& s, const SigSpec& y);
  Cell* add_pmux(const SigSpec& a, const SigSpec& b, const SigSpec& s, const SigSpec& y);
  Cell* add_dff(const SigSpec& d, const SigSpec& q, const SigSpec& clk);

  /// Run Cell::check on every cell and validate wire references.
  void check() const;

  /// Count cells of a given type.
  size_t count_cells(CellType t) const noexcept;

private:
  /// Key of the name tables: a view of the owning wire's or cell's own name
  /// (stable: both live on the heap and are never renamed) with its hash,
  /// computed once per name and carried from probe to insert.
  struct NameKey {
    std::string_view text;
    size_t hash;
    explicit NameKey(std::string_view t) : text(t), hash(std::hash<std::string_view>{}(t)) {}
    NameKey(std::string_view t, size_t h) : text(t), hash(h) {}
    bool operator==(const NameKey& o) const noexcept { return hash == o.hash && text == o.text; }
  };
  struct NameKeyHash {
    size_t operator()(const NameKey& k) const noexcept { return k.hash; }
  };
  template <typename T> using NameTable = std::unordered_map<NameKey, T*, NameKeyHash>;

  /// The next generated name "<prefix>$<counter>" free in both tables, built
  /// in name_buf_ (the returned key views it). Each candidate bumps the
  /// counter, so names skip over ones the netlist already holds.
  NameKey unique_name(std::string_view prefix);
  Wire* add_wire(const NameKey& key, int width);
  Cell* add_cell(CellType type, const NameKey& key);
  /// Empty the alias map; the next sigmap() rebuilds it.
  void drop_sigmap();

  friend void copy_module_into(Module& dst, const Module& src);
  friend void restore_module(Module& dst, const Module& src);

  Design* design_;
  std::string name_;
  std::vector<std::unique_ptr<Wire>> wires_;
  NameTable<Wire> wire_by_name_;
  std::vector<std::unique_ptr<Cell>> cells_;
  NameTable<Cell> cell_by_name_;
  std::vector<std::pair<SigSpec, SigSpec>> connections_;
  std::unique_ptr<SigMap> sigmap_; ///< see sigmap(); current while sigmap_built_
  mutable bool sigmap_built_ = false;
  std::vector<Wire*> ports_;
  uint64_t name_counter_ = 0;
  std::string name_buf_; ///< unique_name's candidate, reused
  uint32_t next_bit_id_ = 0;
  uint32_t next_cell_id_ = 0;
};

/// A set of modules (we only ever optimize one at a time, but the container
/// mirrors Yosys so frontends can emit hierarchies).
class Design {
public:
  Design() = default;
  Design(const Design&) = delete;
  Design& operator=(const Design&) = delete;

  Module* add_module(const std::string& name);
  Module* module(const std::string& name) const;
  const std::vector<std::unique_ptr<Module>>& modules() const noexcept { return modules_; }
  Module* top() const;

private:
  std::vector<std::unique_ptr<Module>> modules_;
  std::unordered_map<std::string, Module*> module_by_name_;
};

/// Deep-copy a module into a new Design (used to snapshot a design before
/// optimization for equivalence checking / ablation runs).
std::unique_ptr<Design> clone_design(const Design& src);

/// Deep-copy `src`'s contents into the *empty* module `dst`, including the
/// generated-name counter. Building block of clone_design/restore_module;
/// also used to snapshot a single module without cloning its whole Design.
void copy_module_into(Module& dst, const Module& src);

/// Replace `dst`'s entire contents (wires, cells, connections, ports, name
/// counter) with a deep copy of `src`. `dst` keeps its identity (Design
/// owner, name) but becomes byte-identical to `src` — including the
/// generated-name counter, so a retried stage regenerates the same names a
/// fresh run would. This is the rollback primitive of StageTransaction.
void restore_module(Module& dst, const Module& src);

} // namespace smartly::rtlil
