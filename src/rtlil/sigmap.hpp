// SigMap — canonicalization of alias connections (Yosys's SigMap).
//
// Module-level `connect(lhs, rhs)` entries make several SigBits name the same
// net. Passes must compare signals modulo these aliases; SigMap is a
// union-find over SigBits that returns a canonical representative
// (constants win over wires so `sigmap(x)` of a tied-off bit is the constant).
//
// Each module owns one map (Module::sigmap()), kept equal to a rebuild from
// its connections by Module::connect; passes and indexes read that one.
// `SigMap(module)` is a private copy of it.
//
// Layout: parents live in a flat table indexed by the module's dense bit ids
// (rtlil::bit_id), grown only up to the largest id add() has linked, plus
// one slot per constant State. A bit with no slot — never aliased, created
// after the last add(), or a bit of another module — is its own
// representative. A default-constructed map adopts the module of the first
// wire bit add() sees.
//
// Lookups: find() is const but compresses every chain it walks in place, so a
// map is read from one thread at a time (module.hpp). Compression never
// changes which bit represents a class.
#pragma once

#include "rtlil/module.hpp"

#include <array>
#include <cstdint>
#include <stdexcept>

namespace smartly::rtlil {

class SigMap {
public:
  SigMap() = default;
  /// A copy of the module's own map.
  explicit SigMap(const Module& module) : SigMap(module.sigmap()) {}

  /// Merge the two signals bit-by-bit (lhs aliases rhs). Each class union
  /// is appended to `merges` when given.
  void add(const SigSpec& lhs, const SigSpec& rhs, std::vector<AliasMerge>* merges = nullptr) {
    const int n = std::min(lhs.size(), rhs.size());
    for (int i = 0; i < n; ++i)
      add(lhs.bits()[static_cast<size_t>(i)], rhs.bits()[static_cast<size_t>(i)], merges);
  }

  void add(SigBit a, SigBit b, std::vector<AliasMerge>* merges = nullptr) {
    adopt(a);
    adopt(b);
    a = find(a);
    b = find(b);
    if (a == b)
      return;
    // Prefer a constant representative; otherwise keep `b` (the rhs/driver
    // side) canonical so chains collapse toward drivers.
    if (a.is_const())
      std::swap(a, b);
    const SigBit rep = link(a, b);
    if (merges != nullptr)
      merges->push_back({a, rep});
  }

  SigBit operator()(SigBit bit) const { return find(bit); }

  SigSpec operator()(const SigSpec& sig) const {
    SigSpec out;
    for (const SigBit& b : sig)
      out.append(find(b));
    return out;
  }

  /// find() by bit id (rtlil::bit_id) for a bit of this map's module: the
  /// representative's id, or kConstant when the class is a constant.
  static constexpr size_t kConstant = SIZE_MAX;
  size_t find_id(size_t id) const {
    if (id >= parent_.size() || !linked(parent_[id]))
      return id;
    const SigBit root = find(parent_[id]);
    return root.is_wire() ? bit_id(root) : kConstant;
  }

private:
  /// Stored parents are never the "unlinked" marker: constants are stored
  /// with offset 0, so a constant with offset -1 cannot occur.
  static SigBit unlinked() {
    SigBit b;
    b.offset = -1;
    return b;
  }
  static bool linked(const SigBit& par) { return par.wire != nullptr || par.offset >= 0; }

  /// The bit's stored parent, or nullptr when it is its own representative.
  SigBit* parent_slot(const SigBit& bit) const {
    SigBit* par;
    if (bit.is_const()) {
      par = &const_parent_[static_cast<size_t>(bit.data)];
    } else {
      if (bit.wire->module() != module_)
        return nullptr;
      const size_t id = bit_id(bit);
      if (id >= parent_.size())
        return nullptr;
      par = &parent_[id];
    }
    return linked(*par) ? par : nullptr;
  }

  void adopt(const SigBit& bit) {
    if (!bit.is_wire())
      return;
    if (module_ == nullptr)
      module_ = bit.wire->module();
    else if (bit.wire->module() != module_)
      throw std::invalid_argument("SigMap::add: bit of another module");
  }

  /// Point `child` at `parent`; returns the parent as stored.
  SigBit link(const SigBit& child, const SigBit& parent) {
    const SigBit par = parent.is_const() ? SigBit(parent.data) : parent;
    if (child.is_const()) {
      const_parent_[static_cast<size_t>(child.data)] = par;
      return par;
    }
    const size_t id = bit_id(child);
    if (id >= parent_.size())
      parent_.resize(id + 1, unlinked());
    parent_[id] = par;
    return par;
  }

  SigBit find(SigBit bit) const {
    const SigBit* par = parent_slot(bit);
    if (par == nullptr)
      return bit;
    SigBit root = *par;
    const SigBit* next = parent_slot(root);
    if (next == nullptr)
      return root; // one hop: no write
    do {
      root = *next;
      next = parent_slot(root);
    } while (next != nullptr);
    // Compress the chain, so the next find() from here is one hop.
    SigBit cur = bit;
    while (true) {
      SigBit* slot = parent_slot(cur);
      if (*slot == root)
        break;
      cur = *slot;
      *slot = root;
    }
    return root;
  }

  const Module* module_ = nullptr;
  mutable std::vector<SigBit> parent_; ///< by bit id; unlinked() = representative
  mutable std::array<SigBit, 4> const_parent_{unlinked(), unlinked(), unlinked(), unlinked()};
};

} // namespace smartly::rtlil
