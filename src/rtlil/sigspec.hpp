// SigBit / SigSpec — signal references, the glue of the netlist IR.
//
// A SigBit is either one bit of a Wire or a constant State. A SigSpec is an
// ordered vector of SigBits (LSB first) and is what cell ports connect to.
#pragma once

#include "rtlil/const.hpp"
#include "util/hashing.hpp"

#include <cstdint>
#include <functional>
#include <vector>

namespace smartly::rtlil {

class Wire;

/// One bit of a signal: either (wire, offset) or a constant State.
struct SigBit {
  Wire* wire = nullptr; ///< nullptr means this bit is the constant `data`.
  int offset = 0;       ///< bit index within `wire` (valid iff wire != nullptr)
  State data = State::Sx;

  SigBit() = default;
  SigBit(State s) : data(s) {} // NOLINT(google-explicit-constructor): constants convert freely
  SigBit(Wire* w, int off) : wire(w), offset(off) {}

  bool is_wire() const noexcept { return wire != nullptr; }
  bool is_const() const noexcept { return wire == nullptr; }

  bool operator==(const SigBit& o) const noexcept {
    if (wire != o.wire)
      return false;
    return wire ? offset == o.offset : data == o.data;
  }
  bool operator!=(const SigBit& o) const noexcept { return !(*this == o); }
  bool operator<(const SigBit& o) const noexcept {
    if (wire != o.wire)
      return wire < o.wire;
    return wire ? offset < o.offset : data < o.data;
  }

  uint64_t hash() const noexcept {
    return hash_combine(reinterpret_cast<uintptr_t>(wire),
                        wire ? static_cast<uint64_t>(offset)
                             : 0xabcd0000u + static_cast<uint64_t>(data));
  }
};

/// An ordered, possibly mixed (wire bits + constants) signal vector.
class SigSpec {
public:
  SigSpec() = default;
  SigSpec(SigBit bit) : bits_(1, bit) {}       // NOLINT(google-explicit-constructor)
  SigSpec(State s) : bits_(1, SigBit(s)) {}    // NOLINT(google-explicit-constructor)
  SigSpec(const Const& c);                     // NOLINT(google-explicit-constructor)
  SigSpec(Wire* wire);                         // NOLINT(google-explicit-constructor)
  SigSpec(Wire* wire, int offset, int width);
  explicit SigSpec(std::vector<SigBit> bits) : bits_(std::move(bits)) {}

  int size() const noexcept { return static_cast<int>(bits_.size()); }
  bool empty() const noexcept { return bits_.empty(); }

  SigBit operator[](int i) const { return bits_.at(static_cast<size_t>(i)); }
  SigBit& operator[](int i) { return bits_.at(static_cast<size_t>(i)); }

  const std::vector<SigBit>& bits() const noexcept { return bits_; }

  void append(const SigSpec& other);
  void append(SigBit bit) { bits_.push_back(bit); }
  /// Drop every bit, keeping the storage for the next appends.
  void clear() noexcept { bits_.clear(); }

  SigSpec extract(int offset, int length) const;

  /// Replace every occurrence of `pattern[i]` with `with[i]` (same sizes).
  void replace_bit(const SigBit& pattern, const SigBit& with);

  bool is_fully_const() const noexcept;
  bool is_fully_def() const noexcept;
  /// True iff all bits are from a single wire, in order, spanning it entirely.
  bool is_wire() const noexcept;

  /// Requires is_fully_const().
  Const as_const() const;
  SigBit as_bit() const { return bits_.at(0); }

  /// Zero/sign-extend (or truncate) to `width` bits.
  SigSpec extended(int width, bool is_signed) const;

  bool operator==(const SigSpec& o) const noexcept { return bits_ == o.bits_; }
  bool operator!=(const SigSpec& o) const noexcept { return bits_ != o.bits_; }

  uint64_t hash() const noexcept {
    uint64_t h = 0x5137;
    for (const SigBit& b : bits_)
      h = hash_combine(h, b.hash());
    return h;
  }

  auto begin() const noexcept { return bits_.begin(); }
  auto end() const noexcept { return bits_.end(); }

private:
  std::vector<SigBit> bits_;
};

/// Repeat a single bit `n` times (helper for building fill vectors).
SigSpec sig_repeat(SigBit bit, int n);

} // namespace smartly::rtlil

namespace std {
template <> struct hash<smartly::rtlil::SigBit> {
  size_t operator()(const smartly::rtlil::SigBit& b) const noexcept { return b.hash(); }
};
template <> struct hash<smartly::rtlil::SigSpec> {
  size_t operator()(const smartly::rtlil::SigSpec& s) const noexcept { return s.hash(); }
};
} // namespace std
