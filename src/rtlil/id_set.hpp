// IdSet / IdMap — a set of dense module ids (Cell::id(), rtlil::bit_id),
// and a map from them to 32-bit values, for per-query scratch.
//
// Open addressing with linear probing over a power-of-two table kept at most
// half full. Memory follows the contents, not the module, and clear() costs
// O(capacity), so scratch that lives per region and is reused
// across queries stays O(largest query) rather than O(module) — unlike a
// table indexed by id — and never hashes pointers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace smartly::rtlil {

class IdSet {
public:
  /// Insert `id` (any value but UINT32_MAX); true when it was not present.
  bool insert(uint32_t id) {
    if ((size_ + 1) * 2 > slots_.size())
      grow();
    for (size_t i = home(id);; i = (i + 1) & mask()) {
      if (slots_[i] == id)
        return false;
      if (slots_[i] == kEmpty) {
        slots_[i] = id;
        ++size_;
        return true;
      }
    }
  }

  bool contains(uint32_t id) const {
    if (size_ == 0)
      return false;
    for (size_t i = home(id);; i = (i + 1) & mask()) {
      if (slots_[i] == id)
        return true;
      if (slots_[i] == kEmpty)
        return false;
    }
  }

  size_t size() const noexcept { return size_; }

  void clear() {
    if (size_ != 0)
      std::fill(slots_.begin(), slots_.end(), kEmpty);
    size_ = 0;
  }

private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  size_t mask() const noexcept { return slots_.size() - 1; }
  /// Fibonacci hashing: dense ids spread over the table's high-bit range.
  size_t home(uint32_t id) const noexcept {
    return static_cast<size_t>((id * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void grow() {
    std::vector<uint32_t> old(slots_.size() < 16 ? 16 : slots_.size() * 2, kEmpty);
    old.swap(slots_);
    shift_ = 64;
    for (size_t n = slots_.size(); n > 1; n >>= 1)
      --shift_;
    size_ = 0;
    for (uint32_t id : old)
      if (id != kEmpty)
        insert(id);
  }

  std::vector<uint32_t> slots_;
  size_t size_ = 0;
  unsigned shift_ = 64;
};

class IdMap {
public:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  /// The value stored for `id`, or kAbsent.
  uint32_t find(uint32_t id) const {
    if (size_ == 0)
      return kAbsent;
    for (size_t i = home(id);; i = (i + 1) & mask()) {
      if (slots_[i].id == id)
        return slots_[i].value;
      if (slots_[i].id == kEmpty)
        return kAbsent;
    }
  }

  /// Map `id` (any value but UINT32_MAX) to `value`, replacing an old value.
  void set(uint32_t id, uint32_t value) {
    if ((size_ + 1) * 2 > slots_.size())
      grow();
    for (size_t i = home(id);; i = (i + 1) & mask()) {
      if (slots_[i].id == kEmpty) {
        slots_[i] = {id, value};
        ++size_;
        return;
      }
      if (slots_[i].id == id) {
        slots_[i].value = value;
        return;
      }
    }
  }

private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  struct Slot {
    uint32_t id = kEmpty;
    uint32_t value = 0;
  };

  size_t mask() const noexcept { return slots_.size() - 1; }
  size_t home(uint32_t id) const noexcept {
    return static_cast<size_t>((id * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void grow() {
    std::vector<Slot> old(slots_.size() < 16 ? 16 : slots_.size() * 2);
    old.swap(slots_);
    shift_ = 64;
    for (size_t n = slots_.size(); n > 1; n >>= 1)
      --shift_;
    size_ = 0;
    for (const Slot& s : old)
      if (s.id != kEmpty)
        set(s.id, s.value);
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  unsigned shift_ = 64;
};

} // namespace smartly::rtlil
