#include "rtlil/sigspec.hpp"

#include "rtlil/module.hpp"

#include <algorithm>
#include <stdexcept>

namespace smartly::rtlil {

SigSpec::SigSpec(const Const& c) {
  bits_.reserve(static_cast<size_t>(c.size()));
  for (int i = 0; i < c.size(); ++i)
    bits_.emplace_back(c[i]);
}

SigSpec::SigSpec(Wire* wire) {
  if (!wire)
    return;
  bits_.reserve(static_cast<size_t>(wire->width()));
  for (int i = 0; i < wire->width(); ++i)
    bits_.emplace_back(wire, i);
}

SigSpec::SigSpec(Wire* wire, int offset, int width) {
  if (!wire)
    throw std::invalid_argument("SigSpec: null wire");
  if (offset < 0 || width < 0 || offset + width > wire->width())
    throw std::out_of_range("SigSpec: slice out of wire bounds");
  bits_.reserve(static_cast<size_t>(width));
  for (int i = 0; i < width; ++i)
    bits_.emplace_back(wire, offset + i);
}

void SigSpec::append(const SigSpec& other) {
  bits_.insert(bits_.end(), other.bits_.begin(), other.bits_.end());
}

SigSpec SigSpec::extract(int offset, int length) const {
  if (offset < 0 || length < 0 || offset + length > size())
    throw std::out_of_range("SigSpec::extract out of bounds");
  return SigSpec(std::vector<SigBit>(bits_.begin() + offset, bits_.begin() + offset + length));
}

void SigSpec::replace_bit(const SigBit& pattern, const SigBit& with) {
  for (SigBit& b : bits_)
    if (b == pattern)
      b = with;
}

bool SigSpec::is_fully_const() const noexcept {
  for (const SigBit& b : bits_)
    if (b.is_wire())
      return false;
  return true;
}

bool SigSpec::is_fully_def() const noexcept {
  for (const SigBit& b : bits_)
    if (b.is_wire() || !state_is_def(b.data))
      return false;
  return true;
}

bool SigSpec::is_wire() const noexcept {
  if (bits_.empty() || !bits_[0].is_wire() || bits_[0].offset != 0)
    return false;
  Wire* w = bits_[0].wire;
  if (w->width() != size())
    return false;
  for (int i = 0; i < size(); ++i)
    if (bits_[static_cast<size_t>(i)].wire != w || bits_[static_cast<size_t>(i)].offset != i)
      return false;
  return true;
}

Const SigSpec::as_const() const {
  std::vector<State> out;
  out.reserve(bits_.size());
  for (const SigBit& b : bits_) {
    if (b.is_wire())
      throw std::logic_error("SigSpec::as_const on non-constant signal");
    out.push_back(b.data);
  }
  return Const(std::move(out));
}

SigSpec SigSpec::extended(int width, bool is_signed) const {
  const SigBit fill = (is_signed && !bits_.empty()) ? bits_.back() : SigBit(State::S0);
  const size_t n = width > 0 ? static_cast<size_t>(width) : 0;
  const size_t kept = std::min(n, bits_.size());
  std::vector<SigBit> out;
  out.reserve(n);
  out.insert(out.end(), bits_.begin(), bits_.begin() + static_cast<std::ptrdiff_t>(kept));
  out.resize(n, fill);
  return SigSpec(std::move(out));
}

SigSpec sig_repeat(SigBit bit, int n) {
  return SigSpec(std::vector<SigBit>(n > 0 ? static_cast<size_t>(n) : 0, bit));
}

} // namespace smartly::rtlil
