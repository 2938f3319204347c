#include "rewrite/npn.hpp"

#include <algorithm>

namespace smartly::rewrite {

const std::array<std::array<uint8_t, 4>, 24>& NpnTable::perms() {
  static const std::array<std::array<uint8_t, 4>, 24> table = [] {
    std::array<std::array<uint8_t, 4>, 24> out{};
    std::array<uint8_t, 4> p{0, 1, 2, 3};
    size_t i = 0;
    do {
      out[i++] = p;
    } while (std::next_permutation(p.begin(), p.end()));
    return out;
  }();
  return table;
}

namespace {

/// The minterm of `f` that minterm m of apply(f, t) reads, for every m
/// (the output complement aside).
std::array<uint8_t, 16> minterm_sources(uint16_t t) {
  const std::array<uint8_t, 4>& perm = NpnTable::perms()[t / 32];
  const uint16_t neg = (t / 2) & 15;
  std::array<uint8_t, 16> src{};
  for (uint16_t m = 0; m < 16; ++m)
    for (int i = 0; i < 4; ++i)
      src[m] |= static_cast<uint8_t>((((m >> perm[i]) & 1) ^ ((neg >> i) & 1)) << i);
  return src;
}

TruthTable apply_sources(TruthTable tt, const std::array<uint8_t, 16>& src, bool complement) {
  uint16_t out = 0;
  for (uint16_t m = 0; m < 16; ++m)
    out |= static_cast<uint16_t>(((tt >> src[m]) & 1) << m);
  return complement ? static_cast<TruthTable>(~out) : out;
}

} // namespace

TruthTable NpnTable::apply(TruthTable tt, uint16_t t) {
  return apply_sources(tt, minterm_sources(t), t & 1);
}

NpnTable::NpnTable() : canon_(65536), class_id_(65536), from_canon_(65536) {
  std::vector<std::array<uint8_t, 16>> sources(kNumTransforms);
  for (uint16_t t = 0; t < kNumTransforms; ++t)
    sources[t] = minterm_sources(t);
  // Ascending scan: an unassigned table is the smallest member of its orbit
  // (any smaller member would already have assigned the whole orbit), so it
  // is the class representative; expanding its orbit assigns every member.
  std::vector<uint8_t> assigned(65536, 0);
  for (uint32_t tt = 0; tt < 65536; ++tt) {
    if (assigned[tt])
      continue;
    const uint16_t id = static_cast<uint16_t>(representatives_.size());
    representatives_.push_back(static_cast<TruthTable>(tt));
    for (uint16_t t = 0; t < kNumTransforms; ++t) {
      const TruthTable v = apply_sources(static_cast<TruthTable>(tt), sources[t], t & 1);
      if (assigned[v])
        continue;
      assigned[v] = 1;
      canon_[v] = static_cast<TruthTable>(tt);
      class_id_[v] = id;
      from_canon_[v] = t;
    }
  }
}

const NpnTable& NpnTable::instance() {
  static const NpnTable table;
  return table;
}

} // namespace smartly::rewrite
