// Hash combinators shared across the library (strash tables, ADD memo, ...).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace smartly {

/// 64-bit mix (splitmix64 finalizer) — cheap avalanche for integer keys.
inline uint64_t hash_mix(uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline uint64_t hash_combine(uint64_t seed, uint64_t v) noexcept {
  return hash_mix(seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2)));
}

/// 128-bit fingerprint for content-addressed caches (the §II decision memo,
/// fraig's structural keys, the service result cache). Two
/// independently-seeded 64-bit streams: the caches treat fingerprint
/// equality as identity (no stored key to compare against), so collision
/// probability must be negligible.
struct Hash128 {
  uint64_t lo = 0;
  uint64_t hi = 0;

  bool operator==(const Hash128& o) const noexcept { return lo == o.lo && hi == o.hi; }
  bool operator!=(const Hash128& o) const noexcept { return !(*this == o); }
};

/// Order-sensitive accumulation (sequence hashing).
inline Hash128 hash128_combine(Hash128 seed, uint64_t v) noexcept {
  return {hash_combine(seed.lo, v), hash_combine(seed.hi, hash_mix(v ^ 0x6a09e667f3bcc909ULL))};
}

/// Order-insensitive accumulation (set hashing): commutative and associative,
/// so two containers holding the same elements in any order hash equally.
inline void hash128_mix_unordered(Hash128& acc, uint64_t v) noexcept {
  acc.lo += hash_mix(v);
  acc.hi += hash_mix(v ^ 0xbb67ae8584caa73bULL);
}

struct Hash128Hasher {
  size_t operator()(const Hash128& h) const noexcept {
    return static_cast<size_t>(h.lo ^ (h.hi * 0x9e3779b97f4a7c15ULL));
  }
};

/// Deterministic xorshift RNG for generators & property tests
/// (std::mt19937 is avoided so streams are stable across platforms).
class Rng {
public:
  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL) noexcept : state_(seed ? seed : 1) {}

  uint64_t next() noexcept {
    uint64_t x = state_;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    state_ = x;
    return hash_mix(x);
  }

  /// Uniform integer in [0, n). n must be > 0.
  uint64_t below(uint64_t n) noexcept { return next() % n; }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t range(int64_t lo, int64_t hi) noexcept {
    return lo + static_cast<int64_t>(below(static_cast<uint64_t>(hi - lo + 1)));
  }

  bool chance(double p) noexcept {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0) < p;
  }

private:
  uint64_t state_;
};

} // namespace smartly
