// NPN canonicalization table: the 222 4-input classes, transform round-trips
// over every truth table, class invariance under arbitrary transforms, and
// representative minimality.
#include "rewrite/npn.hpp"

#include <gtest/gtest.h>

#include <random>

using namespace smartly::rewrite;

TEST(Npn, Exactly222Classes) {
  EXPECT_EQ(NpnTable::instance().num_classes(), 222u);
  EXPECT_EQ(NpnTable::instance().representatives().size(), 222u);
}

TEST(Npn, CanonicalIsIdempotentAndRepresentative) {
  const NpnTable& t = NpnTable::instance();
  for (uint32_t tt = 0; tt < 65536; ++tt) {
    const TruthTable c = t.canonical(static_cast<TruthTable>(tt));
    EXPECT_EQ(t.canonical(c), c);
    EXPECT_EQ(t.representatives()[t.class_id(static_cast<TruthTable>(tt))], c);
    EXPECT_LE(c, tt); // the representative is the smallest orbit member
  }
}

TEST(Npn, FromCanonicalRoundTripsEveryTable) {
  const NpnTable& t = NpnTable::instance();
  for (uint32_t tt = 0; tt < 65536; ++tt) {
    const TruthTable c = t.canonical(static_cast<TruthTable>(tt));
    EXPECT_EQ(NpnTable::apply(c, t.from_canonical(static_cast<TruthTable>(tt))),
              static_cast<TruthTable>(tt));
  }
}

TEST(Npn, TableEqualsOneBuiltWithApply) {
  // The constructor maps minterms through per-transform tables computed
  // once; the same ascending scan with one NpnTable::apply per (table,
  // transform) must give every entry.
  std::vector<TruthTable> canon(65536);
  std::vector<uint16_t> class_id(65536), from_canon(65536);
  std::vector<uint8_t> assigned(65536, 0);
  uint16_t classes = 0;
  for (uint32_t tt = 0; tt < 65536; ++tt) {
    if (assigned[tt])
      continue;
    for (uint16_t u = 0; u < kNumTransforms; ++u) {
      const TruthTable v = NpnTable::apply(static_cast<TruthTable>(tt), u);
      if (assigned[v])
        continue;
      assigned[v] = 1;
      canon[v] = static_cast<TruthTable>(tt);
      class_id[v] = classes;
      from_canon[v] = u;
    }
    ++classes;
  }
  const NpnTable& t = NpnTable::instance();
  EXPECT_EQ(classes, t.num_classes());
  size_t mismatches = 0;
  for (uint32_t tt = 0; tt < 65536; ++tt) {
    const TruthTable f = static_cast<TruthTable>(tt);
    mismatches += t.canonical(f) != canon[tt] || t.class_id(f) != class_id[tt] ||
                  t.from_canonical(f) != from_canon[tt];
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Npn, IdentityTransformIsZero) {
  for (const TruthTable tt : {TruthTable(0x8000), TruthTable(0x1234), TruthTable(0xcafe)})
    EXPECT_EQ(NpnTable::apply(tt, 0), tt);
}

TEST(Npn, ClassInvariantUnderTransforms) {
  const NpnTable& t = NpnTable::instance();
  std::mt19937_64 rng(7);
  for (int i = 0; i < 2000; ++i) {
    const TruthTable tt = static_cast<TruthTable>(rng());
    const uint16_t u = static_cast<uint16_t>(rng() % kNumTransforms);
    EXPECT_EQ(t.class_id(NpnTable::apply(tt, u)), t.class_id(tt));
    EXPECT_EQ(t.canonical(NpnTable::apply(tt, u)), t.canonical(tt));
  }
}

TEST(Npn, RepresentativesAreOrbitMinima) {
  const NpnTable& t = NpnTable::instance();
  // Exhaustive on a sample of classes: no transform may produce anything
  // smaller than the representative.
  for (size_t i = 0; i < t.representatives().size(); i += 17) {
    const TruthTable rep = t.representatives()[i];
    for (uint16_t u = 0; u < kNumTransforms; ++u)
      EXPECT_GE(NpnTable::apply(rep, u), rep);
  }
}

TEST(Npn, ProjectionsShareOneClass) {
  const NpnTable& t = NpnTable::instance();
  const uint16_t cls = t.class_id(kProjection[0]);
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(t.class_id(kProjection[i]), cls);
    EXPECT_EQ(t.class_id(static_cast<TruthTable>(~kProjection[i])), cls);
  }
  // Constants form their own (single) class.
  EXPECT_EQ(t.class_id(0), t.class_id(0xffff));
  EXPECT_EQ(t.canonical(0xffff), 0);
}
