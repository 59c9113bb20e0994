#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace gridsched::util {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(123);
  SplitMix64 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() != b.next()) ++differing;
  }
  EXPECT_EQ(differing, 64);
}

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256StarStar a(42);
  Xoshiro256StarStar b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, PinnedDrawSequence) {
  // Every GA fingerprint and golden digest rides on this exact sequence;
  // any change to the generator's arithmetic fails here first.
  Xoshiro256StarStar gen(42);
  EXPECT_EQ(gen(), 0x15780b2e0c2ec716ULL);
  EXPECT_EQ(gen(), 0x6104d9866d113a7eULL);
  EXPECT_EQ(gen(), 0xae17533239e499a1ULL);
  EXPECT_EQ(gen(), 0xecb8ad4703b360a1ULL);
  for (int i = 0; i < 996; ++i) gen();
  EXPECT_EQ(gen(), 0x0f5028c28f5771b2ULL);
}

TEST(Xoshiro, LongJumpChangesSequence) {
  Xoshiro256StarStar a(42);
  Xoshiro256StarStar b(42);
  b.long_jump();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Xoshiro, SatisfiesUniformRandomBitGenerator) {
  static_assert(Xoshiro256StarStar::min() == 0);
  static_assert(Xoshiro256StarStar::max() ==
                std::numeric_limits<std::uint64_t>::max());
  SUCCEED();
}

TEST(Rng, UniformInHalfOpenUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-3.5, 12.25);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 12.25);
  }
}

TEST(Rng, UniformMeanIsCentred) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kDraws, 0.5, 0.005);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(2, 9);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 9);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 8u);  // all 8 values appear
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntNegativeRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(-10, -5);
    EXPECT_GE(v, -10);
    EXPECT_LE(v, -5);
  }
}

TEST(Rng, UniformIntIsUnbiased) {
  Rng rng(5);
  constexpr int kDraws = 120000;
  std::vector<int> counts(6, 0);
  for (int i = 0; i < kDraws; ++i) {
    ++counts[static_cast<std::size_t>(rng.uniform_int(0, 5))];
  }
  for (const int count : counts) {
    EXPECT_NEAR(count, kDraws / 6.0, kDraws * 0.01);
  }
}

TEST(Rng, IndexStaysBelowBound) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.index(17), 17u);
}

TEST(Rng, BernoulliEdgeProbabilities) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(17);
  constexpr int kDraws = 100000;
  int hits = 0;
  for (int i = 0; i < kDraws; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(19);
  constexpr int kDraws = 200000;
  double sum = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.exponential(0.25);
    EXPECT_GT(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kDraws, 4.0, 0.08);
}

TEST(Rng, NormalMoments) {
  Rng rng(23);
  constexpr int kDraws = 200000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.02);
  EXPECT_NEAR(sq / kDraws, 1.0, 0.02);
}

TEST(Rng, NormalScaled) {
  Rng rng(29);
  constexpr int kDraws = 100000;
  double sum = 0.0;
  for (int i = 0; i < kDraws; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / kDraws, 10.0, 0.05);
}

TEST(Rng, LognormalMedianIsExpMu) {
  Rng rng(31);
  std::vector<double> draws(50001);
  for (double& x : draws) x = rng.lognormal(2.0, 0.8);
  std::nth_element(draws.begin(), draws.begin() + 25000, draws.end());
  EXPECT_NEAR(draws[25000], std::exp(2.0), 0.15);
}

TEST(Rng, ChildStreamsAreIndependentAndDeterministic) {
  Rng a = Rng::child(1000, 0);
  Rng a_again = Rng::child(1000, 0);
  Rng b = Rng::child(1000, 1);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, a_again.next_u64());
    if (va != b.next_u64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(37);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> sorted = v;
  rng.shuffle(v);
  std::vector<int> shuffled_sorted = v;
  std::sort(shuffled_sorted.begin(), shuffled_sorted.end());
  EXPECT_EQ(shuffled_sorted, sorted);
}

TEST(Rng, ShuffleActuallyShuffles) {
  Rng rng(41);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  const std::vector<int> original = v;
  rng.shuffle(v);
  EXPECT_NE(v, original);
}

TEST(Rng, PickReturnsMember) {
  Rng rng(43);
  const std::vector<int> items = {10, 20, 30};
  for (int i = 0; i < 100; ++i) {
    const int x = rng.pick(std::span<const int>(items));
    EXPECT_TRUE(x == 10 || x == 20 || x == 30);
  }
}

/// Property sweep: uniform_int never escapes [lo, hi] over many ranges.
class RngRangeProperty
    : public ::testing::TestWithParam<std::pair<std::int64_t, std::int64_t>> {};

TEST_P(RngRangeProperty, BoundsHold) {
  const auto [lo, hi] = GetParam();
  Rng rng(static_cast<std::uint64_t>(lo * 31 + hi));
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = rng.uniform_int(lo, hi);
    ASSERT_GE(v, lo);
    ASSERT_LE(v, hi);
  }
}

// --------------------------------------------------------------- SeedMix ---

TEST(SeedMix, DeterministicAndStable) {
  const std::uint64_t a =
      SeedMix(7).mix("scenario").mix("policy").mix(std::uint64_t{3}).seed();
  const std::uint64_t b =
      SeedMix(7).mix("scenario").mix("policy").mix(std::uint64_t{3}).seed();
  EXPECT_EQ(a, b);
  // Pinned value: the mix is part of the campaign artifact contract —
  // changing it invalidates committed campaign JSON, so fail loudly.
  EXPECT_EQ(SeedMix(1).mix(std::uint64_t{2}).seed(), 0xdce423fc82c0d5b8ULL);
}

TEST(SeedMix, OrderAndCoordinatesMatter) {
  const auto mixed = [](auto... coords) {
    SeedMix mix(42);
    (mix.mix(coords), ...);
    return mix.seed();
  };
  EXPECT_NE(mixed(std::uint64_t{1}, std::uint64_t{2}),
            mixed(std::uint64_t{2}, std::uint64_t{1}));
  EXPECT_NE(mixed(std::string_view("ab"), std::string_view("c")),
            mixed(std::string_view("a"), std::string_view("bc")));
  EXPECT_NE(SeedMix(42).seed(), SeedMix(43).seed());
  EXPECT_NE(mixed(std::string_view("x")), SeedMix(42).seed());
}

TEST(SeedMix, AdjacentCellsGetDistantStreams) {
  // The replacement for `seed + i` arithmetic must not produce correlated
  // generators for adjacent indices: all derived seeds distinct, and
  // first draws spread over the 64-bit range.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seeds.insert(SeedMix(5).mix("cell").mix(i).seed());
  }
  EXPECT_EQ(seeds.size(), 1000u);
  Rng first = SeedMix(5).mix("cell").mix(std::uint64_t{0}).rng();
  Rng second = SeedMix(5).mix("cell").mix(std::uint64_t{1}).rng();
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (first.next_u64() != second.next_u64()) ++differing;
  }
  EXPECT_EQ(differing, 64);
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, RngRangeProperty,
    ::testing::Values(std::pair<std::int64_t, std::int64_t>{0, 0},
                      std::pair<std::int64_t, std::int64_t>{0, 1},
                      std::pair<std::int64_t, std::int64_t>{-1, 1},
                      std::pair<std::int64_t, std::int64_t>{0, 6},
                      std::pair<std::int64_t, std::int64_t>{-100, 100},
                      std::pair<std::int64_t, std::int64_t>{1, 1000000},
                      std::pair<std::int64_t, std::int64_t>{-1000000,
                                                            -999990}));

}  // namespace
}  // namespace gridsched::util
