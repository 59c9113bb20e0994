#include "core/history.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "core/ga_problem.hpp"
#include "util/rng.hpp"

namespace gridsched::core {
namespace {

BatchSignature sig(double a, double e, double d) {
  return {{a}, {e}, {d}};
}

// ------------------------------------------------------- similarity_raw ---

TEST(SimilarityRaw, LiteralEquationTwo) {
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(similarity_raw(a, b), 1.0);
  // As printed the formula is unnormalised: it can go negative (DESIGN S3).
  const std::vector<double> c = {0.0, 4.0};
  const std::vector<double> d = {4.0, 0.0};
  EXPECT_DOUBLE_EQ(similarity_raw(c, d), 1.0 - 8.0 / 4.0);
}

TEST(SimilarityRaw, RequiresEqualNonZeroLengths) {
  const std::vector<double> a = {1.0};
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_THROW(similarity_raw(a, b), std::invalid_argument);
  EXPECT_THROW(similarity_raw({}, {}), std::invalid_argument);
}

TEST(SimilarityRaw, AllZeroVectorsAreIdentical) {
  const std::vector<double> z = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(similarity_raw(z, z), 1.0);
}

// ---------------------------------------------------- vector_similarity ---

TEST(VectorSimilarity, IdenticalVectorsScoreOne) {
  const std::vector<double> v = {3.0, 1.0, 4.0, 1.5};
  EXPECT_DOUBLE_EQ(vector_similarity(v, v), 1.0);
}

TEST(VectorSimilarity, EmptyCases) {
  EXPECT_DOUBLE_EQ(vector_similarity({}, {}), 1.0);
  const std::vector<double> v = {1.0};
  EXPECT_DOUBLE_EQ(vector_similarity(v, {}), 0.0);
  EXPECT_DOUBLE_EQ(vector_similarity({}, v), 0.0);
}

TEST(VectorSimilarity, KnownValue) {
  const std::vector<double> a = {0.0, 4.0};
  const std::vector<double> b = {4.0, 0.0};
  // mean |diff| = 4, max entry = 4 -> 1 - 1 = 0.
  EXPECT_DOUBLE_EQ(vector_similarity(a, b), 0.0);
}

TEST(VectorSimilarity, SymmetricAndBounded) {
  const std::vector<double> a = {1.0, 5.0, 2.0};
  const std::vector<double> b = {2.0, 4.0, 2.5};
  const double ab = vector_similarity(a, b);
  EXPECT_DOUBLE_EQ(ab, vector_similarity(b, a));
  EXPECT_GE(ab, 0.0);
  EXPECT_LE(ab, 1.0);
}

TEST(VectorSimilarity, ScaleInvariant) {
  const std::vector<double> a = {1.0, 3.0};
  const std::vector<double> b = {2.0, 2.0};
  std::vector<double> a2 = {10.0, 30.0};
  std::vector<double> b2 = {20.0, 20.0};
  EXPECT_NEAR(vector_similarity(a, b), vector_similarity(a2, b2), 1e-12);
}

TEST(VectorSimilarity, ResamplesDifferentLengths) {
  const std::vector<double> a = {2.0, 2.0};
  const std::vector<double> b = {2.0, 2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(vector_similarity(a, b), 1.0);
  const std::vector<double> c = {0.0, 2.0};       // resamples to 0,0,2,2
  const std::vector<double> d = {0.0, 0.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(vector_similarity(c, d), 1.0);
}

TEST(VectorSimilarity, UnequalLengthsMatchAnExplicitResample) {
  // Comparing unequal lengths must equal, bit for bit, comparing copies
  // nearest-neighbour resampled to the longer length.
  util::Rng rng(31);
  for (const auto& [na, nb] : {std::pair<std::size_t, std::size_t>{7, 19},
                               {19, 7},
                               {1, 12},
                               {150, 204},
                               {13, 13}}) {
    std::vector<double> a(na);
    std::vector<double> b(nb);
    for (double& x : a) x = rng.uniform(-50.0, 900.0);
    for (double& x : b) x = rng.uniform(-50.0, 900.0);
    const std::size_t n = std::max(na, nb);
    std::vector<double> a_n(n);
    std::vector<double> b_n(n);
    for (std::size_t i = 0; i < n; ++i) {
      a_n[i] = a[i * na / n];
      b_n[i] = b[i * nb / n];
    }
    EXPECT_EQ(vector_similarity(a, b), vector_similarity(a_n, b_n))
        << na << " vs " << nb;
  }
}

TEST(VectorSimilarity, SteppedResampleMatchesTheDivisionFormula) {
  // Reference: the resample index floor(i * m / n) by division per
  // element and separate peak passes, summing in the same order. Every
  // length pair and both argument orders must agree bit for bit.
  const auto reference = [](std::span<const double> a,
                            std::span<const double> b) {
    if (a.empty() && b.empty()) return 1.0;
    if (a.empty() || b.empty()) return 0.0;
    const std::size_t n = std::max(a.size(), b.size());
    double distance = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      distance +=
          std::abs(a[i * a.size() / n] - b[i * b.size() / n]);
    }
    double peak = 0.0;
    for (const double x : a) peak = std::max(peak, std::abs(x));
    for (const double x : b) peak = std::max(peak, std::abs(x));
    if (peak == 0.0) return 1.0;
    return 1.0 - distance / static_cast<double>(n) / peak;
  };
  util::Rng rng(2005);
  // Random, tied (few distinct values), all-zero and negative entries.
  const auto fill = [&](std::size_t length, int kind) {
    std::vector<double> v(length);
    for (double& x : v) {
      switch (kind) {
        case 0: x = rng.uniform(0.0, 900.0); break;
        case 1: x = static_cast<double>(rng.index(3)); break;
        case 2: x = 0.0; break;
        default: x = rng.uniform(-900.0, 50.0); break;
      }
    }
    return v;
  };
  for (std::size_t na = 1; na <= 64; ++na) {
    for (std::size_t nb = 1; nb <= 64; ++nb) {
      for (int kind = 0; kind < 4; ++kind) {
        const std::vector<double> a = fill(na, kind);
        const std::vector<double> b = fill(nb, (kind + na + nb) % 4);
        EXPECT_EQ(vector_similarity(a, b), reference(a, b))
            << na << " vs " << nb << " kind " << kind;
        EXPECT_EQ(vector_similarity(b, a), reference(b, a))
            << nb << " vs " << na << " kind " << kind;
      }
    }
  }
}

TEST(VectorSimilarity, DecreasesWithDistance) {
  const std::vector<double> base = {5.0, 5.0};
  const std::vector<double> near = {5.0, 6.0};
  const std::vector<double> far = {5.0, 10.0};
  EXPECT_GT(vector_similarity(base, near), vector_similarity(base, far));
}

// ------------------------------------------------------ batch signature ---

TEST(MakeSignature, ExtractsThreeParameterVectors) {
  sim::SchedulerContext context;
  context.now = 100.0;
  context.sites = {{0, 2, 1.0, 0.9}, {1, 1, 2.0, 0.5}};
  sim::NodeAvailability busy(2, 0.0);
  busy.reserve(2, 150.0, 0.0);  // both nodes busy until 150
  context.avail = {busy, sim::NodeAvailability(1, 0.0)};
  sim::BatchJob job;
  job.id = 0;
  job.work = 10.0;
  job.nodes = 1;
  job.demand = 0.75;
  context.jobs = {job};
  const GaProblem problem =
      build_problem(context, security::RiskPolicy::risky());
  const BatchSignature signature = make_signature(problem);

  ASSERT_EQ(signature.avail.size(), 2u);
  EXPECT_DOUBLE_EQ(signature.avail[0], 50.0);  // backlog beyond now
  EXPECT_DOUBLE_EQ(signature.avail[1], 0.0);   // idle site clamps to 0
  ASSERT_EQ(signature.etc.size(), 2u);
  EXPECT_DOUBLE_EQ(signature.etc[0], 10.0);
  EXPECT_DOUBLE_EQ(signature.etc[1], 5.0);
  ASSERT_EQ(signature.demands.size(), 1u);
  EXPECT_DOUBLE_EQ(signature.demands[0], 0.75);
}

TEST(SignatureSimilarity, AveragesComponents) {
  const BatchSignature a = sig(1.0, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(signature_similarity(a, a), 1.0);
  // One component identical, two maximally distant-ish.
  const BatchSignature b = {{1.0}, {100.0}, {100.0}};
  const double s = signature_similarity(a, b);
  EXPECT_NEAR(s, (1.0 + 0.01 + 0.01) / 3.0, 1e-9);
}

// -------------------------------------------------------- history table ---

TEST(HistoryTable, RejectsZeroCapacity) {
  EXPECT_THROW(HistoryTable(0, 0.8), std::invalid_argument);
}

TEST(HistoryTable, LookupOnEmptyTableMisses) {
  HistoryTable table(4, 0.8);
  EXPECT_TRUE(table.lookup(sig(1, 1, 1)).empty());
  EXPECT_EQ(table.misses(), 1u);
  EXPECT_EQ(table.hits(), 0u);
}

TEST(HistoryTable, FindsSimilarEntry) {
  HistoryTable table(4, 0.8);
  table.insert(sig(10, 10, 0.8), {1, 2});
  const auto matches = table.lookup(sig(10.1, 10.1, 0.8));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_GT(matches[0].similarity, 0.8);
  EXPECT_EQ(*matches[0].chromosome, (Chromosome{1, 2}));
  EXPECT_EQ(table.hits(), 1u);
}

TEST(HistoryTable, ThresholdFiltersDissimilar) {
  HistoryTable table(4, 0.8);
  table.insert(sig(1, 1, 1), {0});
  EXPECT_TRUE(table.lookup(sig(100, 100, 100)).empty());
}

TEST(HistoryTable, MatchesSortedBySimilarity) {
  HistoryTable table(4, 0.5);
  table.insert(sig(10, 10, 10), {0});
  table.insert(sig(12, 12, 12), {1});
  table.insert(sig(20, 20, 20), {2});
  const auto matches = table.lookup(sig(10, 10, 10), 8);
  ASSERT_GE(matches.size(), 2u);
  for (std::size_t i = 1; i < matches.size(); ++i) {
    EXPECT_GE(matches[i - 1].similarity, matches[i].similarity);
  }
  EXPECT_EQ(*matches[0].chromosome, Chromosome{0});
}

TEST(HistoryTable, MaxMatchesCaps) {
  HistoryTable table(8, 0.5);
  for (unsigned i = 0; i < 6; ++i) {
    // Spaced out enough not to trip the near-duplicate replacement.
    table.insert(sig(10.0 + static_cast<double>(i), 10, 10), {i});
  }
  EXPECT_EQ(table.size(), 6u);
  EXPECT_EQ(table.lookup(sig(10, 10, 10), 3).size(), 3u);
}

TEST(HistoryTable, NearDuplicateReplacesInPlace) {
  HistoryTable table(4, 0.8);
  table.insert(sig(10, 10, 10), {0});
  table.insert(sig(10, 10, 10), {1});  // identical signature
  EXPECT_EQ(table.size(), 1u);
  const auto matches = table.lookup(sig(10, 10, 10));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(*matches[0].chromosome, Chromosome{1});
}

TEST(HistoryTable, EvictsLeastRecentlyUsed) {
  HistoryTable table(2, 0.9);
  table.insert(sig(10, 10, 10), {0});
  table.insert(sig(500, 500, 500), {1});
  // Touch the first entry so the second becomes LRU.
  EXPECT_FALSE(table.lookup(sig(10, 10, 10)).empty());
  table.insert(sig(9000, 9000, 9000), {2});  // forces an eviction
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.evictions(), 1u);
  EXPECT_FALSE(table.lookup(sig(10, 10, 10)).empty());    // survived
  EXPECT_TRUE(table.lookup(sig(500, 500, 500)).empty());  // evicted
}

TEST(HistoryTable, CapacityNeverExceeded) {
  HistoryTable table(3, 0.99);
  for (unsigned i = 0; i < 20; ++i) {
    table.insert(sig(i * 100.0 + 1.0, i * 50.0 + 1.0, i + 1.0), {i});
    EXPECT_LE(table.size(), 3u);
  }
}

TEST(HistoryTable, AccessorsReportConfiguration) {
  const HistoryTable table(150, 0.8);
  EXPECT_EQ(table.capacity(), 150u);
  EXPECT_DOUBLE_EQ(table.threshold(), 0.8);
  EXPECT_EQ(table.size(), 0u);
}

}  // namespace
}  // namespace gridsched::core
