#include "util/histogram.hpp"
#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace gridsched::util {
namespace {

TEST(RunningStats, EmptyDefaults) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.ci95_halfwidth(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats stats;
  stats.add(4.5);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 4.5);
  EXPECT_DOUBLE_EQ(stats.min(), 4.5);
  EXPECT_DOUBLE_EQ(stats.max(), 4.5);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, KnownSample) {
  RunningStats stats;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(RunningStats, MatchesNaiveOnRandomData) {
  std::vector<double> data;
  double x = 0.1;
  for (int i = 0; i < 1000; ++i) {
    x = std::fmod(x * 97.31 + 3.7, 13.0);
    data.push_back(x);
  }
  RunningStats stats;
  for (const double v : data) stats.add(v);
  double sum = 0.0;
  for (const double v : data) sum += v;
  const double mean = sum / static_cast<double>(data.size());
  double ss = 0.0;
  for (const double v : data) ss += (v - mean) * (v - mean);
  EXPECT_NEAR(stats.mean(), mean, 1e-9);
  EXPECT_NEAR(stats.variance(), ss / static_cast<double>(data.size() - 1),
              1e-9);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats whole;
  RunningStats part_a;
  RunningStats part_b;
  for (int i = 0; i < 100; ++i) {
    const double v = std::sin(i) * 10.0 + i * 0.1;
    whole.add(v);
    (i < 40 ? part_a : part_b).add(v);
  }
  part_a.merge(part_b);
  EXPECT_EQ(part_a.count(), whole.count());
  EXPECT_NEAR(part_a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(part_a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(part_a.min(), whole.min());
  EXPECT_DOUBLE_EQ(part_a.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a;
  RunningStats b;
  b.add(3.0);
  b.add(5.0);
  a.merge(b);  // empty.merge(full)
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
  RunningStats c;
  a.merge(c);  // full.merge(empty)
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
  EXPECT_EQ(a.count(), 2u);
}

TEST(RunningStats, Ci95ShrinksWithSamples) {
  RunningStats small;
  RunningStats large;
  for (int i = 0; i < 10; ++i) small.add(i % 3);
  for (int i = 0; i < 1000; ++i) large.add(i % 3);
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(Percentile, EmptySampleThrows) {
  // The quantile of nothing has no value; a silent 0.0 masked reporting
  // bugs in callers that forgot to guard empty samples.
  EXPECT_THROW(static_cast<void>(percentile({}, 0.5)), std::invalid_argument);
}

TEST(Percentile, MedianOfOddSample) {
  const std::vector<double> v = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
}

TEST(Percentile, InterpolatesBetweenPoints) {
  const std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 5.0);
}

TEST(Percentile, ExtremesAndClamping) {
  const std::vector<double> v = {4.0, 2.0, 8.0, 6.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 8.0);
  EXPECT_DOUBLE_EQ(percentile(v, -3.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 2.0), 8.0);
}

TEST(MeanStdDevOf, MatchRunningStats) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean_of(v), 2.5);
  EXPECT_NEAR(stddev_of(v), std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev_of({}), 0.0);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
}

TEST(Histogram, CountsBucketsAndOverflow) {
  Histogram h(0.0, 10.0, 5);
  for (const double x : {-1.0, 0.0, 1.9, 2.0, 5.5, 9.999, 10.0, 42.0}) h.add(x);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 8u);
  EXPECT_EQ(h.count(0), 2u);  // 0.0, 1.9
  EXPECT_EQ(h.count(1), 1u);  // 2.0
  EXPECT_EQ(h.count(2), 1u);  // 5.5
  EXPECT_EQ(h.count(3), 0u);
  EXPECT_EQ(h.count(4), 1u);  // 9.999
}

// ----------------------------------------------------- t-distribution CI ---

TEST(TCritical95, MatchesStandardTables) {
  EXPECT_DOUBLE_EQ(t_critical_95(1), 12.706);
  EXPECT_DOUBLE_EQ(t_critical_95(2), 4.303);
  EXPECT_DOUBLE_EQ(t_critical_95(10), 2.228);
  EXPECT_DOUBLE_EQ(t_critical_95(30), 2.042);
  EXPECT_NEAR(t_critical_95(50), 2.009, 5e-3);   // interpolated region
  EXPECT_NEAR(t_critical_95(120), 1.980, 1e-9);
  EXPECT_DOUBLE_EQ(t_critical_95(10000), 1.96);  // normal limit
  EXPECT_THROW(static_cast<void>(t_critical_95(0)), std::invalid_argument);
}

TEST(TCritical95, MonotoneDecreasingTowardNormal) {
  double previous = t_critical_95(1);
  for (std::size_t dof = 2; dof <= 200; ++dof) {
    const double current = t_critical_95(dof);
    EXPECT_LE(current, previous) << "dof=" << dof;
    EXPECT_GE(current, 1.96);
    previous = current;
  }
}

TEST(Summarize, MatchesHandComputation) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  const Summary summary = summarize(v);
  EXPECT_EQ(summary.count, 4u);
  EXPECT_DOUBLE_EQ(summary.mean, 2.5);
  EXPECT_NEAR(summary.stddev, std::sqrt(5.0 / 3.0), 1e-12);
  // t(dof=3) = 3.182, halfwidth = t * s / sqrt(n).
  EXPECT_NEAR(summary.ci95, 3.182 * summary.stddev / 2.0, 1e-12);
}

TEST(Summarize, SmallSamplesWidenVsNormalInterval) {
  RunningStats stats;
  stats.add(10.0);
  stats.add(12.0);
  stats.add(14.0);
  // n=3: t CI uses 4.303 instead of 1.96 — more than twice as wide.
  EXPECT_GT(stats.ci95_halfwidth_t(), 2.0 * stats.ci95_halfwidth());
  const Summary summary = summarize(stats);
  EXPECT_DOUBLE_EQ(summary.ci95, stats.ci95_halfwidth_t());
}

TEST(Summarize, EmptyAndSingleton) {
  EXPECT_THROW(static_cast<void>(summarize(std::span<const double>{})),
               std::invalid_argument);
  const RunningStats empty;
  EXPECT_EQ(summarize(empty).count, 0u);  // accumulator overload: zeros
  RunningStats one;
  one.add(5.0);
  const Summary summary = summarize(one);
  EXPECT_EQ(summary.count, 1u);
  EXPECT_DOUBLE_EQ(summary.mean, 5.0);
  EXPECT_DOUBLE_EQ(summary.ci95, 0.0);
}

}  // namespace
}  // namespace gridsched::util
