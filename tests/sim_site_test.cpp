#include "sim/site.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace gridsched::sim {
namespace {

TEST(NodeAvailability, RejectsZeroNodes) {
  EXPECT_THROW(NodeAvailability(0), std::invalid_argument);
}

TEST(NodeAvailability, InitiallyFreeAtT0) {
  const NodeAvailability avail(4, 100.0);
  EXPECT_EQ(avail.nodes(), 4u);
  for (const Time t : avail.free_times()) EXPECT_DOUBLE_EQ(t, 100.0);
}

TEST(NodeAvailability, EarliestStartValidatesK) {
  const NodeAvailability avail(3);
  EXPECT_THROW(static_cast<void>(avail.earliest_start(0, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(avail.earliest_start(4, 0.0)),
               std::invalid_argument);
}

TEST(NodeAvailability, EarliestStartIsNowWhenIdle) {
  const NodeAvailability avail(3, 0.0);
  EXPECT_DOUBLE_EQ(avail.earliest_start(2, 50.0), 50.0);
}

TEST(NodeAvailability, ReserveOccupiesEarliestNodes) {
  NodeAvailability avail(3, 0.0);
  const auto w1 = avail.reserve(2, 10.0, 0.0);
  EXPECT_DOUBLE_EQ(w1.start, 0.0);
  EXPECT_DOUBLE_EQ(w1.end, 10.0);
  // One node still free at 0, two at 10.
  EXPECT_DOUBLE_EQ(avail.earliest_start(1, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(avail.earliest_start(2, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(avail.earliest_start(3, 0.0), 10.0);
}

TEST(NodeAvailability, SequentialJobsQueueOnOneNode) {
  NodeAvailability avail(1, 0.0);
  EXPECT_DOUBLE_EQ(avail.reserve(1, 5.0, 0.0).end, 5.0);
  EXPECT_DOUBLE_EQ(avail.reserve(1, 5.0, 0.0).start, 5.0);
  EXPECT_DOUBLE_EQ(avail.reserve(1, 5.0, 12.0).start, 12.0);  // idle gap
}

TEST(NodeAvailability, PreviewDoesNotMutate) {
  NodeAvailability avail(2, 0.0);
  const auto before = avail.free_times();
  const auto window = avail.preview(2, 7.0, 3.0);
  EXPECT_DOUBLE_EQ(window.start, 3.0);
  EXPECT_DOUBLE_EQ(window.end, 10.0);
  EXPECT_EQ(avail.free_times(), before);
}

TEST(NodeAvailability, ProfileStaysSorted) {
  NodeAvailability avail(4, 0.0);
  util::Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const unsigned k = 1 + static_cast<unsigned>(rng.index(4));
    avail.reserve(k, rng.uniform(1.0, 20.0), rng.uniform(0.0, 50.0));
    EXPECT_TRUE(std::is_sorted(avail.free_times().begin(),
                               avail.free_times().end()));
  }
}

/// Property: earliest_start(k) equals the k-th smallest free time, checked
/// against a brute-force recomputation after random reservation sequences.
class AvailabilityProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(AvailabilityProperty, KthSmallestMatchesBruteForce) {
  const unsigned nodes = GetParam();
  NodeAvailability avail(nodes, 0.0);
  util::Rng rng(nodes * 101);
  for (int step = 0; step < 50; ++step) {
    const unsigned k = 1 + static_cast<unsigned>(rng.index(nodes));
    const Time now = rng.uniform(0.0, 100.0);
    std::vector<Time> copy = avail.free_times();
    std::sort(copy.begin(), copy.end());
    EXPECT_DOUBLE_EQ(avail.earliest_start(k, now),
                     std::max(now, copy[k - 1]));
    avail.reserve(k, rng.uniform(0.5, 10.0), now);
  }
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, AvailabilityProperty,
                         ::testing::Values(1u, 2u, 3u, 8u, 16u));

/// The reservation as a sort: the k earliest entries become `end`, then
/// std::sort restores the order. Independent of reserve()'s in-place merge.
std::vector<Time> reserve_by_sort(std::vector<Time> free_times, unsigned k,
                                  double exec, Time now) {
  const Time end = std::max(now, free_times[k - 1]) + exec;
  std::fill(free_times.begin(), free_times.begin() + k, end);
  std::sort(free_times.begin(), free_times.end());
  return free_times;
}

bool same_bits(const std::vector<Time>& a, const std::vector<Time>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](Time x, Time y) {
           return std::bit_cast<std::uint64_t>(x) ==
                  std::bit_cast<std::uint64_t>(y);
         });
}

TEST(NodeAvailability, ReserveMatchesTheSortOracleBitForBit) {
  // Profiles of 1..33 nodes reached by random walks of reservations and
  // releases on an integer grid, so tied and duplicate free times are the
  // common case. From every profile on the walk each k in 1..n is
  // reserved (on a copy) with `now` before, inside and after the profile,
  // and exec 0 or positive, and compared bit for bit with the oracle.
  util::Rng rng(20260419);
  std::size_t compared = 0;
  for (unsigned n = 1; n <= 33; ++n) {
    NodeAvailability walk(n, 0.0);
    for (int step = 0; step < 12; ++step) {
      const std::vector<Time> profile = walk.free_times();
      const std::array<Time, 4> nows = {
          profile.front() - 1.0, profile[rng.index(n)],
          0.5 * (profile.front() + profile.back()), profile.back() + 2.0};
      for (unsigned k = 1; k <= n; ++k) {
        for (const Time now : nows) {
          for (const double exec : {0.0, 1.0, 2.5}) {
            NodeAvailability copy = walk;
            const auto window = copy.reserve(k, exec, now);
            const std::vector<Time> expected =
                reserve_by_sort(profile, k, exec, now);
            ASSERT_TRUE(same_bits(copy.free_times(), expected))
                << "n " << n << " step " << step << " k " << k << " now "
                << now << " exec " << exec;
            ASSERT_EQ(window.start, std::max(now, profile[k - 1]));
            ASSERT_EQ(window.end, window.start + exec);
            ++compared;
          }
        }
      }
      // Advance the walk: a reservation on the grid, now and then the
      // early release of part of it.
      const unsigned k = 1 + static_cast<unsigned>(rng.index(n));
      const auto window =
          walk.reserve(k, static_cast<double>(rng.index(3)),
                       static_cast<double>(rng.index(4)));
      if (rng.bernoulli(0.25)) {
        walk.release(1 + static_cast<unsigned>(rng.index(k)), window.end,
                     window.start);
      }
    }
  }
  EXPECT_EQ(compared, std::size_t{12} * 4 * 3 * (33 * 34 / 2));
}

TEST(NodeAvailability, ReleaseReclaimsUntouchedNodes) {
  NodeAvailability avail(2, 0.0);
  const auto window = avail.reserve(2, 10.0, 0.0);
  EXPECT_EQ(avail.release(2, window.end, 4.0), 2u);
  EXPECT_DOUBLE_EQ(avail.earliest_start(2, 0.0), 4.0);
}

TEST(NodeAvailability, ReleaseSkipsReReservedNodes) {
  NodeAvailability avail(2, 0.0);
  const auto w1 = avail.reserve(1, 10.0, 0.0);   // node A busy to 10
  avail.reserve(2, 5.0, 0.0);                    // both nodes busy 10..15
  // Node A's free time is now 15, not w1.end: release finds nothing at 10.
  EXPECT_EQ(avail.release(1, w1.end, 2.0), 0u);
}

TEST(NodeAvailability, ReleasePartialCount) {
  NodeAvailability avail(4, 0.0);
  const auto window = avail.reserve(3, 8.0, 0.0);
  // Ask to release only 2 of the 3 reserved nodes.
  EXPECT_EQ(avail.release(2, window.end, 1.0), 2u);
  const auto& times = avail.free_times();
  EXPECT_EQ(std::count(times.begin(), times.end(), 8.0), 1);
  EXPECT_EQ(std::count(times.begin(), times.end(), 1.0), 2);
}

TEST(NodeAvailability, ReleaseRejectsLateTimes) {
  NodeAvailability avail(1, 0.0);
  const auto window = avail.reserve(1, 5.0, 0.0);
  EXPECT_THROW(avail.release(1, window.end, 6.0), std::invalid_argument);
}

// ---------------------------------------------------------------- sites ---

SiteConfig config_of(unsigned nodes, double speed, double security) {
  return {0, nodes, speed, security};
}

TEST(GridSite, RejectsNonPositiveSpeed) {
  EXPECT_THROW(GridSite(config_of(2, 0.0, 0.5)), std::invalid_argument);
  EXPECT_THROW(GridSite(config_of(2, -1.0, 0.5)), std::invalid_argument);
}

TEST(GridSite, FitsChecksNodeCount) {
  const GridSite site(config_of(8, 1.0, 0.5));
  EXPECT_TRUE(site.fits(8));
  EXPECT_TRUE(site.fits(1));
  EXPECT_FALSE(site.fits(9));
}

TEST(GridSite, DispatchRejectsOversizedJobs) {
  GridSite site(config_of(2, 1.0, 0.5));
  EXPECT_THROW(site.dispatch(3, 10.0, 0.0), std::invalid_argument);
}

TEST(GridSite, DispatchCountsJobs) {
  GridSite site(config_of(2, 1.0, 0.5));
  site.dispatch(1, 5.0, 0.0);
  site.dispatch(2, 5.0, 0.0);
  EXPECT_EQ(site.dispatched_jobs(), 2u);
}

TEST(GridSite, UtilizationAccounting) {
  GridSite site(config_of(4, 1.0, 0.5));
  site.account_busy(2, 50.0);  // 100 node-seconds
  EXPECT_DOUBLE_EQ(site.busy_node_seconds(), 100.0);
  EXPECT_DOUBLE_EQ(site.utilization(100.0), 0.25);  // 100 / (4*100)
  EXPECT_DOUBLE_EQ(site.utilization(0.0), 0.0);
}

TEST(GridSite, UtilizationClampsToOne) {
  GridSite site(config_of(1, 1.0, 0.5));
  site.account_busy(1, 1000.0);
  EXPECT_DOUBLE_EQ(site.utilization(10.0), 1.0);
}

TEST(GridSite, ReleaseAfterFailureShortensBacklog) {
  GridSite site(config_of(1, 1.0, 0.5));
  const auto window = site.dispatch(1, 100.0, 0.0);
  EXPECT_EQ(site.release_after_failure(1, window.end, 30.0), 1u);
  EXPECT_DOUBLE_EQ(site.availability().earliest_start(1, 0.0), 30.0);
}

TEST(NodeAvailability, ReleaseWithCoincidingReservationEnds) {
  // Two independent reservations ending at the same instant: releasing one
  // job's nodes must reclaim exactly its node count, and releasing the
  // second afterwards must still find the remaining entries.
  NodeAvailability avail(3, 0.0);
  const auto w1 = avail.reserve(1, 10.0, 0.0);
  const auto w2 = avail.reserve(2, 10.0, 0.0);
  ASSERT_DOUBLE_EQ(w1.end, w2.end);  // coinciding by construction
  EXPECT_EQ(avail.release(1, w1.end, 4.0), 1u);
  const auto& after_first = avail.free_times();
  EXPECT_EQ(std::count(after_first.begin(), after_first.end(), 10.0), 2);
  EXPECT_EQ(std::count(after_first.begin(), after_first.end(), 4.0), 1);
  EXPECT_EQ(avail.release(2, w2.end, 6.0), 2u);
  const auto& after_second = avail.free_times();
  EXPECT_EQ(std::count(after_second.begin(), after_second.end(), 6.0), 2);
  EXPECT_TRUE(std::is_sorted(after_second.begin(), after_second.end()));
}

}  // namespace
}  // namespace gridsched::sim
