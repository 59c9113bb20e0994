// Branch-and-bound site selection for MCT on rank-1 execution models.
//
// One min-tree per node count the batch requests, over the sites sorted by
// speed descending (ties by site index). A leaf holds the site's earliest
// start for that node count, or infinity when the job cannot fit or the
// site is masked out; every node also knows its fastest site (its leftmost
// leaf), that site's reciprocal speed rounded one ulp down (inv_lo), and
// its smallest site index. A subtree's bound is `min start + work *
// inv_lo`: inv_lo is strictly below the real 1 / speed, so with work >= 0
// and monotone rounding the product never exceeds fl(work / speed) on the
// fastest site, hence never exceeds any leaf's completion time, and the
// bound costs a multiply where the exact exec time costs a divide. A query
// skips every subtree whose (bound, smallest index) is not
// lexicographically below the running (best completion, best site), then
// prices each leaf it reaches exactly through the job's exec row
// (context.exec_row) and accepts it under the same test. That is exactly
// the linear scan's strict-<, lowest-index-wins rule, so the answer is the
// scan's answer.
//
// The speed order and the per-node inv_lo / fastest / min_index are the
// static half: they depend on the site speeds alone, so build() keeps
// them across cycles and refills only the start trees while the speeds
// stay bit-equal to the ones they were built from.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "security/security.hpp"
#include "sim/scheduling.hpp"

namespace gridsched::sched {

class SiteTree {
 public:
  /// Below this many sites the per-cycle build costs more than the scans it
  /// saves: bench_micro_sched's 12-site BM_Mct ran up to 2x slower on the
  /// trees, and small-batch break-even measured at 32-48 sites.
  static constexpr std::size_t kMinSites = 64;

  /// True when the tree is worth building for `context` (kMinSites or
  /// more sites) and its subtree bound is sound: a rank-1 execution model
  /// (no job carries an ETC row), every site speed > 0 and every job's
  /// work >= 0, so a job's exec time never decreases as speed falls and
  /// work * inv_lo never exceeds it.
  [[nodiscard]] static bool applies(const sim::SchedulerContext& context);

  /// std::nextafter(1 / speed, 0), a node's reciprocal: strictly below the
  /// real 1 / speed for any speed > 0 (fl(1 / speed) is within half an ulp
  /// of it; 0 when it underflows), so for work >= 0 and monotone rounding
  /// work * inv_lo(speed) <= fl(work / speed).
  [[nodiscard]] static double inv_lo(double speed) noexcept {
    return std::nextafter(1.0 / speed, 0.0);
  }

  /// Rebuild over `context`'s sites and its availability profiles: refill
  /// the start trees, and rebuild the static half (the speed order and the
  /// per-node data) only when the site speeds differ from the ones it was
  /// built from, in count or in any value's bits. Allocates only then or
  /// when the batch outgrows the trees. Requires applies(context) and
  /// scan::check_context(context).
  void build(const sim::SchedulerContext& context);

  /// The site admissible under `cutoff` with the least completion time
  /// for `job` on the profiles the tree was last built or updated from,
  /// lowest site index among ties; kInvalidSite when none is admissible.
  [[nodiscard]] sim::SiteId best_site(const sim::SchedulerContext& context,
                                      const security::RiskCutoff& cutoff,
                                      const sim::BatchJob& job) const;

  /// Re-read site `s`'s leaves from `avail[s]` after a reservation there.
  void update(const sim::SchedulerContext& context,
              const std::vector<sim::NodeAvailability>& avail, std::size_t s);

 private:
  /// Static per-node data, shared by every tree.
  struct Node {
    double inv_lo = 0.0;          ///< SiteTree::inv_lo of `fastest`'s speed
    std::uint32_t fastest = 0;    ///< site of the subtree's leftmost leaf
    std::uint32_t min_index = 0;  ///< smallest site index in the subtree
  };
  struct Search;

  /// True when `sites` has exactly the speeds the static half was built
  /// from, bit for bit.
  [[nodiscard]] bool speeds_match(
      const std::vector<sim::SiteConfig>& sites) const noexcept;
  /// Build the static half (speeds_, leaves_, order_, leaf_of_site_,
  /// nodes_) from `sites`' speeds.
  void build_order(const std::vector<sim::SiteConfig>& sites);

  /// Site speeds the static half was built from (its rebuild key).
  std::vector<double> speeds_;
  /// Leaves in the heap layout (a power of two >= the site count); node i
  /// has children 2i and 2i+1, the root is node 1, leaf p is node leaves_+p.
  std::size_t leaves_ = 0;
  /// Sites in leaf order.
  std::vector<std::uint32_t> order_;
  /// Heap node of each site's leaf.
  std::vector<std::size_t> leaf_of_site_;
  std::vector<Node> nodes_;
  /// Node count each tree serves, and each node count's tree (kNoTree when
  /// the batch never asks for it or no site has that many nodes).
  std::vector<unsigned> tree_nodes_;
  std::vector<std::uint32_t> tree_of_;
  /// Earliest start per tree and heap node: tree t's node i lives at
  /// t * 2 * leaves_ + i; an inner node holds its children's minimum.
  std::vector<double> start_;
};

}  // namespace gridsched::sched
