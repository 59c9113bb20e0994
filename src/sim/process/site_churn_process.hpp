// Site-churn process: sites alternate between up and down. kSiteDown masks
// the victim out of every subsequent SchedulerContext, revokes its active
// reservations through the stored Attempt::window (same
// release-by-stored-window accounting as failure releases) and re-queues
// the interrupted jobs — which keep their secure_only flag, so a
// previously failed job still retries safely. The paired kSiteUp restores
// the site to the mask.
//
// Timelines are either drawn online — per-site exponential up/down
// alternation with MTBF/MTTR means, each site on its own
// SeedMix(seed).mix("site-churn").mix(site) RNG stream so draws are
// independent of every other stochastic component — or supplied as an
// explicit outage script (tests, trace-driven what-ifs).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/site.hpp"
#include "util/rng.hpp"

namespace gridsched::sim {

class SimKernel;

class SiteChurnProcess {
 public:
  SiteChurnProcess() = default;

  /// `churn` over a grid of `n_sites` sites. Stochastic mode: entry s
  /// drives site s (entries beyond the site count are ignored; sites
  /// without an entry, or with mtbf/mttr <= 0, never churn) on streams
  /// seeded from `seed` (EngineConfig::seed). Scripted mode: exactly the
  /// given outages, in the given order; throws std::invalid_argument on a
  /// non-positive-length outage, overlapping outages of one site, or a
  /// site outside the grid.
  SiteChurnProcess(SiteChurn churn, std::uint64_t seed, std::size_t n_sites);

  /// Queue the initial events (none when no site churns).
  void start(SimKernel& kernel);
  /// A kSiteDown or kSiteUp.
  void handle(SimKernel& kernel, const Event& event);

 private:
  void push_site_event(SimKernel& kernel, EventKind kind, SiteId site,
                       Time time);
  /// Mask the site and revoke every active attempt on it.
  void take_site_down(SimKernel& kernel, SiteId site, Time now);

  std::vector<SiteChurnParams> params_;
  std::uint64_t seed_ = 0;
  std::vector<util::Rng> streams_;  ///< per site, stochastic mode only
  std::vector<SiteOutage> script_;
  bool scripted_ = false;
  /// Persistent victim scratch (rebuilt per outage; capacity tracks the
  /// slot table so site-down handling stays heap-free in the steady-state
  /// loop).
  std::vector<JobId> victims_;
};

}  // namespace gridsched::sim
