#include "sim/process/site_churn_process.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/kernel.hpp"

namespace gridsched::sim {

SiteChurnProcess::SiteChurnProcess(SiteChurn churn, std::uint64_t seed,
                                   std::size_t n_sites)
    : seed_(seed) {
  if (auto* params = std::get_if<std::vector<SiteChurnParams>>(&churn)) {
    params_ = std::move(*params);
    if (params_.size() > n_sites) params_.resize(n_sites);
    return;
  }
  script_ = std::get<std::vector<SiteOutage>>(std::move(churn));
  scripted_ = true;
  for (const SiteOutage& outage : script_) {
    if (!(outage.up > outage.down) || outage.down < 0.0) {
      throw std::invalid_argument(
          "SiteChurnProcess: outage must satisfy 0 <= down < up");
    }
    // The mask and the live-attempt index are sized to the grid.
    if (outage.site >= n_sites) {
      throw std::invalid_argument(
          "SiteChurnProcess: outage names site " +
          std::to_string(outage.site) + " but the grid has " +
          std::to_string(n_sites) + " site(s)");
    }
  }
  // The availability mask is a boolean, so overlapping outages for one
  // site would let the first kSiteUp re-enable a site a second outage
  // still holds down. Reject them instead of mis-simulating.
  std::vector<SiteOutage> sorted = script_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const SiteOutage& a, const SiteOutage& b) {
                     if (a.site != b.site) return a.site < b.site;
                     return a.down < b.down;
                   });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i].site == sorted[i - 1].site &&
        sorted[i].down < sorted[i - 1].up) {
      throw std::invalid_argument(
          "SiteChurnProcess: overlapping outages for one site");
    }
  }
}

void SiteChurnProcess::push_site_event(SimKernel& kernel, EventKind kind,
                                       SiteId site, Time time) {
  Event event;
  event.time = time;
  event.kind = kind;
  event.site = site;
  kernel.push_event(event);
}

void SiteChurnProcess::start(SimKernel& kernel) {
  if (scripted_) {
    // Script order fixes the FIFO tie-break among same-time churn events.
    for (const SiteOutage& outage : script_) {
      push_site_event(kernel, EventKind::kSiteDown, outage.site, outage.down);
      push_site_event(kernel, EventKind::kSiteUp, outage.site, outage.up);
    }
    return;
  }
  streams_.clear();
  streams_.reserve(params_.size());
  for (std::size_t s = 0; s < params_.size(); ++s) {
    // Independent per-site streams: adding draws to one site's timeline
    // never perturbs another's, and nothing here shares state with the
    // failure process's per-(job, attempt) hash draws.
    streams_.push_back(util::SeedMix(seed_)
                           .mix("site-churn")
                           .mix(static_cast<std::uint64_t>(s))
                           .rng());
    if (params_[s].churns()) {
      push_site_event(kernel, EventKind::kSiteDown, static_cast<SiteId>(s),
                      streams_[s].exponential(1.0 / params_[s].mtbf));
    }
  }
}

void SiteChurnProcess::take_site_down(SimKernel& kernel, SiteId site_id,
                                      Time now) {
  kernel.set_site_up(site_id, false);

  // Victim attempts, latest stored window end first: a node's free time
  // equals the *last* reservation stacked onto it, so releasing in
  // descending end order reclaims every tail that is reclaimable at all.
  // Victims come from the kernel's per-site live index (O(victims), not
  // O(slots)) and are copied out as job ids because revoking mutates the
  // index. The sort key (end descending, id ascending) is a strict total
  // order, so the index's internal order never shows.
  victims_.clear();
  // Victims hold distinct slots: sizing the buffer to the slot table
  // means it grows only when the table does, never on a late outage that
  // merely hits more attempts than any earlier one.
  victims_.reserve(kernel.jobs().size());
  for (const std::uint32_t slot : kernel.live_attempts(site_id)) {
    victims_.push_back(kernel.jobs()[slot].id);
  }
  std::sort(victims_.begin(), victims_.end(), [&](JobId a, JobId b) {
    const Time end_a = kernel.attempt(a).window.end;
    const Time end_b = kernel.attempt(b).window.end;
    if (end_a != end_b) return end_a > end_b;
    return a < b;  // deterministic tie-break
  });

  for (const JobId job_id : victims_) {
    Job& job = kernel.job(job_id);
    ++job.interruptions;
    ++kernel.counters().interrupted_attempts;
    // Reclaim through the stored window — the same revocation primitive
    // failure releases use. An unreclaimable node here means an earlier
    // revoked reservation was stacked behind a later one we already
    // reset; the capacity is free either way, but the shortfall is
    // surfaced instead of silently ignored. The interrupted job re-enters
    // the batch queue with its flags intact: a secure_only retry stays
    // secure_only.
    const unsigned released = kernel.revoke_attempt(job_id, now);
    kernel.counters().churn_released_nodes += released;
    kernel.counters().churn_unreleased_nodes += job.nodes - released;
  }
  if (!victims_.empty()) kernel.request_cycle(now);
}

void SiteChurnProcess::handle(SimKernel& kernel, const Event& event) {
  const auto site = static_cast<std::size_t>(event.site);
  if (event.kind == EventKind::kSiteDown) {
    take_site_down(kernel, event.site, event.time);
    if (!scripted_) {
      push_site_event(kernel, EventKind::kSiteUp, event.site,
                      event.time +
                          streams_[site].exponential(1.0 / params_[site].mttr));
    }
    return;
  }
  kernel.set_site_up(event.site, true);
  if (!scripted_) {
    push_site_event(kernel, EventKind::kSiteDown, event.site,
                    event.time +
                        streams_[site].exponential(1.0 / params_[site].mtbf));
  }
}

}  // namespace gridsched::sim
