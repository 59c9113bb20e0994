#include "workload/synth/synth.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace gridsched::workload::synth {

namespace {

// Independent child-stream indices, so adding draws to one component never
// perturbs the others (stability of the (config, seed) contract).
enum StreamIndex : std::uint64_t {
  kEtcStream = 0x51,
  kArrivalStream,
  kSecurityStream,
  kSizeStream,
  kDemandStream,
  kChurnStream,
};

std::vector<sim::SiteConfig> build_sites(const SynthConfig& config,
                                         const std::vector<double>& speeds) {
  std::vector<sim::SiteConfig> sites(config.n_sites);
  for (std::size_t s = 0; s < sites.size(); ++s) {
    sites[s].id = static_cast<sim::SiteId>(s);
    sites[s].nodes =
        config.site_node_pattern[s % config.site_node_pattern.size()];
    if (sites[s].nodes == 0) {
      throw std::invalid_argument("synth_workload: zero-node site");
    }
    sites[s].speed = speeds[s];
  }
  return sites;
}

}  // namespace

unsigned draw_nodes(const std::vector<double>& size_weights,
                    double weight_total, unsigned max_nodes, util::Rng& rng) {
  double pick = rng.uniform() * weight_total;
  unsigned nodes = 1;
  for (const double weight : size_weights) {
    pick -= weight;
    if (pick < 0.0) break;
    nodes *= 2;
  }
  return std::min(nodes, max_nodes);
}

Workload synth_workload(const SynthConfig& config, std::uint64_t seed) {
  if (config.n_jobs == 0) {
    throw std::invalid_argument("synth_workload: n_jobs == 0");
  }
  if (config.n_sites == 0) {
    throw std::invalid_argument("synth_workload: n_sites == 0");
  }
  if (config.site_node_pattern.empty()) {
    throw std::invalid_argument("synth_workload: empty site_node_pattern");
  }
  const double weight_total = std::accumulate(
      config.size_weights.begin(), config.size_weights.end(), 0.0);
  if (config.size_weights.empty() || weight_total <= 0.0) {
    throw std::invalid_argument("synth_workload: bad size_weights");
  }

  // 1. ETC matrix in the requested class. The raw matrix is what the
  // simulator executes (moved below into the workload's ExecModel); the
  // rank-1 work/speed fit only derives the site speed / job work fields.
  util::Rng etc_rng = util::Rng::child(seed, kEtcStream);
  EtcMatrixData etc =
      generate_etc(config.n_jobs, config.n_sites, config.etc, etc_rng);
  WorkSpeedFit fit = fit_work_speed(etc);

  // Calibrate: mean exec on a geometric-mean-speed site (speed 1 by the
  // fit's gauge) becomes `mean_exec_seconds`. The ETC cells are scaled by
  // the same factor so the workload stays self-consistent
  // (etc ~ work / speed with an unchanged log residual).
  if (config.mean_exec_seconds > 0.0) {
    const double mean_work =
        std::accumulate(fit.work.begin(), fit.work.end(), 0.0) /
        static_cast<double>(fit.work.size());
    const double scale = config.mean_exec_seconds / mean_work;
    for (double& w : fit.work) w *= scale;
    for (double& cell : etc.cells) cell *= scale;
  }

  // 2. Sites: node pattern + fitted speeds + trust levels.
  Workload workload;
  workload.name = config.name;
  workload.sites = build_sites(config, fit.speed);
  const unsigned max_site_nodes =
      std::max_element(workload.sites.begin(), workload.sites.end(),
                       [](const auto& a, const auto& b) {
                         return a.nodes < b.nodes;
                       })
          ->nodes;
  util::Rng security_rng = util::Rng::child(seed, kSecurityStream);
  assign_trust(workload.sites, config.security, max_site_nodes, security_rng);

  // 3. Jobs: fitted work, arrival process, node requests, demands.
  util::Rng arrival_rng = util::Rng::child(seed, kArrivalStream);
  const std::vector<sim::Time> arrivals =
      arrival_times(config.n_jobs, config.arrival, arrival_rng);

  util::Rng size_rng = util::Rng::child(seed, kSizeStream);
  util::Rng demand_rng = util::Rng::child(seed, kDemandStream);
  workload.jobs.resize(config.n_jobs);
  for (std::size_t j = 0; j < config.n_jobs; ++j) {
    sim::Job& job = workload.jobs[j];
    job.id = static_cast<sim::JobId>(j);
    job.arrival = arrivals[j];
    job.work = fit.work[j];
    job.nodes = draw_nodes(config.size_weights, weight_total, max_site_nodes,
                           size_rng);
    job.demand = draw_demand(config.security, demand_rng);
  }

  // 4. Attach the raw ETC as the workload's execution model: inconsistent
  // and semi-consistent classes run exactly as generated instead of
  // through the rank-1 projection.
  workload.exec =
      sim::ExecModel(config.n_jobs, config.n_sites, std::move(etc.cells));

  // 5. Optional site churn: per-site MTBF/MTTR parameters on their own
  // stream (enabling churn never perturbs the ETC/arrival/security draws).
  util::Rng churn_rng = util::Rng::child(seed, kChurnStream);
  workload.churn = churn_params(config.n_sites, config.churn, churn_rng);
  return workload;
}

}  // namespace gridsched::workload::synth
