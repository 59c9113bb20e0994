#include "workload/nas.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "security/security.hpp"
#include "workload/sites.hpp"

namespace gridsched::workload {

namespace {
constexpr double kDay = 86400.0;
constexpr double kWeek = 7.0 * kDay;

unsigned draw_size(util::Rng& rng, const std::vector<double>& weights) {
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  double ticket = rng.uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    ticket -= weights[i];
    if (ticket <= 0.0) return 1u << i;
  }
  return 1u << (weights.size() - 1);
}
}  // namespace

double nas_arrival_intensity(double t, const NasTraceConfig& config) noexcept {
  // Peak in the working afternoon; trough at night. Phase picked so the
  // maximum lands near 15:00.
  const double day_phase = t / kDay;
  const double diurnal =
      1.0 + config.diurnal_amplitude *
                std::sin(2.0 * M_PI * (day_phase - 0.375));
  const double week_phase = std::fmod(t, kWeek) / kDay;  // 0..7
  const bool weekend = week_phase >= 5.0;
  return diurnal * (weekend ? config.weekend_factor : 1.0);
}

std::vector<sim::Job> nas_jobs(const NasTraceConfig& config,
                               const std::vector<sim::SiteConfig>& sites,
                               std::uint64_t seed) {
  if (config.n_jobs == 0) throw std::invalid_argument("nas_jobs: n_jobs == 0");
  if (config.size_weights.empty() || config.size_weights.size() > 8) {
    throw std::invalid_argument("nas_jobs: bad size_weights");
  }
  (void)size_weight_total(config.size_weights, "nas_jobs");
  util::Rng rng(seed);

  const unsigned max_site_nodes =
      std::max_element(sites.begin(), sites.end(),
                       [](const auto& a,
                          const auto& b) { return a.nodes < b.nodes; })
          ->nodes;

  // Arrival times by rejection sampling against the intensity envelope.
  const double peak = (1.0 + config.diurnal_amplitude);
  std::vector<double> arrivals;
  arrivals.reserve(config.n_jobs);
  while (arrivals.size() < config.n_jobs) {
    const double t = rng.uniform(0.0, config.horizon);
    if (rng.uniform(0.0, peak) <= nas_arrival_intensity(t, config)) {
      arrivals.push_back(t);
    }
  }
  std::sort(arrivals.begin(), arrivals.end());

  std::vector<sim::Job> jobs(config.n_jobs);
  for (std::size_t i = 0; i < config.n_jobs; ++i) {
    sim::Job& job = jobs[i];
    job.arrival = arrivals[i];
    unsigned nodes = draw_size(rng, config.size_weights);
    nodes = std::min(nodes, max_site_nodes);
    job.nodes = nodes;
    const bool is_short = rng.bernoulli(config.short_fraction);
    const double runtime =
        is_short ? rng.lognormal(config.short_log_mean, config.short_log_sigma)
                 : rng.lognormal(config.long_log_mean, config.long_log_sigma);
    job.work = std::clamp(runtime, config.min_runtime, config.max_runtime);
    job.demand =
        rng.uniform(security::kJobDemandLo, security::kJobDemandHi);
  }

  if (config.target_load > 0.0) {
    double capacity = 0.0;  // node-speed-seconds available over the horizon
    for (const auto& site : sites) {
      capacity += static_cast<double>(site.nodes) * site.speed * config.horizon;
    }
    double offered = 0.0;
    for (const auto& job : jobs) {
      offered += job.work * static_cast<double>(job.nodes);
    }
    const double scale = config.target_load * capacity / offered;
    for (auto& job : jobs) {
      job.work = std::clamp(job.work * scale, config.min_runtime,
                            config.max_runtime);
    }
  }
  return jobs;
}

Workload nas_workload(const NasTraceConfig& config, std::uint64_t seed) {
  Workload workload;
  workload.name = "NAS";
  util::Rng site_rng = util::Rng::child(seed, 0xA51);
  workload.sites = nas_sites(site_rng);
  workload.jobs = nas_jobs(config, workload.sites, seed);
  return workload;
}

}  // namespace gridsched::workload
