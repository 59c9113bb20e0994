#include "workload/synth/stream_gen.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"
#include "workload/synth/synth.hpp"

namespace gridsched::workload::synth {

namespace {

// Child-stream indices, disjoint from synth.cpp's 0x51.. block so a
// streaming scenario and a materialised one with the same seed never
// correlate by accident.
enum StreamIndex : std::uint64_t {
  kSpeedStream = 0x57a0,
  kSecurityStream,
  kArrivalStream,
  kSizeStream,
  kDemandStream,
  kWorkStream,
  kChurnStream,
};

class SynthJobStream final : public JobStream {
 public:
  SynthJobStream(const SynthStreamConfig& config, double weight_total,
                 unsigned max_site_nodes, std::uint64_t seed)
      : n_jobs_(config.n_jobs),
        size_weights_(config.size_weights),
        weight_total_(weight_total),
        max_site_nodes_(max_site_nodes),
        rate_(config.arrival.rate),
        mean_exec_(config.mean_exec_seconds),
        security_(config.security),
        arrival_rng_(util::Rng::child(seed, kArrivalStream)),
        size_rng_(util::Rng::child(seed, kSizeStream)),
        demand_rng_(util::Rng::child(seed, kDemandStream)),
        work_rng_(util::Rng::child(seed, kWorkStream)) {}

  [[nodiscard]] std::size_t size() const noexcept override { return n_jobs_; }

  bool next(sim::Job& job) override {
    if (emitted_ == n_jobs_) return false;
    clock_ += arrival_rng_.exponential(rate_);
    job = sim::Job{};
    job.arrival = clock_;
    job.work = mean_exec_ * work_rng_.uniform(0.5, 1.5);
    job.nodes =
        draw_nodes(size_weights_, weight_total_, max_site_nodes_, size_rng_);
    job.demand = draw_demand(security_, demand_rng_);
    ++emitted_;
    return true;
  }

 private:
  std::size_t n_jobs_;
  std::size_t emitted_ = 0;
  std::vector<double> size_weights_;
  double weight_total_;
  unsigned max_site_nodes_;
  double rate_;
  double mean_exec_;
  SecurityProfile security_;
  sim::Time clock_ = 0.0;  ///< incremental Poisson arrival clock
  util::Rng arrival_rng_;
  util::Rng size_rng_;
  util::Rng demand_rng_;
  util::Rng work_rng_;
};

}  // namespace

StreamWorkload stream_workload(const SynthStreamConfig& config,
                               std::uint64_t seed) {
  if (config.n_jobs == 0) {
    throw std::invalid_argument("stream_workload: n_jobs == 0");
  }
  if (config.n_sites == 0) {
    throw std::invalid_argument("stream_workload: n_sites == 0");
  }
  if (config.site_node_pattern.empty()) {
    throw std::invalid_argument("stream_workload: empty site_node_pattern");
  }
  const double weight_total =
      size_weight_total(config.size_weights, "stream_workload");
  if (config.arrival.process != ArrivalProcess::kPoisson) {
    throw std::invalid_argument(
        "stream_workload: streaming workloads require a Poisson arrival "
        "process (sorted times without buffering)");
  }
  if (config.arrival.rate <= 0.0) {
    throw std::invalid_argument("stream_workload: arrival rate must be > 0");
  }
  if (config.speed_lo <= 0.0 || config.speed_hi < config.speed_lo) {
    throw std::invalid_argument(
        "stream_workload: need 0 < speed_lo <= speed_hi");
  }
  if (config.mean_exec_seconds <= 0.0) {
    throw std::invalid_argument(
        "stream_workload: mean_exec_seconds must be > 0");
  }
  validate(config.security, "stream_workload");

  StreamWorkload workload;
  workload.name = config.name;

  util::Rng speed_rng = util::Rng::child(seed, kSpeedStream);
  workload.sites.resize(config.n_sites);
  for (std::size_t s = 0; s < config.n_sites; ++s) {
    sim::SiteConfig& site = workload.sites[s];
    site.id = static_cast<sim::SiteId>(s);
    site.nodes = config.site_node_pattern[s % config.site_node_pattern.size()];
    if (site.nodes == 0) {
      throw std::invalid_argument("stream_workload: zero-node site");
    }
    site.speed = speed_rng.uniform(config.speed_lo, config.speed_hi);
  }
  const unsigned max_site_nodes =
      std::max_element(workload.sites.begin(), workload.sites.end(),
                       [](const auto& a, const auto& b) {
                         return a.nodes < b.nodes;
                       })
          ->nodes;
  util::Rng security_rng = util::Rng::child(seed, kSecurityStream);
  assign_trust(workload.sites, config.security, max_site_nodes, security_rng);

  util::Rng churn_rng = util::Rng::child(seed, kChurnStream);
  workload.churn = churn_params(config.n_sites, config.churn, churn_rng);

  workload.jobs =
      std::make_unique<SynthJobStream>(config, weight_total, max_site_nodes,
                                       seed);
  return workload;
}

Workload materialize_stream(StreamWorkload&& stream) {
  Workload workload;
  workload.name = std::move(stream.name);
  workload.sites = std::move(stream.sites);
  workload.churn = std::move(stream.churn);
  JobStream& jobs = *stream.jobs;
  const std::size_t row_sites = jobs.row_sites();
  workload.jobs.reserve(jobs.size());
  std::vector<double> cells;
  cells.reserve(jobs.size() * row_sites);
  sim::Job job;
  while (jobs.next(job)) {
    job.id = static_cast<sim::JobId>(workload.jobs.size());
    workload.jobs.push_back(job);
    const std::span<const double> row = jobs.row();
    cells.insert(cells.end(), row.begin(), row.end());
  }
  if (row_sites > 0) {
    workload.exec =
        sim::ExecModel(workload.jobs.size(), row_sites, std::move(cells));
  }
  return workload;
}

}  // namespace gridsched::workload::synth
