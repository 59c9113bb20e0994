#include "workload/synth/synth.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
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

/// The jobs of one synth workload, yielded in arrival order: the arrival
/// cursor's next time, the fitted (calibrated) work of the job at this
/// stream position, a node request and demand from their own child
/// streams, and the job's raw ETC row, regenerated from a fresh cursor on
/// the matrix's child stream and scaled by the calibration factor.
class SynthJobStream final : public JobStream {
 public:
  SynthJobStream(const SynthConfig& config, std::vector<double> work,
                 double scale, double weight_total, unsigned max_site_nodes,
                 std::uint64_t seed)
      : work_(std::move(work)),
        arrivals_(work_.size(), config.arrival,
                  util::Rng::child(seed, kArrivalStream)),
        size_weights_(config.size_weights),
        weight_total_(weight_total),
        max_site_nodes_(max_site_nodes),
        security_(config.security),
        size_rng_(util::Rng::child(seed, kSizeStream)),
        demand_rng_(util::Rng::child(seed, kDemandStream)),
        etc_rows_(config.n_sites, config.etc,
                  util::Rng::child(seed, kEtcStream)),
        scale_(scale),
        row_(config.n_sites) {}

  [[nodiscard]] std::size_t size() const noexcept override {
    return work_.size();
  }

  bool next(sim::Job& job) override {
    if (emitted_ == work_.size()) return false;
    job = sim::Job{};
    job.arrival = arrivals_.next();
    job.work = work_[emitted_];
    job.nodes =
        draw_nodes(size_weights_, weight_total_, max_site_nodes_, size_rng_);
    job.demand = draw_demand(security_, demand_rng_);
    etc_rows_.next(row_.data());
    // The sim::ExecModel cell rule (finite and > 0), checked as each row
    // is emitted; the comparisons are false for NaN, and the branch-free
    // fold keeps the loop vectorizable.
    bool cells_ok = true;
    for (double& cell : row_) {
      cell *= scale_;
      cells_ok &= (cell > 0.0) & (cell <= std::numeric_limits<double>::max());
    }
    if (!cells_ok) {
      throw std::invalid_argument("synth_workload: ETC row " +
                                  std::to_string(emitted_) +
                                  " has a cell that is not finite and > 0");
    }
    ++emitted_;
    return true;
  }

  [[nodiscard]] std::size_t row_sites() const noexcept override {
    return row_.size();
  }

  [[nodiscard]] std::span<const double> row() const noexcept override {
    return row_;
  }

 private:
  std::vector<double> work_;
  std::size_t emitted_ = 0;
  ArrivalCursor arrivals_;
  std::vector<double> size_weights_;
  double weight_total_;
  unsigned max_site_nodes_;
  SecurityProfile security_;
  util::Rng size_rng_;
  util::Rng demand_rng_;
  EtcRowCursor etc_rows_;
  double scale_;
  std::vector<double> row_;  ///< the last emitted job's scaled row
};

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

StreamWorkload synth_stream(const SynthConfig& config, std::uint64_t seed) {
  if (config.n_jobs == 0) {
    throw std::invalid_argument("synth_workload: n_jobs == 0");
  }
  if (config.n_sites == 0) {
    throw std::invalid_argument("synth_workload: n_sites == 0");
  }
  if (config.site_node_pattern.empty()) {
    throw std::invalid_argument("synth_workload: empty site_node_pattern");
  }
  const double weight_total =
      size_weight_total(config.size_weights, "synth_workload");
  validate(config.security, "synth_workload");

  // 1. Fit the ETC matrix in the requested class without holding it: its
  // rows are generated one at a time into the rank-1 work/speed fit, which
  // derives the site speed / job work fields. The job cursor regenerates
  // each raw row (what the simulator executes) from a second cursor on
  // the same child stream as the kernel admits the job.
  std::vector<double> row(config.n_sites);
  EtcRowCursor etc_rows(config.n_sites, config.etc,
                        util::Rng::child(seed, kEtcStream));
  WorkSpeedFitter fitter(config.n_jobs, config.n_sites);
  for (std::size_t t = 0; t < config.n_jobs; ++t) {
    etc_rows.next(row.data());
    fitter.add_row(row.data());
  }
  WorkSpeedFit fit = fitter.finish();

  // Calibrate: mean exec on a geometric-mean-speed site (speed 1 by the
  // fit's gauge) becomes `mean_exec_seconds`. The cursor scales the ETC
  // cells by the same factor so the workload stays self-consistent
  // (etc ~ work / speed with an unchanged log residual).
  double scale = 1.0;
  if (config.mean_exec_seconds > 0.0) {
    const double mean_work =
        std::accumulate(fit.work.begin(), fit.work.end(), 0.0) /
        static_cast<double>(fit.work.size());
    scale = config.mean_exec_seconds / mean_work;
    for (double& w : fit.work) w *= scale;
  }

  // 2. Sites: node pattern + fitted speeds + trust levels.
  StreamWorkload workload;
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

  // 3. Jobs: a cursor over the fitted work that draws each job's arrival,
  // node request, demand and raw ETC row as it is pulled. The rows are
  // the execution model: inconsistent and semi-consistent classes run
  // exactly as generated instead of through the rank-1 projection.
  workload.jobs =
      std::make_unique<SynthJobStream>(config, std::move(fit.work), scale,
                                       weight_total, max_site_nodes, seed);

  // 4. Optional site churn: per-site MTBF/MTTR parameters on their own
  // stream (enabling churn never perturbs the ETC/arrival/security draws).
  util::Rng churn_rng = util::Rng::child(seed, kChurnStream);
  workload.churn = churn_params(config.n_sites, config.churn, churn_rng);
  return workload;
}

Workload synth_workload(const SynthConfig& config, std::uint64_t seed) {
  return materialize_stream(synth_stream(config, seed));
}

}  // namespace gridsched::workload::synth
