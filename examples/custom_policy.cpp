// Extending the library: plug a user-defined scheduling policy into the
// simulation engine.
//
// The custom policy below is a security-aware variant of MCT that scores
// each candidate site by its *expected* completion time, expecting a
// fail-stop restart with probability P(fail) (Eq. 1, at the run's lambda
// from the scheduler context) -- a middle ground between the paper's
// f-risky cutoff and the fully risky mode.
//
//   ./custom_policy [--jobs=300] [--seed=11]
#include <cstdio>

#include "gridsched.hpp"

using namespace gridsched;

namespace {

/// Expected-completion MCT: completion + P(fail) * exec as the score.
class ExpectedCompletionScheduler final : public sim::BatchScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "Expected-MCT"; }

  void schedule_into(const sim::SchedulerContext& context,
                     std::vector<sim::Assignment>& out) override {
    std::vector<sim::NodeAvailability> avail = context.avail;
    out.clear();
    for (std::size_t j = 0; j < context.jobs.size(); ++j) {
      const sim::BatchJob& job = context.jobs[j];
      sim::SiteId best_site = sim::kInvalidSite;
      double best_score = 0.0;
      for (std::size_t s = 0; s < context.sites.size(); ++s) {
        const sim::SiteConfig& site = context.sites[s];
        if (job.nodes > site.nodes) continue;
        // The fail-stop rule still applies to retries.
        if (job.secure_only &&
            !security::is_safe(job.demand, site.security)) {
          continue;
        }
        // Resolve through the context's execution model so the policy
        // stays exact on raw-ETC workloads.
        const double exec = context.exec_time(job, s);
        const double completion =
            avail[s].preview(job.nodes, exec, context.now).end;
        const double p_fail = security::failure_probability(
            job.demand, site.security, context.lambda);
        const double score = completion + p_fail * exec;
        if (best_site == sim::kInvalidSite || score < best_score) {
          best_score = score;
          best_site = static_cast<sim::SiteId>(s);
        }
      }
      if (best_site == sim::kInvalidSite) continue;
      avail[best_site].reserve(job.nodes, context.exec_time(job, best_site),
                               context.now);
      out.push_back({j, best_site});
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto n_jobs =
      static_cast<std::size_t>(cli.get_or("jobs", std::int64_t{300}));
  const auto seed =
      static_cast<std::uint64_t>(cli.get_or("seed", std::int64_t{11}));

  const workload::Workload workload =
      workload::psa_workload(workload::PsaConfig{.n_jobs = n_jobs}, seed);

  sim::EngineConfig engine_config;
  engine_config.batch_interval = 2000.0;
  engine_config.seed = seed;

  util::Table table({"scheduler", "makespan (s)", "response (s)", "N_fail"});
  // Baselines from the registry...
  for (const std::string name : {"mct", "min-min"}) {
    sim::SimKernel kernel(workload.sites,
                          std::make_unique<workload::MaterializedStream>(
                              workload.jobs, workload.exec),
                          engine_config);
    auto scheduler =
        sched::make_heuristic(name, security::RiskPolicy::f_risky(0.5));
    kernel.run(*scheduler);
    const auto run = metrics::compute_metrics(kernel);
    table.row().cell(scheduler->name()).cell(run.makespan, 0)
        .cell(run.avg_response, 0).cell(run.n_fail);
  }
  // ...versus the custom policy.
  {
    sim::SimKernel kernel(workload.sites,
                          std::make_unique<workload::MaterializedStream>(
                              workload.jobs, workload.exec),
                          engine_config);
    ExpectedCompletionScheduler scheduler;
    kernel.run(scheduler);
    const auto run = metrics::compute_metrics(kernel);
    table.row().cell(scheduler.name()).cell(run.makespan, 0)
        .cell(run.avg_response, 0).cell(run.n_fail);
  }
  std::printf("%s", table.str().c_str());
  return 0;
}
