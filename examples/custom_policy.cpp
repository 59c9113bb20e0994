// Extending the library: plug a user-defined scheduling policy into the
// simulation engine, and derive site security levels from observable
// attributes with the composite trust index.
//
// The custom policy below is a security-aware variant of MCT that scores
// each candidate site by its *expected* completion time, expecting a
// fail-stop restart with probability P(fail) (Eq. 1) -- a middle ground
// between the paper's f-risky cutoff and the fully risky mode.
//
//   ./custom_policy [--jobs=300] [--seed=11]
#include <cstdio>

#include "gridsched.hpp"

using namespace gridsched;

namespace {

/// Expected-completion MCT: completion + P(fail) * exec as the score.
class ExpectedCompletionScheduler final : public sim::BatchScheduler {
 public:
  explicit ExpectedCompletionScheduler(double lambda) : lambda_(lambda) {}

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
        const double p_fail =
            security::failure_probability(job.demand, site.security, lambda_);
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

 private:
  double lambda_;
};

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto n_jobs =
      static_cast<std::size_t>(cli.get_or("jobs", std::int64_t{300}));
  const auto seed =
      static_cast<std::uint64_t>(cli.get_or("seed", std::int64_t{11}));

  // Derive site security levels from observable attributes instead of
  // drawing them uniformly: the trust-index extension of the paper's
  // Section 1 discussion.
  util::Rng rng(seed);
  workload::Workload workload =
      workload::psa_workload(workload::PsaConfig{.n_jobs = n_jobs}, seed);
  for (auto& site : workload.sites) {
    security::SiteSecurityAttributes attrs;
    attrs.defense_capability = rng.uniform(0.2, 1.0);
    attrs.prior_success_rate = rng.uniform(0.5, 1.0);
    attrs.authentication_strength = rng.uniform(0.3, 1.0);
    attrs.isolation_quality = rng.uniform(0.3, 1.0);
    // Map the [0,1] index onto the paper's SL range.
    site.security = security::kSiteSecurityLo +
                    (security::kSiteSecurityHi - security::kSiteSecurityLo) *
                        security::trust_index(attrs);
  }
  util::Rng guard_rng = util::SeedMix(seed).mix("safe-home").rng();
  workload::ensure_safe_home(workload.sites, 1, security::kJobDemandHi,
                             guard_rng);

  sim::EngineConfig engine_config;
  engine_config.batch_interval = 2000.0;
  engine_config.seed = seed;

  util::Table table({"scheduler", "makespan (s)", "response (s)", "N_fail"});
  // Baselines from the registry...
  for (const std::string name : {"mct", "min-min"}) {
    sim::Engine engine(workload.sites, workload.jobs, engine_config,
                       workload.exec);
    auto scheduler =
        sched::make_heuristic(name, security::RiskPolicy::f_risky(0.5));
    engine.run(*scheduler);
    const auto run = metrics::compute_metrics(engine);
    table.row().cell(scheduler->name()).cell(run.makespan, 0)
        .cell(run.avg_response, 0).cell(run.n_fail);
  }
  // ...versus the custom policy.
  {
    sim::Engine engine(workload.sites, workload.jobs, engine_config,
                       workload.exec);
    ExpectedCompletionScheduler scheduler(engine_config.lambda);
    engine.run(scheduler);
    const auto run = metrics::compute_metrics(engine);
    table.row().cell(scheduler.name()).cell(run.makespan, 0)
        .cell(run.avg_response, 0).cell(run.n_fail);
  }
  std::printf("%s", table.str().c_str());
  return 0;
}
