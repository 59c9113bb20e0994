#include "exp/runner.hpp"

#include "core/ga_scheduler.hpp"
#include "sched/heuristics.hpp"

namespace gridsched::exp {

namespace {

/// Paper bootstrap (README "Model parameters"): schedule training jobs with
/// Min-Min and Sufferage (half each), recording every batch solution into
/// the STGA's history table.
void train_stga(const Scenario& scenario, const workload::Workload& main,
                core::GaScheduler& stga, std::uint64_t seed,
                const util::CancelToken* cancel) {
  const std::size_t total = scenario.training_jobs;
  if (total == 0) return;
  const std::size_t half = total / 2;

  struct Phase {
    std::size_t jobs;
    bool use_sufferage;
    std::uint64_t salt;
  };
  const Phase phases[] = {{total - half, false, 0xB001}, {half, true, 0xB002}};
  for (const Phase& phase : phases) {
    if (phase.jobs == 0) continue;
    const std::uint64_t phase_seed =
        util::Rng::child(seed, phase.salt).next_u64();
    workload::Workload training =
        make_training_workload(scenario, main, phase.jobs, phase_seed);
    std::unique_ptr<sched::HeuristicScheduler> heuristic;
    if (phase.use_sufferage) {
      heuristic = std::make_unique<sched::SufferageScheduler>(
          security::RiskPolicy::risky());
    } else {
      heuristic = std::make_unique<sched::MinMinScheduler>(
          security::RiskPolicy::risky());
    }
    core::RecordingScheduler recorder(*heuristic, stga);
    sim::EngineConfig engine_config = scenario.engine;
    engine_config.seed = phase_seed;
    engine_config.cancel = cancel;  // the watchdog covers training too
    sim::SimKernel kernel(std::move(training.sites),
                          std::make_unique<workload::MaterializedStream>(
                              std::move(training.jobs),
                              std::move(training.exec)),
                          engine_config);
    kernel.run(recorder);
  }
}

}  // namespace

metrics::RunMetrics run_once(const Scenario& scenario,
                             const AlgorithmSpec& spec,
                             std::uint64_t seed, util::ThreadPool*,
                             const RunHooks& hooks) {
  const std::uint64_t workload_seed = util::Rng::child(seed, 1).next_u64();
  const std::uint64_t engine_seed = util::Rng::child(seed, 2).next_u64();
  const std::uint64_t algo_seed = util::Rng::child(seed, 3).next_u64();

  // A synth scenario hands the kernel its generator cursor, so the run
  // never builds or holds the job vector. nas and psa are materialized
  // here and wrapped in a MaterializedStream below, and so is a kSynth run
  // whose algorithm trains: make_training_workload resamples the main
  // workload's ETC rows and their `work`.
  const bool streamed =
      scenario.kind == ScenarioKind::kSynthStream ||
      (scenario.kind == ScenarioKind::kSynth && !spec.wants_training);
  workload::synth::StreamWorkload run;
  workload::Workload workload;
  if (streamed) {
    run = make_stream_workload(scenario, workload_seed);
  } else {
    workload = make_workload(scenario, workload_seed);
  }
  std::unique_ptr<sim::BatchScheduler> scheduler = spec.make(algo_seed);
  auto* ga = dynamic_cast<core::GaScheduler*>(scheduler.get());

  // Cancellation attaches before training: a timed-out cell must not
  // spend its whole budget in the bootstrap phase.
  if (ga != nullptr && hooks.cancel != nullptr) {
    ga->set_cancel_token(hooks.cancel);
  }

  if (ga != nullptr && spec.wants_training) {
    if (streamed) {
      // Training drains a small reduced copy of the stream (hundreds of
      // jobs), so the bootstrap stays O(training) while the measured run
      // streams. Only the grid is borrowed from the main workload.
      workload.name = run.name;
      workload.sites = run.sites;
    }
    train_stga(scenario, workload, *ga, seed, hooks.cancel);
  }

  // GA profiling attaches after training so the sink sees only the
  // measured run's scheduler invocations.
  if (ga != nullptr && hooks.ga_profiles != nullptr) {
    ga->set_profile_sink(hooks.ga_profiles);
  }

  // Either way the kernel's ETC rows come from the stream: the cursor
  // generates them, a materialized workload yields its matrix rows (nas
  // and psa have none).
  if (!streamed) {
    run.sites = std::move(workload.sites);
    run.jobs = std::make_unique<workload::MaterializedStream>(
        std::move(workload.jobs), std::move(workload.exec));
    run.churn = std::move(workload.churn);
  }
  sim::EngineConfig engine_config = scenario.engine;
  engine_config.seed = engine_seed;
  engine_config.cancel = hooks.cancel;
  sim::SimKernel kernel(std::move(run.sites), std::move(run.jobs),
                        engine_config, std::move(run.churn));
  kernel.set_observer(hooks.observer);
  kernel.run(*scheduler);
  return metrics::compute_metrics(kernel);
}

}  // namespace gridsched::exp
