// Microbenchmark (google-benchmark): per-batch scheduling-decision latency
// of the heuristics and the GAs. Supports the paper's core claim that the
// STGA is fast enough for online use while a cold GA's budget is wasted
// rediscovering known structure.
#include <benchmark/benchmark.h>

#include "gridsched.hpp"

namespace {

using namespace gridsched;

sim::SchedulerContext make_batch(std::size_t n_jobs, std::size_t n_sites,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  sim::SchedulerContext context;
  context.now = 1000.0;
  for (std::size_t s = 0; s < n_sites; ++s) {
    const auto nodes = static_cast<unsigned>(1 + rng.index(16));
    context.sites.push_back({static_cast<sim::SiteId>(s), nodes,
                             rng.uniform(0.5, 4.0), rng.uniform(0.4, 1.0)});
    sim::NodeAvailability avail(nodes, 0.0);
    avail.reserve(1, rng.uniform(0.0, 2000.0), 0.0);  // some backlog
    context.avail.push_back(avail);
  }
  for (std::size_t j = 0; j < n_jobs; ++j) {
    sim::BatchJob job;
    job.id = static_cast<sim::JobId>(j);
    job.work = rng.uniform(10.0, 5000.0);
    job.nodes = 1u << rng.index(4);
    job.demand = rng.uniform(0.6, 0.9);
    context.jobs.push_back(job);
  }
  return context;
}

void heuristic_latency(benchmark::State& state, const std::string& name,
                       std::size_t n_sites = 12) {
  const auto context =
      make_batch(static_cast<std::size_t>(state.range(0)), n_sites, 42);
  auto scheduler = sched::make_heuristic(name,
                                         security::RiskPolicy::f_risky(0.5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler->schedule(context));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_MinMin(benchmark::State& state) { heuristic_latency(state, "min-min"); }
void BM_Sufferage(benchmark::State& state) {
  heuristic_latency(state, "sufferage");
}
void BM_Mct(benchmark::State& state) { heuristic_latency(state, "mct"); }
/// MCT on a 1000-site rank-1 grid: the branch-and-bound site search.
void BM_MctWide(benchmark::State& state) {
  heuristic_latency(state, "mct", 1000);
}

void ga_latency(benchmark::State& state, bool warm, std::size_t generations,
                std::size_t n_sites = 12) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  core::StgaConfig config;
  config.ga.population = 200;
  config.ga.generations = generations;
  auto scheduler = warm ? core::make_stga(config) :
      core::make_classic_ga(config);
  if (warm) {
    // Pre-warm the history table with similar batches.
    for (std::uint64_t round = 0; round < 4; ++round) {
      auto context = make_batch(batch, n_sites, 42 + round);
      scheduler->schedule(context);
    }
  }
  const auto context = make_batch(batch, n_sites, 42);
  for (auto _ : state) {
    auto copy = context;
    benchmark::DoNotOptimize(scheduler->schedule(copy));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_StgaWarm100(benchmark::State& state) { ga_latency(state, true, 100); }
void BM_StgaWarm50(benchmark::State& state) { ga_latency(state, true, 50); }
void BM_ColdGa100(benchmark::State& state) { ga_latency(state, false, 100); }
/// The ISSUE's per-batch target shape: full paper GA budget at 16 sites.
void BM_GaBatch16Sites(benchmark::State& state) {
  ga_latency(state, false, 100, 16);
}
void BM_StgaBatch16Sites(benchmark::State& state) {
  ga_latency(state, true, 100, 16);
}

/// Validating public entry point (rides the thread-local scratch fast path).
void BM_FitnessDecode(benchmark::State& state) {
  const auto context =
      make_batch(static_cast<std::size_t>(state.range(0)), 12, 7);
  const core::GaProblem problem =
      core::build_problem(context, security::RiskPolicy::risky());
  util::Rng rng(1);
  const core::Chromosome chromosome = core::random_chromosome(problem, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::decode_fitness(problem, chromosome, {0.6, 1.0}));
  }
}

/// Retained seed-era decode: the baseline the fast path is measured against.
void BM_FitnessDecodeReference(benchmark::State& state) {
  const auto context =
      make_batch(static_cast<std::size_t>(state.range(0)), 16, 7);
  const core::GaProblem problem =
      core::build_problem(context, security::RiskPolicy::risky());
  util::Rng rng(1);
  const core::Chromosome chromosome = core::random_chromosome(problem, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::decode_fitness_reference(problem, chromosome, {0.6, 1.0}));
  }
}

/// Steady-state DecodeScratch decode: the engine's actual hot path.
void BM_FitnessDecodeScratch(benchmark::State& state) {
  const auto context =
      make_batch(static_cast<std::size_t>(state.range(0)), 16, 7);
  const core::GaProblem problem =
      core::build_problem(context, security::RiskPolicy::risky());
  util::Rng rng(1);
  const core::Chromosome chromosome = core::random_chromosome(problem, rng);
  core::DecodeScratch scratch;
  scratch.bind(problem);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::decode_fitness(problem, chromosome, {0.6, 1.0}, scratch));
  }
}

}  // namespace

BENCHMARK(BM_MinMin)->Arg(8)->Arg(16)->Arg(32)->Arg(64);
BENCHMARK(BM_Sufferage)->Arg(8)->Arg(16)->Arg(32)->Arg(64);
BENCHMARK(BM_Mct)->Arg(8)->Arg(16)->Arg(32)->Arg(64);
BENCHMARK(BM_MctWide)->Arg(64)->Arg(1024);
BENCHMARK(BM_StgaWarm100)->Unit(benchmark::kMillisecond)->Arg(16)->Arg(32);
BENCHMARK(BM_StgaWarm50)->Unit(benchmark::kMillisecond)->Arg(16)->Arg(32);
BENCHMARK(BM_ColdGa100)->Unit(benchmark::kMillisecond)->Arg(16)->Arg(32);
BENCHMARK(BM_GaBatch16Sites)->Unit(benchmark::kMillisecond)->Arg(128)->Arg(512);
BENCHMARK(BM_StgaBatch16Sites)
    ->Unit(benchmark::kMillisecond)
    ->Arg(128)
    ->Arg(512);
BENCHMARK(BM_FitnessDecode)->Arg(8)->Arg(32)->Arg(128);
BENCHMARK(BM_FitnessDecodeReference)->Arg(64)->Arg(128)->Arg(512);
BENCHMARK(BM_FitnessDecodeScratch)->Arg(64)->Arg(128)->Arg(512);
BENCHMARK_MAIN();
