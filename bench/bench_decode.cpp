// Decode fast-path microbenchmark (PR 2): times the retained reference
// decode (fresh order vector + stable_sort + deep-copied availability)
// against the DecodeScratch fast path over the synthetic scenario registry
// (consistent/inconsistent x hi/lo heterogeneity, 64-1024 jobs), counts
// heap allocations per decode by replacing global new/delete, and measures
// end-to-end per-batch GA latency at 512 jobs x 16 sites and at the NAS
// testbed's typical 17 jobs x 12 sites batch. Emits machine-readable JSON
// (default BENCH_ga_decode.json) so the perf trajectory accumulates across
// PRs; see README "Performance".
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "decode_harness.hpp"  // counting allocator + scenario_batch

namespace {

using namespace gridsched;
using bench::allocation_count;
using bench::scenario_batch;
using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() -
                                                   start).count();
}

/// The headline per-batch shape: 512 jobs over 16 heterogeneous sites.
sim::SchedulerContext target_batch(std::size_t n_jobs, std::size_t n_sites,
                                   std::uint64_t seed) {
  util::Rng rng(seed);
  sim::SchedulerContext context;
  context.now = 1000.0;
  for (std::size_t s = 0; s < n_sites; ++s) {
    const auto nodes = static_cast<unsigned>(1 + rng.index(16));
    context.sites.push_back({static_cast<sim::SiteId>(s), nodes,
                             rng.uniform(0.5, 4.0), rng.uniform(0.4, 1.0)});
    sim::NodeAvailability avail(nodes, 0.0);
    avail.reserve(1, rng.uniform(0.0, 2000.0), 0.0);
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

struct DecodeRow {
  std::string scenario;
  std::size_t n_jobs = 0;
  std::size_t n_sites = 0;
  double reference_ns = 0.0;
  double fast_ns = 0.0;
  std::uint64_t reference_allocs = 0;
  std::uint64_t fast_allocs = 0;
};

/// ns per call of `decode` in the fastest pass over `chromosomes`, passes
/// repeated until at least `min_ms` of wall time has passed. A fixed wall
/// time, not a fixed call count, gives a tiny decode as many chances as a
/// large one, and the fastest pass drops preemptions and load spikes (host
/// noise only ever adds time).
template <class Decode>
double time_decodes(const std::vector<core::Chromosome>& chromosomes,
                    double min_ms, Decode&& decode) {
  double fastest_ms = 0.0;
  const auto start = Clock::now();
  do {
    const auto pass = Clock::now();
    for (const core::Chromosome& chromosome : chromosomes) decode(chromosome);
    const double ms = elapsed_ms(pass);
    if (fastest_ms == 0.0 || ms < fastest_ms) fastest_ms = ms;
  } while (elapsed_ms(start) < min_ms);
  return fastest_ms * 1e6 / static_cast<double>(chromosomes.size());
}

/// Times each path for `min_ms` after a warm-up of a quarter of that.
DecodeRow measure_decode(const std::string& label,
                         const sim::SchedulerContext& context, double min_ms,
                         std::uint64_t seed) {
  const core::GaProblem problem =
      core::build_problem(context, security::RiskPolicy::risky());
  const core::FitnessParams params{0.6, 2.0};
  util::Rng rng(seed);
  std::vector<core::Chromosome> chromosomes;
  for (int i = 0; i < 16; ++i) {
    chromosomes.push_back(core::random_chromosome(problem, rng));
  }
  core::DecodeScratch scratch;
  scratch.bind(problem);

  DecodeRow row;
  row.scenario = label;
  row.n_jobs = problem.n_jobs();
  row.n_sites = problem.n_sites();

  double sink = 0.0;
  // Warm both paths, then count allocations over one call each.
  sink += core::decode_fitness_reference(problem, chromosomes[0], params);
  sink += core::decode_fitness(problem, chromosomes[0], params, scratch);
  std::uint64_t mark = allocation_count();
  sink += core::decode_fitness_reference(problem, chromosomes[0], params);
  row.reference_allocs = allocation_count() - mark;
  mark = allocation_count();
  sink += core::decode_fitness(problem, chromosomes[0], params, scratch);
  row.fast_allocs = allocation_count() - mark;

  const auto reference = [&](const core::Chromosome& chromosome) {
    sink += core::decode_fitness_reference(problem, chromosome, params);
  };
  const auto fast = [&](const core::Chromosome& chromosome) {
    sink += core::decode_fitness(problem, chromosome, params, scratch);
  };
  time_decodes(chromosomes, min_ms / 4, reference);
  row.reference_ns = time_decodes(chromosomes, min_ms, reference);
  time_decodes(chromosomes, min_ms / 4, fast);
  row.fast_ns = time_decodes(chromosomes, min_ms, fast);
  if (sink == 42.0) std::printf("#");  // defeat dead-code elimination
  return row;
}

/// One per-batch GA latency measurement: the seed implementation's
/// evaluation bill (population x (generations + 1) reference decodes, a
/// strict lower bound on its per-batch latency) against evolve() end to
/// end (scratch decode + memoization + prefix-sum selection) on the same
/// budget. evolve_ms is the fastest of `runs` identically seeded runs (host
/// noise only ever adds time).
struct GaBatchRow {
  std::size_t n_jobs = 0;
  std::size_t n_sites = 0;
  double reference_bill_ms = 0.0;
  double evolve_ms = 0.0;
  std::uint64_t evaluations = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t decodes = 0;
  double best_fitness = 0.0;
};

GaBatchRow measure_ga_batch(const core::GaProblem& problem,
                            const core::GaParams& ga, std::size_t runs,
                            std::uint64_t seed) {
  GaBatchRow row;
  row.n_jobs = problem.n_jobs();
  row.n_sites = problem.n_sites();
  util::Rng bill_rng = util::SeedMix(seed).mix("bill").rng();
  std::vector<core::Chromosome> stream;
  for (int i = 0; i < 32; ++i) {
    stream.push_back(core::random_chromosome(problem, bill_rng));
  }
  const std::size_t bill_calls = ga.population * (ga.generations + 1);
  double sink = 0.0;
  auto start = Clock::now();
  for (std::size_t i = 0; i < bill_calls; ++i) {
    sink += core::decode_fitness_reference(problem, stream[i % stream.size()],
                                           ga.fitness);
  }
  row.reference_bill_ms = elapsed_ms(start);

  std::vector<double> wall_ms;
  for (std::size_t r = 0; r < runs; ++r) {
    util::Rng ga_rng = util::SeedMix(seed).mix("ga").rng();
    start = Clock::now();
    const core::GaResult result = core::evolve(problem, {}, ga, ga_rng);
    wall_ms.push_back(elapsed_ms(start));
    row.evaluations = result.evaluations;
    row.memo_hits = result.memo_hits;
    row.decodes = result.decodes;
    row.best_fitness = result.best_fitness;
  }
  row.evolve_ms = *std::min_element(wall_ms.begin(), wall_ms.end());
  if (sink == 42.0) std::printf("#");  // defeat dead-code elimination
  return row;
}

void print_ga_batch(const GaBatchRow& row, const core::GaParams& ga) {
  std::printf(
      "per-batch GA @ %zu jobs x %zu sites (pop %zu, gens %zu):\n"
      "  reference evaluation bill : %.1f ms (%zu reference decodes)\n"
      "  evolve() end-to-end       : %.1f ms (%llu evaluations, %llu memo "
      "hits, %llu decodes)\n"
      "  per-batch speedup         : %.2fx (vs the seed's evaluation bill "
      "alone)\n",
      row.n_jobs, row.n_sites, ga.population, ga.generations,
      row.reference_bill_ms, ga.population * (ga.generations + 1),
      row.evolve_ms, static_cast<unsigned long long>(row.evaluations),
      static_cast<unsigned long long>(row.memo_hits),
      static_cast<unsigned long long>(row.decodes),
      row.reference_bill_ms / row.evolve_ms);
}

std::string ga_batch_json(const GaBatchRow& row, const core::GaParams& ga) {
  return bench::JsonObject()
      .integer("n_jobs", row.n_jobs)
      .integer("n_sites", row.n_sites)
      .integer("population", ga.population)
      .integer("generations", ga.generations)
      .num("reference_eval_bill_ms", row.reference_bill_ms, 2)
      .num("evolve_ms", row.evolve_ms, 2)
      .num("per_batch_speedup", row.reference_bill_ms / row.evolve_ms, 3)
      .integer("evaluations", row.evaluations)
      .integer("memo_hits", row.memo_hits)
      .integer("decodes", row.decodes)
      .str();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args =
      bench::parse_args(argc, argv, {"seed", "quick", "out", "check-overhead"});
  const util::Cli cli(argc, argv);
  const std::string out_path =
      cli.get_or("out", std::string("BENCH_ga_decode.json"));

  bench::print_banner(
      "GA decode fast path (DecodeScratch vs retained reference)",
      "zero-allocation arena decode is >= 3x faster per batch and >= 5x "
      "lighter on the allocator than the seed implementation");

  // --- decode microbenchmark over the synth registry ------------------------
  const std::vector<std::string> classes = {
      "synth-consistent-hihi", "synth-consistent-lolo",
      "synth-inconsistent-hihi", "synth-inconsistent-lolo"};
  const std::vector<std::size_t> sizes =
      args.quick ? std::vector<std::size_t>{64, 256}
                 : std::vector<std::size_t>{64, 256, 1024};
  // Wall time per path and row (plus a quarter of it to warm up).
  const double min_ms = args.quick ? 25.0 : 200.0;

  std::vector<DecodeRow> rows;
  util::Table table({"scenario", "jobs", "sites", "ref ns/decode",
                     "fast ns/decode", "speedup", "ref allocs", "fast allocs"});
  const auto add_row = [&](DecodeRow row) {
    table.row()
        .cell(row.scenario)
        .cell(static_cast<double>(row.n_jobs), 0)
        .cell(static_cast<double>(row.n_sites), 0)
        .cell(row.reference_ns, 0)
        .cell(row.fast_ns, 0)
        .cell(row.reference_ns / row.fast_ns, 2)
        .cell(static_cast<double>(row.reference_allocs), 0)
        .cell(static_cast<double>(row.fast_allocs), 0);
    rows.push_back(std::move(row));
  };
  for (const std::string& name : classes) {
    for (const std::size_t n_jobs : sizes) {
      const auto context = scenario_batch(name, n_jobs, args.seed);
      add_row(measure_decode(
          name, context, min_ms,
          util::SeedMix(args.seed).mix(name).mix(n_jobs).seed()));
    }
  }
  // The headline 512 x 16 shape, measured with the same harness.
  add_row(measure_decode("target-512x16", target_batch(512, 16, args.seed),
                         min_ms, args.seed));
  // The paper's NAS batch shape (stga-nas p50): 17 jobs over 4 x 16-node
  // and 8 x 8-node sites.
  add_row(measure_decode("nas-17x12", scenario_batch("nas", 17, args.seed),
                         min_ms, args.seed));
  std::printf("%s\n", table.str().c_str());

  // --- per-batch GA latency at 512 jobs x 16 sites --------------------------
  const std::size_t ga_jobs = args.quick ? 128 : 512;
  const auto context = target_batch(ga_jobs, 16, args.seed);
  const core::GaProblem problem =
      core::build_problem(context, security::RiskPolicy::risky());
  core::GaParams ga;
  ga.population = args.quick ? 50 : 200;
  ga.generations = args.quick ? 20 : 100;
  ga.fitness = core::FitnessParams{0.6, 2.0};
  // Fastest of several identically seeded evolves, as for the NAS row: a
  // single cold evolve at 512 x 16 read 264-336 ms across runs of one
  // binary.
  const GaBatchRow batch =
      measure_ga_batch(problem, ga, args.quick ? 3 : 5, args.seed);
  print_ga_batch(batch, ga);

  // --- per-batch GA latency at the paper's NAS batch shape ------------------
  // stga-nas batches have p50 17 jobs x 12 sites; this row times the
  // paper's STGA budget (population 200 x 100 generations) at that shape.
  core::GaParams nas_ga = ga;
  nas_ga.population = 200;
  nas_ga.generations = 100;
  const core::GaProblem nas_problem = core::build_problem(
      scenario_batch("nas", 17, args.seed), security::RiskPolicy::risky());
  const GaBatchRow nas_batch =
      measure_ga_batch(nas_problem, nas_ga, args.quick ? 5 : 25, args.seed);
  print_ga_batch(nas_batch, nas_ga);

  // --- observability overhead -----------------------------------------------
  // The same evolve with a GaProfile attached: the per-generation clock
  // reads and profile rows are the only extra work, and every profiled
  // GaResult must stay bit-identical. One run of each side is too noisy to
  // compare (single pairs ranged from +1% to +37% on one binary), so the
  // overhead compares the fastest of kOverheadPairs alternating unprofiled
  // and profiled runs; host noise only ever adds time. --check-overhead=PCT
  // turns the measurement into an exit-code assertion so CI can gate
  // regressions.
  constexpr int kOverheadPairs = 5;
  double unprofiled_ms = std::numeric_limits<double>::infinity();
  double profiled_ms = std::numeric_limits<double>::infinity();
  std::size_t profile_rows = 0;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    util::Rng unprofiled_rng = util::SeedMix(args.seed).mix("ga").rng();
    auto start = Clock::now();
    const core::GaResult unprofiled =
        core::evolve(problem, {}, ga, unprofiled_rng);
    unprofiled_ms = std::min(unprofiled_ms, elapsed_ms(start));

    util::Rng profiled_rng = util::SeedMix(args.seed).mix("ga").rng();
    core::GaProfile profile;
    start = Clock::now();
    const core::GaResult profiled =
        core::evolve(problem, {}, ga, profiled_rng, &profile);
    profiled_ms = std::min(profiled_ms, elapsed_ms(start));
    profile_rows = profile.generations.size();
    if (profiled.best_fitness != batch.best_fitness ||
        profiled.evaluations != batch.evaluations ||
        unprofiled.best_fitness != batch.best_fitness) {
      std::fprintf(stderr,
                   "FAIL: profiled evolve() diverged from the unprofiled "
                   "run (profiling must be observation-only)\n");
      return 1;
    }
  }
  const double overhead_pct =
      unprofiled_ms > 0.0
          ? (profiled_ms - unprofiled_ms) / unprofiled_ms * 100.0
          : 0.0;
  std::printf(
      "  evolve() with GaProfile   : %.1f ms vs %.1f ms without (fastest of "
      "%d alternating pairs; %zu generation rows, %+.2f%% overhead)\n"
      "  peak RSS                  : %.1f MiB\n",
      profiled_ms, unprofiled_ms, kOverheadPairs, profile_rows, overhead_pct,
      bench::peak_rss_mib());
  if (const auto limit = cli.get("check-overhead")) {
    const double max_pct = std::stod(*limit);
    if (overhead_pct > max_pct) {
      std::fprintf(stderr,
                   "FAIL: GA profiling overhead %.2f%% exceeds the "
                   "--check-overhead=%.2f%% budget\n",
                   overhead_pct, max_pct);
      return 1;
    }
  }

  // --- JSON -----------------------------------------------------------------
  std::vector<std::string> decode_rows;
  decode_rows.reserve(rows.size());
  for (const DecodeRow& row : rows) {
    decode_rows.push_back(
        bench::JsonObject()
            .text("scenario", row.scenario)
            .integer("n_jobs", row.n_jobs)
            .integer("n_sites", row.n_sites)
            .num("reference_ns_per_decode", row.reference_ns, 1)
            .num("fast_ns_per_decode", row.fast_ns, 1)
            .num("speedup", row.reference_ns / row.fast_ns, 3)
            .integer("reference_allocs_per_decode", row.reference_allocs)
            .integer("fast_allocs_per_decode", row.fast_allocs)
            .str());
  }
  const bench::JsonObject document =
      bench::JsonObject()
          .text("bench", "ga_decode")
          .integer("seed", args.seed)
          .boolean("quick", args.quick)
          .raw("decode", bench::json_array(decode_rows))
          .raw("ga_batch", ga_batch_json(batch, ga))
          .raw("ga_batch_nas", ga_batch_json(nas_batch, nas_ga))
          .raw("observability",
               bench::JsonObject()
                   .num("unprofiled_evolve_ms", unprofiled_ms, 2)
                   .num("profiled_evolve_ms", profiled_ms, 2)
                   .num("profile_overhead_pct", overhead_pct, 2)
                   .integer("peak_rss_bytes", obs::peak_rss_bytes())
                   .str());
  try {
    util::write_file(out_path, document.document());
  } catch (const std::runtime_error& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
