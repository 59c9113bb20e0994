// Synthetic workload subsystem: determinism of (config, seed), the
// consistency-class invariants of generated ETC matrices, arrival-process
// properties, the rank-1 fit, and the scenario-registry round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/scenario_registry.hpp"
#include "workload/synth/arrival.hpp"
#include "workload/synth/etc_gen.hpp"
#include "workload/synth/stream_gen.hpp"
#include "workload/synth/synth.hpp"
#include "workload/trace_io.hpp"
#include "workload_digest.hpp"

namespace gridsched::workload::synth {
namespace {

EtcConfig etc_config(EtcConsistency consistency, Heterogeneity task,
                     Heterogeneity machine) {
  EtcConfig config;
  config.consistency = consistency;
  config.task_heterogeneity = task;
  config.machine_heterogeneity = machine;
  return config;
}

SynthConfig small_config() {
  SynthConfig config;
  config.n_jobs = 200;
  config.n_sites = 8;
  config.site_node_pattern = {8, 2, 4};
  config.size_weights = {0.5, 0.3, 0.2};
  return config;
}

// ----------------------------------------------------------- determinism ---

TEST(SynthWorkload, SameConfigAndSeedIsByteIdentical) {
  const SynthConfig config = small_config();
  const Workload a = synth_workload(config, 99);
  const Workload b = synth_workload(config, 99);

  // Byte-level check through the canonical trace serialisation.
  std::ostringstream jobs_a, jobs_b, sites_a, sites_b;
  write_jobs(jobs_a, a.jobs);
  write_jobs(jobs_b, b.jobs);
  write_sites(sites_a, a.sites);
  write_sites(sites_b, b.sites);
  EXPECT_EQ(jobs_a.str(), jobs_b.str());
  EXPECT_EQ(sites_a.str(), sites_b.str());

  // And exact equality on the raw fields (trace formatting could round).
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    EXPECT_EQ(a.jobs[j].arrival, b.jobs[j].arrival);
    EXPECT_EQ(a.jobs[j].work, b.jobs[j].work);
    EXPECT_EQ(a.jobs[j].nodes, b.jobs[j].nodes);
    EXPECT_EQ(a.jobs[j].demand, b.jobs[j].demand);
  }
  ASSERT_EQ(a.sites.size(), b.sites.size());
  for (std::size_t s = 0; s < a.sites.size(); ++s) {
    EXPECT_EQ(a.sites[s].nodes, b.sites[s].nodes);
    EXPECT_EQ(a.sites[s].speed, b.sites[s].speed);
    EXPECT_EQ(a.sites[s].security, b.sites[s].security);
  }
}

// Golden fingerprints (bench::workload_digest) of every materialised
// synth registry scenario at 200 jobs and two seeds, plus the perfbench
// churn-backlog shape (synth-churn-hi, 50 000 jobs, arrival rate 0.02),
// captured before the generator's row sort, fit and ExecModel hand-off
// were reworked. A deliberate generator change re-captures them; say so
// when it happens.
struct GoldenBuild {
  const char* scenario;
  std::uint64_t seed;
  std::uint64_t digest;
};
constexpr GoldenBuild kGoldenBuilds[] = {
    {"synth-batch", 17, 0x8f3cc4be883f9f71ULL},
    {"synth-batch", 20050419, 0x7725fde7192d3237ULL},
    {"synth-bursty", 17, 0x11704d80cf271155ULL},
    {"synth-bursty", 20050419, 0xa4c07396932480b5ULL},
    {"synth-churn-hi", 17, 0x570a7664ebf0a232ULL},
    {"synth-churn-hi", 20050419, 0x64cc07fb6d2b36a2ULL},
    {"synth-churn-lo", 17, 0x269d607e2c3a4a2cULL},
    {"synth-churn-lo", 20050419, 0x2499845ad0993bafULL},
    {"synth-consistent-hihi", 17, 0x1c0ceb28301a181cULL},
    {"synth-consistent-hihi", 20050419, 0xa0161dbaffa27c9cULL},
    {"synth-consistent-lolo", 17, 0x78ccd84d7d55fb59ULL},
    {"synth-consistent-lolo", 20050419, 0x8e1bc5caddccdfd2ULL},
    {"synth-inconsistent-hihi", 17, 0x6d801028db5e2db2ULL},
    {"synth-inconsistent-hihi", 20050419, 0x56118d43438b9163ULL},
    {"synth-inconsistent-lolo", 17, 0x44d9026e294253a3ULL},
    {"synth-inconsistent-lolo", 20050419, 0xd47efd164da06ee0ULL},
    {"synth-risky", 17, 0x43acbf342ae01f2bULL},
    {"synth-risky", 20050419, 0xc64650417790901eULL},
    {"synth-secure", 17, 0x365ab7583a4571f8ULL},
    {"synth-secure", 20050419, 0x3f49e424ae032d08ULL},
    {"synth-semi-hihi", 17, 0x3a2b055c2f5d4d83ULL},
    {"synth-semi-hihi", 20050419, 0xa9621ddcdaf22766ULL},
    {"synth-semi-lolo", 17, 0x846accb468870f3dULL},
    {"synth-semi-lolo", 20050419, 0x2b39de0bb012f196ULL},
};
constexpr std::uint64_t kGoldenBacklogDigest = 0xfa87b229ce3c313bULL;

exp::Scenario backlog_scenario() {
  exp::Scenario backlog = exp::make_scenario("synth-churn-hi", 50000);
  backlog.synth.arrival.rate = 0.02;
  return backlog;
}

TEST(SynthWorkload, RegistryBuildsReproduceGoldenDigests) {
  std::size_t synth_scenarios = 0;
  for (const std::string& name : exp::scenario_names()) {
    if (exp::make_scenario(name, 200).kind == exp::ScenarioKind::kSynth) {
      ++synth_scenarios;
    }
  }
  EXPECT_EQ(2 * synth_scenarios, std::size(kGoldenBuilds))
      << "a synth scenario was added or removed; capture or drop its digest";
  for (const GoldenBuild& golden : kGoldenBuilds) {
    SCOPED_TRACE(std::string(golden.scenario) + " seed " +
                 std::to_string(golden.seed));
    const exp::Scenario scenario = exp::make_scenario(golden.scenario, 200);
    EXPECT_EQ(bench::workload_digest(exp::make_workload(scenario, golden.seed)),
              golden.digest);
  }
  EXPECT_EQ(
      bench::workload_digest(exp::make_workload(backlog_scenario(), 20050419)),
      kGoldenBacklogDigest);
}

/// Pull every job out of `stream` one next() at a time, the way the
/// kernel admits them, collecting each job's ETC row as it is yielded
/// (job ids are left unset: the digest skips them).
Workload drain_by_hand(StreamWorkload stream) {
  Workload drained;
  drained.sites = std::move(stream.sites);
  drained.churn = std::move(stream.churn);
  const std::size_t size = stream.jobs->size();
  const std::size_t row_sites = stream.jobs->row_sites();
  std::vector<double> cells;
  sim::Job job;
  while (stream.jobs->next(job)) {
    drained.jobs.push_back(job);
    const std::span<const double> row = stream.jobs->row();
    EXPECT_EQ(row.size(), row_sites);
    cells.insert(cells.end(), row.begin(), row.end());
  }
  EXPECT_EQ(drained.jobs.size(), size) << "size() disagrees with next()";
  EXPECT_FALSE(stream.jobs->next(job)) << "an exhausted cursor yielded a job";
  if (row_sites > 0) {
    drained.exec = sim::ExecModel(size, row_sites, std::move(cells));
  }
  return drained;
}

// The cursor a synth run hands the kernel yields, job by job, the very
// workload synth_workload builds, and that workload's golden digest: every
// registry kSynth scenario (batch waves, Poisson and bursty arrivals,
// churn, all ETC classes and security regimes) and the 50 000-job
// churn-backlog shape.
TEST(SynthStream, DrainsToTheMaterializedWorkloadForEveryRegistryScenario) {
  for (const GoldenBuild& golden : kGoldenBuilds) {
    SCOPED_TRACE(std::string(golden.scenario) + " seed " +
                 std::to_string(golden.seed));
    const exp::Scenario scenario = exp::make_scenario(golden.scenario, 200);
    const Workload drained =
        drain_by_hand(synth_stream(scenario.synth, golden.seed));
    EXPECT_EQ(bench::workload_digest(drained), golden.digest);
    EXPECT_EQ(bench::workload_digest(
                  synth_workload(scenario.synth, golden.seed)),
              golden.digest);
    // The run path reaches the same cursor through the scenario layer.
    EXPECT_EQ(bench::workload_digest(
                  drain_by_hand(exp::make_stream_workload(scenario,
                                                          golden.seed))),
              golden.digest);
  }
  const exp::Scenario backlog = backlog_scenario();
  const Workload drained = drain_by_hand(synth_stream(backlog.synth, 20050419));
  EXPECT_EQ(bench::workload_digest(drained), kGoldenBacklogDigest);
  EXPECT_EQ(bench::workload_digest(synth_workload(backlog.synth, 20050419)),
            kGoldenBacklogDigest);
}

TEST(SynthStream, MakeStreamWorkloadRejectsNasAndPsa) {
  EXPECT_THROW(exp::make_stream_workload(exp::make_scenario("nas", 10), 1),
               std::invalid_argument);
  EXPECT_THROW(exp::make_stream_workload(exp::make_scenario("psa", 10), 1),
               std::invalid_argument);
}

// Every entry must be finite and >= 0: a NaN or infinite entry used to
// give every job the node cap and a negative one every job a single node,
// because only the (possibly NaN) sum was checked.
TEST(SynthWorkload, RejectsNonFiniteOrNegativeSizeWeights) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& weights :
       std::vector<std::vector<double>>{{nan, 0.5},
                                        {inf, 1.0},
                                        {1.0, -0.5, 0.2},
                                        {0.0, 0.0},
                                        {}}) {
    SynthConfig config = small_config();
    config.size_weights = weights;
    try {
      (void)synth_stream(config, 3);
      ADD_FAILURE() << "accepted size_weights of " << weights.size()
                    << " entries";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("size_weights"),
                std::string::npos)
          << error.what();
    }
    EXPECT_THROW((void)synth_workload(config, 3), std::invalid_argument);
  }
}

TEST(SynthStreamWorkload, RejectsNonFiniteOrNegativeSizeWeights) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& weights :
       std::vector<std::vector<double>>{{nan, 0.5},
                                        {inf, 1.0},
                                        {1.0, -0.5, 0.2},
                                        {0.0, 0.0},
                                        {}}) {
    SynthStreamConfig config;
    config.n_jobs = 50;
    config.n_sites = 4;
    config.size_weights = weights;
    try {
      (void)stream_workload(config, 3);
      ADD_FAILURE() << "accepted size_weights of " << weights.size()
                    << " entries";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("size_weights"),
                std::string::npos)
          << error.what();
    }
  }
}

/// Expects `build` to throw std::invalid_argument naming `field`.
template <typename Build>
void expect_rejected_naming(const char* field, Build&& build) {
  try {
    build();
    ADD_FAILURE() << "accepted a bad " << field;
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
        << error.what();
  }
}

// Every SecurityProfile field is checked once, before any site or job is
// drawn, with negated positive tests: a NaN certified_fraction used to
// reach assign_trust's size_t cast (undefined behaviour), and NaN demand
// bounds used to pass draw_demand's `lo > hi` test and surface as a
// misleading "no absolutely-safe site" in the kernel.
TEST(SynthWorkload, RejectsNonFiniteOrReversedSecurityBounds) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct BadField {
    double SecurityProfile::*field;
    const char* name;
    double value;
  };
  std::vector<BadField> cases;
  const std::pair<double SecurityProfile::*, const char*> fields[] = {
      {&SecurityProfile::demand_lo, "demand_lo"},
      {&SecurityProfile::demand_hi, "demand_hi"},
      {&SecurityProfile::trust_lo, "trust_lo"},
      {&SecurityProfile::trust_hi, "trust_hi"},
      {&SecurityProfile::certified_fraction, "certified_fraction"}};
  for (const auto& [field, name] : fields) {
    for (const double value : {nan, inf, -inf}) {
      cases.push_back({field, name, value});
    }
  }
  // Reversed bounds name the upper field; the fraction must lie in [0, 1].
  cases.push_back({&SecurityProfile::demand_lo, "demand_hi", 0.95});
  cases.push_back({&SecurityProfile::trust_lo, "trust_hi", 1.5});
  cases.push_back({&SecurityProfile::certified_fraction,
                   "certified_fraction", 1.5});
  cases.push_back({&SecurityProfile::certified_fraction,
                   "certified_fraction", -0.25});
  for (const BadField& bad : cases) {
    SCOPED_TRACE(std::string(bad.name) + " = " + std::to_string(bad.value));
    SynthConfig config = small_config();
    config.security.*bad.field = bad.value;
    expect_rejected_naming(bad.name, [&] { (void)synth_stream(config, 3); });
    SynthStreamConfig stream_config;
    stream_config.n_jobs = 50;
    stream_config.n_sites = 4;
    stream_config.security.*bad.field = bad.value;
    expect_rejected_naming(bad.name,
                           [&] { (void)stream_workload(stream_config, 3); });
  }
}

TEST(SynthWorkload, DifferentSeedsDiverge) {
  const SynthConfig config = small_config();
  const Workload a = synth_workload(config, 1);
  const Workload b = synth_workload(config, 2);
  bool any_diff = false;
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    if (a.jobs[j].work != b.jobs[j].work) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(SynthWorkload, JobsAreSortedAndWellFormed) {
  const Workload workload = synth_workload(small_config(), 5);
  ASSERT_EQ(workload.jobs.size(), 200u);
  double previous = 0.0;
  for (const sim::Job& job : workload.jobs) {
    EXPECT_GE(job.arrival, previous);
    previous = job.arrival;
    EXPECT_GT(job.work, 0.0);
    EXPECT_GE(job.nodes, 1u);
    EXPECT_LE(job.nodes, 8u);  // capped at the largest site
    EXPECT_GE(job.demand, 0.6);
    EXPECT_LE(job.demand, 0.9);
  }
  // Fail-stop safety: some site fits the largest job securely.
  const auto safe = std::any_of(
      workload.sites.begin(), workload.sites.end(), [](const auto& site) {
        return site.nodes >= 8u && site.security >= 0.9;
      });
  EXPECT_TRUE(safe);
}

// ------------------------------------------------- ETC class invariants ---

TEST(EtcGen, ConsistentMatrixIsColumnOrdered) {
  util::Rng rng(7);
  const EtcMatrixData etc =
      generate_etc(60, 10, etc_config(EtcConsistency::kConsistent,
                                      Heterogeneity::kHi, Heterogeneity::kHi),
                   rng);
  std::vector<std::size_t> all(etc.machines);
  for (std::size_t m = 0; m < etc.machines; ++m) all[m] = m;
  EXPECT_TRUE(columns_consistent(etc, all));
  // Rows are ascending in column index (the shared machine ordering).
  for (std::size_t t = 0; t < etc.tasks; ++t) {
    for (std::size_t m = 1; m < etc.machines; ++m) {
      EXPECT_LE(etc.at(t, m - 1), etc.at(t, m));
    }
  }
}

TEST(EtcGen, SemiConsistentMatrixOrdersEvenColumnsOnly) {
  util::Rng rng(7);
  const EtcMatrixData etc = generate_etc(
      60, 10, etc_config(EtcConsistency::kSemiConsistent, Heterogeneity::kHi,
                         Heterogeneity::kHi),
      rng);
  std::vector<std::size_t> even;
  std::vector<std::size_t> all;
  for (std::size_t m = 0; m < etc.machines; ++m) {
    all.push_back(m);
    if (m % 2 == 0) even.push_back(m);
  }
  EXPECT_TRUE(columns_consistent(etc, even));
  // With 60 rows and unordered odd columns, full consistency is
  // astronomically unlikely.
  EXPECT_FALSE(columns_consistent(etc, all));
}

TEST(EtcGen, InconsistentMatrixHasNoColumnOrder) {
  util::Rng rng(7);
  const EtcMatrixData etc = generate_etc(
      60, 10, etc_config(EtcConsistency::kInconsistent, Heterogeneity::kHi,
                         Heterogeneity::kHi),
      rng);
  std::vector<std::size_t> all(etc.machines);
  for (std::size_t m = 0; m < etc.machines; ++m) all[m] = m;
  EXPECT_FALSE(columns_consistent(etc, all));
}

TEST(EtcGen, HiTaskHeterogeneitySpreadsRowMeans) {
  util::Rng rng_hi(11);
  util::Rng rng_lo(11);
  const auto spread = [](const EtcMatrixData& etc) {
    // Coefficient of variation of row means.
    std::vector<double> means(etc.tasks, 0.0);
    for (std::size_t t = 0; t < etc.tasks; ++t) {
      for (std::size_t m = 0; m < etc.machines; ++m) {
        means[t] += etc.at(t, m);
      }
      means[t] /= static_cast<double>(etc.machines);
    }
    double mean = 0.0;
    for (const double x : means) mean += x;
    mean /= static_cast<double>(means.size());
    double var = 0.0;
    for (const double x : means) var += (x - mean) * (x - mean);
    var /= static_cast<double>(means.size());
    return std::sqrt(var) / mean;
  };
  const EtcMatrixData hi =
      generate_etc(400, 8, etc_config(EtcConsistency::kInconsistent,
                                      Heterogeneity::kHi, Heterogeneity::kLo),
                   rng_hi);
  const EtcMatrixData lo =
      generate_etc(400, 8, etc_config(EtcConsistency::kInconsistent,
                                      Heterogeneity::kLo, Heterogeneity::kLo),
                   rng_lo);
  EXPECT_GT(spread(hi), spread(lo));
}

TEST(EtcGen, RowSortMatchesStdSortReference) {
  // The generator's sorting network must give std::sort's bytes. The
  // reference makes the same draws and sorts each row (or its even
  // columns) with std::sort. A machine range of 1 + 2^-50 leaves only a
  // few distinct multipliers near 1, so rows there are full of duplicate
  // cells; a range of 1 makes every cell of a row equal.
  const auto reference = [](std::size_t tasks, std::size_t machines,
                            const EtcConfig& config, util::Rng& rng) {
    std::vector<double> cells(tasks * machines);
    for (std::size_t t = 0; t < tasks; ++t) {
      const double tau = rng.uniform(1.0, config.task_range());
      double* row = cells.data() + t * machines;
      for (std::size_t m = 0; m < machines; ++m) {
        row[m] = tau * rng.uniform(1.0, config.machine_range());
      }
      if (config.consistency == EtcConsistency::kConsistent) {
        std::sort(row, row + machines);
      } else if (config.consistency == EtcConsistency::kSemiConsistent) {
        std::vector<double> even;
        for (std::size_t m = 0; m < machines; m += 2) even.push_back(row[m]);
        std::sort(even.begin(), even.end());
        for (std::size_t i = 0; i < even.size(); ++i) row[2 * i] = even[i];
      }
    }
    return cells;
  };
  for (const auto consistency :
       {EtcConsistency::kConsistent, EtcConsistency::kSemiConsistent,
        EtcConsistency::kInconsistent}) {
    for (const std::size_t machines :
         {1u, 2u, 3u, 5u, 8u, 16u, 17u, 33u, 64u, 100u}) {
      for (const double machine_range : {1000.0, 1.0 + 0x1p-50, 1.0}) {
        SCOPED_TRACE(to_string(consistency) + " x" +
                     std::to_string(machines) + " range 1 + " +
                     std::to_string(machine_range - 1.0));
        EtcConfig config = etc_config(consistency, Heterogeneity::kHi,
                                      Heterogeneity::kHi);
        config.machine_range_hi = machine_range;
        util::Rng rng(machines);
        util::Rng reference_rng(machines);
        const EtcMatrixData etc = generate_etc(40, machines, config, rng);
        const std::vector<double> expected =
            reference(40, machines, config, reference_rng);
        EXPECT_TRUE(etc.cells == expected);
        if (machine_range != 1000.0 && machines > 1) {
          bool duplicates = false;
          for (std::size_t t = 0; t < etc.tasks; ++t) {
            const auto row = etc.cells.begin() + t * machines;
            duplicates |=
                std::set<double>(row, row + machines).size() < machines;
          }
          EXPECT_TRUE(duplicates) << "no row with duplicate cells";
        }
      }
    }
  }
}

TEST(EtcGen, RejectsDegenerateRequests) {
  util::Rng rng(1);
  EXPECT_THROW(generate_etc(0, 4, {}, rng), std::invalid_argument);
  EXPECT_THROW(generate_etc(4, 0, {}, rng), std::invalid_argument);
}

// The active range of each dimension must be finite and >= 1, checked when
// the row cursor is built: NaN used to pass `task_range() < 1.0` and
// surface as fit_work_speed's "non-positive cell", and +inf passed too,
// caught only by the ExecModel pass over a materialized matrix.
TEST(EtcGen, RejectsNonFiniteOrSubUnitRanges) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::pair<double EtcConfig::*, const char*> fields[] = {
      {&EtcConfig::task_range_hi, "task_range_hi"},
      {&EtcConfig::task_range_lo, "task_range_lo"},
      {&EtcConfig::machine_range_hi, "machine_range_hi"},
      {&EtcConfig::machine_range_lo, "machine_range_lo"}};
  for (const auto& [field, name] : fields) {
    for (const double value : {nan, inf, 0.5}) {
      SCOPED_TRACE(std::string(name) + " = " + std::to_string(value));
      EtcConfig etc;
      // Make the mutated field the active one of its dimension.
      etc.task_heterogeneity = field == &EtcConfig::task_range_lo
                                   ? Heterogeneity::kLo
                                   : Heterogeneity::kHi;
      etc.machine_heterogeneity = field == &EtcConfig::machine_range_lo
                                      ? Heterogeneity::kLo
                                      : Heterogeneity::kHi;
      etc.*field = value;
      expect_rejected_naming(name, [&] {
        util::Rng rng(1);
        (void)generate_etc(4, 4, etc, rng);
      });
      SynthConfig config = small_config();
      config.etc = etc;
      expect_rejected_naming(name, [&] { (void)synth_stream(config, 3); });
    }
  }
}

// Every row the cursor emits passes the ExecModel cell check (finite and
// > 0) as it is emitted: a calibration that overflows the cells above the
// mean fails at the first such job instead of reaching the kernel.
TEST(SynthStream, RejectsAnOverflowingScaledRow) {
  SynthConfig config = small_config();
  config.mean_exec_seconds = std::numeric_limits<double>::max();
  StreamWorkload stream = synth_stream(config, 3);
  expect_rejected_naming("ETC row", [&] {
    sim::Job job;
    while (stream.jobs->next(job)) {
    }
  });
  EXPECT_THROW((void)synth_workload(config, 3), std::invalid_argument);
}

// ---------------------------------------------------------- rank-1 fit ---

TEST(EtcGen, FitRecoversExactRankOneMatrix) {
  EtcMatrixData etc;
  etc.tasks = 3;
  etc.machines = 2;
  const double work[] = {100.0, 300.0, 50.0};
  const double speed[] = {1.0, 4.0};
  for (const double w : work) {
    for (const double s : speed) etc.cells.push_back(w / s);
  }
  const WorkSpeedFit fit = fit_work_speed(etc);
  EXPECT_NEAR(log_rms_residual(etc, fit), 0.0, 1e-12);
  // Speeds are recovered up to the gauge (geometric mean 1): ratio exact.
  EXPECT_NEAR(fit.speed[1] / fit.speed[0], 4.0, 1e-9);
  EXPECT_NEAR(fit.work[1] / fit.work[0], 3.0, 1e-9);
}

TEST(EtcGen, FitResidualGrowsWithInconsistency) {
  util::Rng rng_c(3);
  util::Rng rng_i(3);
  const EtcMatrixData consistent =
      generate_etc(200, 12, etc_config(EtcConsistency::kConsistent,
                                       Heterogeneity::kHi, Heterogeneity::kHi),
                   rng_c);
  const EtcMatrixData inconsistent = generate_etc(
      200, 12, etc_config(EtcConsistency::kInconsistent, Heterogeneity::kHi,
                          Heterogeneity::kHi),
      rng_i);
  EXPECT_LT(log_rms_residual(consistent, fit_work_speed(consistent)),
            log_rms_residual(inconsistent, fit_work_speed(inconsistent)));
}

TEST(EtcGen, ResidualRejectsMismatchedFit) {
  util::Rng rng(2);
  const EtcMatrixData etc = generate_etc(5, 3, {}, rng);
  WorkSpeedFit fit = fit_work_speed(etc);
  fit.speed.pop_back();
  EXPECT_THROW(log_rms_residual(etc, fit), std::invalid_argument);
}

// ------------------------------------------------------------- arrivals ---

TEST(Arrivals, BatchWavesSplitEvenly) {
  util::Rng rng(1);
  ArrivalConfig config;
  config.process = ArrivalProcess::kBatch;
  config.batch_waves = 3;
  config.wave_interval = 100.0;
  const auto times = arrival_times(10, config, rng);
  ASSERT_EQ(times.size(), 10u);
  EXPECT_EQ(std::count(times.begin(), times.end(), 0.0), 4);
  EXPECT_EQ(std::count(times.begin(), times.end(), 100.0), 3);
  EXPECT_EQ(std::count(times.begin(), times.end(), 200.0), 3);
}

TEST(Arrivals, BatchWithFewerJobsThanWavesFillsTheEarliestWaves) {
  ArrivalConfig config;
  config.process = ArrivalProcess::kBatch;
  config.batch_waves = 5;
  config.wave_interval = 10.0;
  EXPECT_EQ(arrival_times(2, config, util::Rng(1)),
            (std::vector<sim::Time>{0.0, 10.0}));
}

TEST(Arrivals, PoissonMeanInterarrivalMatchesRate) {
  util::Rng rng(5);
  ArrivalConfig config;
  config.process = ArrivalProcess::kPoisson;
  config.rate = 0.02;
  const auto times = arrival_times(20000, config, rng);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  EXPECT_NEAR(times.back() / 20000.0, 50.0, 2.0);
}

TEST(Arrivals, BurstyIsSortedAndBurstier) {
  util::Rng rng_b(9);
  util::Rng rng_p(9);
  ArrivalConfig bursty;
  bursty.process = ArrivalProcess::kBurstyOnOff;
  bursty.on_duration = 500.0;
  bursty.off_duration = 2000.0;
  bursty.burst_rate = 0.1;
  const auto bursty_times = arrival_times(5000, bursty, rng_b);
  EXPECT_TRUE(std::is_sorted(bursty_times.begin(), bursty_times.end()));

  ArrivalConfig poisson;
  poisson.process = ArrivalProcess::kPoisson;
  poisson.rate = 0.1 * 500.0 / 2500.0;  // same long-run mean rate
  const auto poisson_times = arrival_times(5000, poisson, rng_p);

  // Burstiness: the squared coefficient of variation of interarrival gaps
  // must clearly exceed the Poisson value of 1.
  const auto cv2 = [](const std::vector<sim::Time>& times) {
    double mean = 0.0;
    const auto n = times.size() - 1;
    for (std::size_t i = 1; i < times.size(); ++i) {
      mean += times[i] - times[i - 1];
    }
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (std::size_t i = 1; i < times.size(); ++i) {
      const double gap = times[i] - times[i - 1] - mean;
      var += gap * gap;
    }
    return var / static_cast<double>(n) / (mean * mean);
  };
  EXPECT_GT(cv2(bursty_times), 2.0);
  EXPECT_NEAR(cv2(poisson_times), 1.0, 0.25);
}

TEST(Arrivals, RejectsBadConfigs) {
  util::Rng rng(1);
  ArrivalConfig config;
  config.process = ArrivalProcess::kPoisson;
  config.rate = 0.0;
  EXPECT_THROW(arrival_times(5, config, rng), std::invalid_argument);
  config.process = ArrivalProcess::kBatch;
  config.batch_waves = 0;
  EXPECT_THROW(arrival_times(5, config, rng), std::invalid_argument);
}

// ----------------------------------------------------- security regimes ---

TEST(SecurityProfile, RiskyRegimeUnderSecuresMostJobs) {
  SynthConfig config = small_config();
  config.security = SecurityProfile::risky();
  const Workload risky = synth_workload(config, 17);
  config.security = SecurityProfile::secure();
  const Workload secure = synth_workload(config, 17);

  const auto safe_pairs = [](const Workload& workload) {
    std::size_t safe = 0, total = 0;
    for (const sim::Job& job : workload.jobs) {
      for (const sim::SiteConfig& site : workload.sites) {
        ++total;
        if (job.demand <= site.security) ++safe;
      }
    }
    return static_cast<double>(safe) / static_cast<double>(total);
  };
  EXPECT_LT(safe_pairs(risky), 0.5);
  EXPECT_GT(safe_pairs(secure), 0.8);
}

// ----------------------------------------------------- scenario registry ---

TEST(ScenarioRegistry, EveryNameMaterialises) {
  const auto names = exp::scenario_names();
  EXPECT_GE(names.size(), 8u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    const exp::Scenario scenario = exp::make_scenario(name, 64);
    const Workload workload = exp::make_workload(scenario, 23);
    EXPECT_EQ(workload.jobs.size(), 64u);
    EXPECT_FALSE(workload.sites.empty());
    EXPECT_FALSE(exp::scenario_description(name).empty());
  }
}

TEST(ScenarioRegistry, ContainsPaperAndSynthFamilies) {
  const auto names = exp::scenario_names();
  for (const char* required :
       {"nas", "psa", "synth-consistent-hihi", "synth-inconsistent-hihi",
        "synth-batch", "synth-bursty", "synth-secure", "synth-risky",
        "synth-churn-lo", "synth-churn-hi"}) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), required) != names.end())
        << required;
  }
}

TEST(Churn, ParamsAreDeterministicAndSpread) {
  ChurnConfig config;
  config.enabled = true;
  config.mtbf_mean = 40000.0;
  config.mttr_mean = 4000.0;
  config.spread = 0.5;
  util::Rng rng_a(99);
  util::Rng rng_b(99);
  const auto a = churn_params(16, config, rng_a);
  const auto b = churn_params(16, config, rng_b);
  ASSERT_EQ(a.size(), 16u);
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_DOUBLE_EQ(a[s].mtbf, b[s].mtbf);
    EXPECT_DOUBLE_EQ(a[s].mttr, b[s].mttr);
    EXPECT_TRUE(a[s].churns());
    EXPECT_GE(a[s].mtbf, config.mtbf_mean * 0.5);
    EXPECT_LE(a[s].mtbf, config.mtbf_mean * 1.5);
    EXPECT_GE(a[s].mttr, config.mttr_mean * 0.5);
    EXPECT_LE(a[s].mttr, config.mttr_mean * 1.5);
  }
  // Heterogeneous: not every site shares one MTBF.
  EXPECT_NE(a.front().mtbf, a.back().mtbf);
}

TEST(Churn, DisabledConfigYieldsNoParams) {
  util::Rng rng(1);
  EXPECT_TRUE(churn_params(8, ChurnConfig{}, rng).empty());
}

TEST(Churn, RejectsDegenerateConfigs) {
  util::Rng rng(1);
  ChurnConfig config;
  config.enabled = true;
  config.mtbf_mean = 0.0;
  config.mttr_mean = 100.0;
  EXPECT_THROW(churn_params(4, config, rng), std::invalid_argument);
  config.mtbf_mean = 100.0;
  config.mttr_mean = -1.0;
  EXPECT_THROW(churn_params(4, config, rng), std::invalid_argument);
  config.mttr_mean = 100.0;
  config.spread = 1.0;
  EXPECT_THROW(churn_params(4, config, rng), std::invalid_argument);
}

TEST(Churn, GeneratorAttachesParamsOnlyWhenEnabled) {
  SynthConfig config;
  config.n_jobs = 40;
  config.n_sites = 6;
  EXPECT_TRUE(synth_workload(config, 5).churn.empty());

  config.churn.enabled = true;
  config.churn.mtbf_mean = 30000.0;
  config.churn.mttr_mean = 3000.0;
  const Workload churned = synth_workload(config, 5);
  EXPECT_EQ(churned.churn.size(), 6u);

  // Enabling churn must not perturb the other streams: jobs identical.
  const Workload base = synth_workload([&] {
    SynthConfig plain = config;
    plain.churn = ChurnConfig{};
    return plain;
  }(), 5);
  ASSERT_EQ(base.jobs.size(), churned.jobs.size());
  for (std::size_t j = 0; j < base.jobs.size(); ++j) {
    EXPECT_DOUBLE_EQ(base.jobs[j].work, churned.jobs[j].work);
    EXPECT_DOUBLE_EQ(base.jobs[j].arrival, churned.jobs[j].arrival);
    EXPECT_EQ(base.jobs[j].nodes, churned.jobs[j].nodes);
  }
}

TEST(ScenarioRegistry, UnknownNameThrowsInvalidArgument) {
  EXPECT_THROW(exp::make_scenario("no-such-scenario"), std::invalid_argument);
  EXPECT_THROW(exp::scenario_description("no-such-scenario"),
               std::invalid_argument);
}

TEST(ScenarioRegistry, RegistryWorkloadsAreDeterministic) {
  for (const std::string& name : exp::scenario_names()) {
    SCOPED_TRACE(name);
    const Workload a = exp::make_workload(exp::make_scenario(name, 64), 31);
    const Workload b = exp::make_workload(exp::make_scenario(name, 64), 31);
    std::ostringstream sa, sb;
    write_jobs(sa, a.jobs);
    write_jobs(sb, b.jobs);
    EXPECT_EQ(sa.str(), sb.str());
  }
}

}  // namespace
}  // namespace gridsched::workload::synth
