#include "workload/nas.hpp"
#include "workload/psa.hpp"
#include "workload/sites.hpp"
#include "workload/trace_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "exp/scenario_registry.hpp"
#include "security/security.hpp"

namespace gridsched::workload {
namespace {

// ---------------------------------------------------------------- sites ---

TEST(NasSites, MatchesPaperLayout) {
  util::Rng rng(1);
  const auto sites = nas_sites(rng);
  ASSERT_EQ(sites.size(), 12u);
  std::size_t sixteen = 0;
  std::size_t eight = 0;
  unsigned total_nodes = 0;
  for (const auto& site : sites) {
    total_nodes += site.nodes;
    if (site.nodes == 16) ++sixteen;
    if (site.nodes == 8) ++eight;
    EXPECT_DOUBLE_EQ(site.speed, 1.0);
    EXPECT_GE(site.security, security::kSiteSecurityLo);
    EXPECT_LE(site.security, security::kSiteSecurityHi);
  }
  EXPECT_EQ(sixteen, 4u);
  EXPECT_EQ(eight, 8u);
  EXPECT_EQ(total_nodes, 128u);  // the mapped iPSC/860
}

TEST(NasSites, GuaranteesSafeHomeForLargestJobs) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    util::Rng rng(seed);
    const auto sites = nas_sites(rng);
    const bool safe_big_site = std::any_of(
        sites.begin(), sites.end(), [](const sim::SiteConfig& site) {
          return site.nodes >= 16 && site.security >= security::kJobDemandHi;
        });
    EXPECT_TRUE(safe_big_site) << "seed " << seed;
  }
}

TEST(PsaSites, SpeedsAreTheTenLevels) {
  util::Rng rng(2);
  const auto sites = psa_sites(rng, 20);
  ASSERT_EQ(sites.size(), 20u);
  for (const auto& site : sites) {
    EXPECT_EQ(site.nodes, 1u);
    const double level = site.speed / 10.0;
    EXPECT_GE(level, 1.0);
    EXPECT_LE(level, 10.0);
    EXPECT_DOUBLE_EQ(level, std::round(level));
  }
}

TEST(PsaSites, RejectsZeroCount) {
  util::Rng rng(3);
  EXPECT_THROW(psa_sites(rng, 0), std::invalid_argument);
}

TEST(EnsureSafeHome, BumpsHighestEligibleSite) {
  util::Rng rng(4);
  std::vector<sim::SiteConfig> sites = {
      {0, 4, 1.0, 0.5}, {1, 8, 1.0, 0.7}, {2, 2, 1.0, 0.99}};
  ensure_safe_home(sites, 8, 0.9, rng);
  // Site 2 is safe but too small; site 1 must have been raised.
  EXPECT_GE(sites[1].security, 0.9);
  EXPECT_DOUBLE_EQ(sites[0].security, 0.5);
}

TEST(EnsureSafeHome, NoopWhenAlreadySafe) {
  util::Rng rng(5);
  std::vector<sim::SiteConfig> sites = {{0, 8, 1.0, 0.95}, {1, 8, 1.0, 0.5}};
  const double before = sites[0].security;
  ensure_safe_home(sites, 8, 0.9, rng);
  EXPECT_DOUBLE_EQ(sites[0].security, before);
  EXPECT_DOUBLE_EQ(sites[1].security, 0.5);
}

TEST(EnsureSafeHome, ThrowsWhenNothingFits) {
  util::Rng rng(6);
  std::vector<sim::SiteConfig> sites = {{0, 4, 1.0, 0.5}};
  EXPECT_THROW(ensure_safe_home(sites, 8, 0.9, rng), std::invalid_argument);
}

// ------------------------------------------------------------------ NAS ---

NasTraceConfig small_nas(std::size_t n = 400) {
  NasTraceConfig config;
  config.n_jobs = n;
  config.horizon = 2.0 * 86400.0;
  return config;
}

TEST(NasJobs, GeneratesRequestedCount) {
  util::Rng site_rng(7);
  const auto sites = nas_sites(site_rng);
  const auto jobs = nas_jobs(small_nas(), sites, 11);
  EXPECT_EQ(jobs.size(), 400u);
}

TEST(NasJobs, SizesArePowersOfTwoCappedBySites) {
  util::Rng site_rng(8);
  const auto sites = nas_sites(site_rng);
  const auto jobs = nas_jobs(small_nas(2000), sites, 12);
  std::set<unsigned> sizes;
  for (const auto& job : jobs) {
    EXPECT_LE(job.nodes, 16u);
    EXPECT_EQ(job.nodes & (job.nodes - 1), 0u) << job.nodes;  // power of two
    sizes.insert(job.nodes);
  }
  EXPECT_EQ(sizes.size(), 5u);  // 1, 2, 4, 8, 16 all occur in 2000 draws
}

TEST(NasJobs, ArrivalsSortedWithinHorizon) {
  util::Rng site_rng(9);
  const auto sites = nas_sites(site_rng);
  const auto config = small_nas();
  const auto jobs = nas_jobs(config, sites, 13);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_GE(jobs[i].arrival, 0.0);
    EXPECT_LE(jobs[i].arrival, config.horizon);
    if (i > 0) {
      EXPECT_GE(jobs[i].arrival, jobs[i - 1].arrival);
    }
  }
}

TEST(NasJobs, DemandsInPaperRange) {
  util::Rng site_rng(10);
  const auto sites = nas_sites(site_rng);
  for (const auto& job : nas_jobs(small_nas(), sites, 14)) {
    EXPECT_GE(job.demand, security::kJobDemandLo);
    EXPECT_LE(job.demand, security::kJobDemandHi);
  }
}

TEST(NasJobs, HitsTargetLoadApproximately) {
  util::Rng site_rng(11);
  const auto sites = nas_sites(site_rng);
  NasTraceConfig config = small_nas(3000);
  config.target_load = 0.75;
  const auto jobs = nas_jobs(config, sites, 15);
  double offered = 0.0;
  for (const auto& job : jobs) offered += job.work * job.nodes;
  double capacity = 0.0;
  for (const auto& site : sites) {
    capacity += static_cast<double>(site.nodes) * site.speed * config.horizon;
  }
  // Runtime clamping distorts the rescale slightly; 15% tolerance.
  EXPECT_NEAR(offered / capacity, 0.75, 0.115);
}

TEST(NasJobs, RuntimesWithinClamp) {
  util::Rng site_rng(12);
  const auto sites = nas_sites(site_rng);
  const auto config = small_nas(1000);
  for (const auto& job : nas_jobs(config, sites, 16)) {
    EXPECT_GE(job.work, config.min_runtime);
    EXPECT_LE(job.work, config.max_runtime);
  }
}

TEST(NasJobs, DeterministicInSeed) {
  util::Rng site_rng(13);
  const auto sites = nas_sites(site_rng);
  const auto a = nas_jobs(small_nas(), sites, 99);
  const auto b = nas_jobs(small_nas(), sites, 99);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].arrival, b[i].arrival);
    EXPECT_DOUBLE_EQ(a[i].work, b[i].work);
    EXPECT_EQ(a[i].nodes, b[i].nodes);
  }
}

TEST(NasArrivalIntensity, DiurnalAndWeekendShape) {
  const NasTraceConfig config;
  // Afternoon of day 1 (weekday) vs deep night of day 1.
  const double afternoon = nas_arrival_intensity(15.0 * 3600.0, config);
  const double night = nas_arrival_intensity(3.0 * 3600.0, config);
  EXPECT_GT(afternoon, night);
  // Same hour, Saturday (day 5) is damped vs Monday (day 0).
  const double monday = nas_arrival_intensity(15.0 * 3600.0, config);
  const double saturday =
      nas_arrival_intensity((5.0 * 24.0 + 15.0) * 3600.0, config);
  EXPECT_GT(monday, saturday);
}

TEST(NasWorkload, BundlesSitesAndJobs) {
  NasTraceConfig config = small_nas(200);
  const Workload workload = nas_workload(config, 21);
  EXPECT_EQ(workload.name, "NAS");
  EXPECT_EQ(workload.sites.size(), 12u);
  EXPECT_EQ(workload.jobs.size(), 200u);
}

TEST(NasJobs, RejectsBadConfig) {
  util::Rng site_rng(14);
  const auto sites = nas_sites(site_rng);
  NasTraceConfig zero = small_nas(0);
  EXPECT_THROW(nas_jobs(zero, sites, 1), std::invalid_argument);
  NasTraceConfig bad_weights = small_nas();
  bad_weights.size_weights.clear();
  EXPECT_THROW(nas_jobs(bad_weights, sites, 1), std::invalid_argument);
}

// Every size_weights entry must be finite and >= 0 (a NaN entry used to
// pass), and the list must carry some weight.
TEST(NasJobs, RejectsNonFiniteOrNegativeSizeWeights) {
  util::Rng site_rng(14);
  const auto sites = nas_sites(site_rng);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& weights :
       std::vector<std::vector<double>>{
           {nan, 1.0}, {1.0, inf}, {0.5, -0.1, 0.6}, {0.0, 0.0}}) {
    NasTraceConfig config = small_nas();
    config.size_weights = weights;
    try {
      (void)nas_jobs(config, sites, 1);
      ADD_FAILURE() << "accepted size_weights of " << weights.size()
                    << " entries";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("size_weights"),
                std::string::npos)
          << error.what();
    }
  }
}

// ------------------------------------------------------------------ PSA ---

TEST(PsaJobs, GeneratesRequestedCount) {
  PsaConfig config;
  config.n_jobs = 500;
  EXPECT_EQ(psa_jobs(config, 31).size(), 500u);
}

TEST(PsaJobs, WorkloadsAreTheTwentyLevels) {
  PsaConfig config;
  config.n_jobs = 2000;
  const double level_size = config.max_workload / 20.0;
  std::set<long> levels;
  for (const auto& job : psa_jobs(config, 32)) {
    EXPECT_EQ(job.nodes, 1u);  // sequential by definition
    const double level = job.work / level_size;
    EXPECT_DOUBLE_EQ(level, std::round(level));
    EXPECT_GE(level, 1.0);
    EXPECT_LE(level, 20.0);
    levels.insert(static_cast<long>(level));
  }
  EXPECT_EQ(levels.size(), 20u);
}

TEST(PsaJobs, PoissonInterarrivalMean) {
  PsaConfig config;
  config.n_jobs = 20000;
  config.arrival_rate = 0.008;
  const auto jobs = psa_jobs(config, 33);
  const double span = jobs.back().arrival;
  const double mean_gap = span / static_cast<double>(jobs.size());
  EXPECT_NEAR(mean_gap, 125.0, 4.0);  // 1 / 0.008
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_GE(jobs[i].arrival, jobs[i - 1].arrival);
  }
}

TEST(PsaJobs, DemandsInPaperRange) {
  PsaConfig config;
  config.n_jobs = 300;
  for (const auto& job : psa_jobs(config, 34)) {
    EXPECT_GE(job.demand, security::kJobDemandLo);
    EXPECT_LE(job.demand, security::kJobDemandHi);
  }
}

TEST(PsaJobs, RejectsBadConfig) {
  PsaConfig config;
  config.n_jobs = 0;
  EXPECT_THROW(psa_jobs(config, 1), std::invalid_argument);
  config.n_jobs = 10;
  config.arrival_rate = 0.0;
  EXPECT_THROW(psa_jobs(config, 1), std::invalid_argument);
  config.arrival_rate = 0.01;
  config.workload_levels = 0;
  EXPECT_THROW(psa_jobs(config, 1), std::invalid_argument);
}

TEST(PsaWorkload, BundlesSitesAndJobs) {
  PsaConfig config;
  config.n_jobs = 100;
  config.n_sites = 15;
  const Workload workload = psa_workload(config, 35);
  EXPECT_EQ(workload.name, "PSA");
  EXPECT_EQ(workload.sites.size(), 15u);
  EXPECT_EQ(workload.jobs.size(), 100u);
}

// ------------------------------------------------------------- trace IO ---

TEST(TraceIo, JobRoundTrip) {
  PsaConfig config;
  config.n_jobs = 50;
  auto jobs = psa_jobs(config, 41);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<sim::JobId>(i);
  }
  std::stringstream stream;
  write_jobs(stream, jobs);
  const auto parsed = read_jobs(stream);
  ASSERT_EQ(parsed.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(parsed[i].id, jobs[i].id);
    EXPECT_NEAR(parsed[i].arrival, jobs[i].arrival, 1e-4);
    EXPECT_NEAR(parsed[i].work, jobs[i].work, 1e-4);
    EXPECT_EQ(parsed[i].nodes, jobs[i].nodes);
    EXPECT_NEAR(parsed[i].demand, jobs[i].demand, 1e-6);
  }
}

TEST(TraceIo, SiteRoundTrip) {
  util::Rng rng(42);
  const auto sites = nas_sites(rng);
  std::stringstream stream;
  write_sites(stream, sites);
  const auto parsed = read_sites(stream);
  ASSERT_EQ(parsed.size(), sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    EXPECT_EQ(parsed[i].id, sites[i].id);
    EXPECT_EQ(parsed[i].nodes, sites[i].nodes);
    EXPECT_NEAR(parsed[i].security, sites[i].security, 1e-6);
  }
}

TEST(TraceIo, SkipsCommentsAndBlankLines) {
  std::stringstream stream;
  stream << "; a comment\n\n  \n7 1.5 10.0 2 0.8\n";
  const auto jobs = read_jobs(stream);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].id, 7u);
  EXPECT_EQ(jobs[0].nodes, 2u);
}

TEST(TraceIo, RejectsMalformedRecords) {
  std::stringstream garbage("1 2 three 4 5\n");
  EXPECT_THROW(read_jobs(garbage), std::runtime_error);
  std::stringstream truncated("1 2 3\n");
  EXPECT_THROW(read_jobs(truncated), std::runtime_error);
  std::stringstream negative_work("1 0.0 -5.0 1 0.5\n");
  EXPECT_THROW(read_jobs(negative_work), std::runtime_error);
  std::stringstream zero_nodes("1 0.0 5.0 0 0.5\n");
  EXPECT_THROW(read_jobs(zero_nodes), std::runtime_error);
}

TEST(TraceIo, RejectsBadSites) {
  std::stringstream zero_speed("0 4 0.0 0.5\n");
  EXPECT_THROW(read_sites(zero_speed), std::runtime_error);
}

TEST(TraceIo, EtcSectionRoundTripsBitExactly) {
  // Two jobs x three sites with awkward doubles: the max_digits10 writer
  // and the strtod-equivalent reader must round-trip every bit.
  std::vector<sim::Job> jobs(2);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<sim::JobId>(i);
    jobs[i].arrival = static_cast<double>(i);
    jobs[i].work = 10.0;
    jobs[i].nodes = 1;
    jobs[i].demand = 0.5;
  }
  const std::vector<double> cells = {0.1, 1.0 / 3.0, 7.25,
                                     1e-3, 9.875e4, 2.0};
  const sim::ExecModel exec(2, 3, cells);
  std::stringstream stream;
  write_jobs(stream, jobs, exec);
  const JobsTrace trace = read_jobs_trace(stream);
  ASSERT_EQ(trace.jobs.size(), 2u);
  ASSERT_TRUE(trace.exec.has_matrix());
  EXPECT_EQ(trace.exec.matrix_jobs(), 2u);
  EXPECT_EQ(trace.exec.matrix_sites(), 3u);
  const auto parsed = trace.exec.matrix_cells();
  ASSERT_EQ(parsed.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(parsed[i], cells[i]);  // bit-exact, not NEAR
  }
}

TEST(TraceIo, V1FilesStillReadWithoutEtc) {
  std::stringstream stream;
  stream << "; gridsched job trace v1\n7 1.5 10.0 2 0.8\n";
  const JobsTrace trace = read_jobs_trace(stream);
  ASSERT_EQ(trace.jobs.size(), 1u);
  EXPECT_FALSE(trace.exec.has_matrix());
}

TEST(TraceIo, V1ReadersSkipTheEtcSectionAsComments) {
  // Forward compatibility: the plain-records reader sees ";etc" lines as
  // comments and still returns the job list.
  std::vector<sim::Job> jobs(1);
  jobs[0].id = 0;
  jobs[0].arrival = 0.0;
  jobs[0].work = 5.0;
  jobs[0].nodes = 1;
  jobs[0].demand = 0.5;
  std::stringstream stream;
  write_jobs(stream, jobs, sim::ExecModel(1, 2, {1.0, 2.0}));
  const std::string text = stream.str();
  EXPECT_NE(text.find(";etc v1 1 2"), std::string::npos);
  // Simulate a v1 reader: strip nothing, use the records-only API — the
  // section parses (and validates) but only jobs are returned.
  std::stringstream again(text);
  EXPECT_EQ(read_jobs(again).size(), 1u);
}

TEST(TraceIo, MalformedEtcSectionsThrow) {
  const std::string job_line = "0 0.0 5.0 1 0.5\n";
  // Row before header.
  std::stringstream no_header(job_line + ";etc-row 0 1.0\n");
  EXPECT_THROW(read_jobs_trace(no_header), std::runtime_error);
  // Row count mismatch vs header.
  std::stringstream missing_rows(job_line + ";etc v1 1 2\n");
  EXPECT_THROW(read_jobs_trace(missing_rows), std::runtime_error);
  // Out-of-order row index.
  std::stringstream bad_index(job_line + ";etc v1 1 2\n;etc-row 1 1.0 2.0\n");
  EXPECT_THROW(read_jobs_trace(bad_index), std::runtime_error);
  // Wrong cell count in a row.
  std::stringstream short_row(job_line + ";etc v1 1 2\n;etc-row 0 1.0\n");
  EXPECT_THROW(read_jobs_trace(short_row), std::runtime_error);
  std::stringstream long_row(job_line +
                             ";etc v1 1 2\n;etc-row 0 1.0 2.0 3.0\n");
  EXPECT_THROW(read_jobs_trace(long_row), std::runtime_error);
  // Shape disagrees with the job list.
  std::stringstream wrong_jobs(job_line +
                               ";etc v1 2 1\n;etc-row 0 1.0\n;etc-row 1 2.0\n");
  EXPECT_THROW(read_jobs_trace(wrong_jobs), std::runtime_error);
  // Non-positive cells are rejected by the ExecModel invariant.
  std::stringstream bad_cell(job_line + ";etc v1 1 2\n;etc-row 0 1.0 -2.0\n");
  EXPECT_THROW(read_jobs_trace(bad_cell), std::invalid_argument);
  // Unknown section version.
  std::stringstream bad_version(job_line + ";etc v9 1 1\n;etc-row 0 1.0\n");
  EXPECT_THROW(read_jobs_trace(bad_version), std::runtime_error);
  // A huge header shape with no rows is a row-count error, not an
  // allocation sized by the header.
  std::stringstream huge(job_line + ";etc v1 1000000000000000 1\n");
  try {
    read_jobs_trace(huge);
    FAIL() << "a header-only ETC section was accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("covers 0/1000000000000000 rows"),
              std::string::npos)
        << error.what();
  }
}

TEST(TraceIo, WriteRejectsEtcShapeMismatch) {
  std::vector<sim::Job> jobs(3);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<sim::JobId>(i);
    jobs[i].work = 1.0;
    jobs[i].nodes = 1;
    jobs[i].demand = 0.5;
  }
  std::stringstream stream;
  EXPECT_THROW(write_jobs(stream, jobs, sim::ExecModel(2, 2, {1, 2, 3, 4})),
               std::runtime_error);
}

TEST(TraceIo, SynthWorkloadEtcRoundTripsThroughFiles) {
  // End to end: a raw-ETC scenario serialises through generate-style
  // writes and replays with the exact same matrix.
  const exp::Scenario scenario = exp::make_scenario("synth-inconsistent-hihi",
                                                    30);
  const Workload workload = exp::make_workload(scenario, 11);
  ASSERT_TRUE(workload.exec.has_matrix());
  const std::string path = testing::TempDir() + "synth_etc.trace";
  write_jobs_file(path, workload.jobs, workload.exec);
  const JobsTrace trace = read_jobs_trace_file(path);
  ASSERT_TRUE(trace.exec.has_matrix());
  const auto original = workload.exec.matrix_cells();
  const auto parsed = trace.exec.matrix_cells();
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    ASSERT_EQ(parsed[i], original[i]);
  }
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(read_jobs_file("/nonexistent/path/jobs.trace"),
               std::runtime_error);
  EXPECT_THROW(read_sites_file("/nonexistent/path/sites.trace"),
               std::runtime_error);
}

TEST(TraceIo, FileRoundTrip) {
  PsaConfig config;
  config.n_jobs = 10;
  auto jobs = psa_jobs(config, 77);
  const std::string path = ::testing::TempDir() + "/gridsched_jobs.trace";
  write_jobs_file(path, jobs);
  const auto parsed = read_jobs_file(path);
  EXPECT_EQ(parsed.size(), jobs.size());
}

}  // namespace
}  // namespace gridsched::workload
