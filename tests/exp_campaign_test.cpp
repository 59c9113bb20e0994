#include "exp/campaign/campaign_aggregator.hpp"
#include "exp/campaign/campaign_runner.hpp"
#include "exp/campaign/campaign_sinks.hpp"
#include "exp/campaign/campaign_spec.hpp"
#include "exp/scenario.hpp"
#include "obs/timeseries.hpp"
#include "util/file.hpp"
#include "workload/synth/synth.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace gridsched::exp::campaign {
namespace {

/// A fast campaign: two heuristics over two small scenarios, two reps.
CampaignSpec mini_spec() {
  return parse_spec_text(R"({
    "name": "mini",
    "seed": 99,
    "replications": 2,
    "metrics": ["makespan", "slowdown", "n_fail"],
    "scenarios": [
      {"name": "psa", "jobs": 40},
      {"name": "synth-batch", "jobs": 40}
    ],
    "policies": [
      {"algo": "min-min", "mode": "f-risky"},
      {"algo": "sufferage", "mode": "risky"}
    ]
  })");
}

// ------------------------------------------------------------------ spec ---

TEST(CampaignSpec, ParsesFullSchema) {
  const CampaignSpec spec = parse_spec_text(R"({
    "name": "full",
    "seed": 7,
    "replications": 3,
    "metrics": ["makespan"],
    "scenarios": [
      "psa",
      {"name": "nas", "jobs": 500, "label": "nas-small", "batch_interval": 1000}
    ],
    "policies": [
      "min-min",
      {"algo": "sufferage", "mode": "secure", "label": "suff-sec"},
      {"algo": "stga", "ga": {"population": 32, "generations": 10,
                              "table_capacity": 50}}
    ]
  })");
  EXPECT_EQ(spec.name, "full");
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(spec.replications, 3u);
  ASSERT_EQ(spec.scenarios.size(), 2u);
  EXPECT_EQ(spec.scenarios[0].display(), "psa");
  EXPECT_EQ(spec.scenarios[1].display(), "nas-small");
  EXPECT_EQ(spec.scenarios[1].n_jobs, 500u);
  const Scenario nas = spec.scenarios[1].resolve();
  EXPECT_EQ(nas.nas.n_jobs, 500u);
  EXPECT_DOUBLE_EQ(nas.engine.batch_interval, 1000.0);
  ASSERT_EQ(spec.policies.size(), 3u);
  EXPECT_EQ(spec.policies[0].display(), "min-min-f-risky");
  EXPECT_EQ(spec.policies[1].display(), "suff-sec");
  EXPECT_EQ(spec.policies[2].display(), "stga");
  EXPECT_EQ(spec.policies[2].stga.ga.population, 32u);
  EXPECT_EQ(spec.policies[2].stga.table_capacity, 50u);
  // STGA policies resolve to a training-enabled AlgorithmSpec.
  EXPECT_TRUE(spec.policies[2].resolve().wants_training);
}

TEST(CampaignSpec, ErrorPaths) {
  // Unknown scenario name.
  EXPECT_THROW(parse_spec_text(R"({"scenarios": ["no-such-scenario"],
                                   "policies": ["min-min"]})"),
               std::invalid_argument);
  // Unknown policy algo.
  EXPECT_THROW(parse_spec_text(R"({"scenarios": ["psa"],
                                   "policies": ["no-such-algo"]})"),
               std::invalid_argument);
  // Unknown mode.
  EXPECT_THROW(parse_spec_text(R"({"scenarios": ["psa"],
        "policies": [{"algo": "min-min", "mode": "yolo"}]})"),
               std::invalid_argument);
  // Unknown metric.
  EXPECT_THROW(parse_spec_text(R"({"metrics": ["goodput"],
        "scenarios": ["psa"], "policies": ["min-min"]})"),
               std::invalid_argument);
  // Unknown key (typo'd "generatoins").
  EXPECT_THROW(parse_spec_text(R"({"scenarios": ["psa"],
        "policies": [{"algo": "stga", "ga": {"generatoins": 5}}]})"),
               std::invalid_argument);
  // No-effect keys are rejected, not silently ignored.
  EXPECT_THROW(parse_spec_text(R"({"scenarios": ["psa"],
        "policies": [{"algo": "stga", "mode": "secure"}]})"),
               std::invalid_argument);
  EXPECT_THROW(parse_spec_text(R"({"scenarios": ["psa"],
        "policies": [{"algo": "ga", "f": 0.3}]})"),
               std::invalid_argument);
  EXPECT_THROW(parse_spec_text(R"({"scenarios": ["psa"],
        "policies": [{"algo": "min-min", "ga": {"population": 8}}]})"),
               std::invalid_argument);
  // Only f-risky reads "f"; secure and risky would silently drop it.
  EXPECT_THROW(parse_spec_text(R"({"scenarios": ["psa"],
        "policies": [{"algo": "min-min", "mode": "secure", "f": 0.3}]})"),
               std::invalid_argument);
  EXPECT_THROW(parse_spec_text(R"({"scenarios": ["psa"],
        "policies": [{"algo": "sufferage", "mode": "risky", "f": 1.0}]})"),
               std::invalid_argument);
  // f outside [0, 1]; a NaN f (no JSON spelling, so built in code) fails
  // both the spec check and the shared entry parser that `gridsched_cli
  // run` feeds its flags through.
  EXPECT_THROW(parse_spec_text(R"({"scenarios": ["psa"],
        "policies": [{"algo": "min-min", "f": 2}]})"),
               std::invalid_argument);
  CampaignSpec nan_f = mini_spec();
  nan_f.policies[0].f = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(nan_f.validate(), std::invalid_argument);
  using util::json::Members;
  using util::json::Value;
  const auto entry = [](double f) {
    return Value(Members{{"algo", Value(std::string("min-min"))},
                         {"f", Value(f)}});
  };
  EXPECT_DOUBLE_EQ(parse_policy(entry(0.25)).f, 0.25);
  EXPECT_THROW(parse_policy(entry(std::numeric_limits<double>::quiet_NaN())),
               std::invalid_argument);
  EXPECT_THROW(parse_policy(entry(2.0)), std::invalid_argument);
  EXPECT_THROW(parse_policy(Value(Members{{"algo", Value(std::string("stga"))},
                                          {"mode", Value(std::string("secure"))}})),
               std::invalid_argument);
  // Duplicate labels need explicit disambiguation.
  EXPECT_THROW(parse_spec_text(R"({"scenarios": ["psa", "psa"],
                                   "policies": ["min-min"]})"),
               std::invalid_argument);
  // Structural violations.
  EXPECT_THROW(parse_spec_text(R"({"scenarios": [], "policies": ["min-min"]})"),
               std::invalid_argument);
  EXPECT_THROW(parse_spec_text(R"({"replications": 0, "scenarios": ["psa"],
                                   "policies": ["min-min"]})"),
               std::invalid_argument);
  // Malformed JSON.
  EXPECT_THROW(parse_spec_text("{\"scenarios\": [\"psa\""),
               std::runtime_error);
}

TEST(CampaignSpec, MissingSpecFileNamesPath) {
  EXPECT_THROW(static_cast<void>(load_spec("/nonexistent/campaign.json")),
               std::runtime_error);
}

TEST(CampaignSpec, CustomScenariosHonourOverrides) {
  ScenarioRef ref;
  ref.label = "custom-psa";
  ref.custom = psa_scenario(250);
  ref.n_jobs = 77;
  ref.batch_interval = 500.0;
  const Scenario resolved = ref.resolve();
  EXPECT_EQ(resolved.psa.n_jobs, 77u);
  EXPECT_DOUBLE_EQ(resolved.engine.batch_interval, 500.0);
}

TEST(CampaignSpec, EveryCommittedSpecParsesAndExpands) {
  // Every spec under examples/campaigns/ (the paper figures included)
  // must stay loadable as the parser tightens; the name check keeps an
  // empty or mis-rooted glob from passing vacuously.
  const std::filesystem::path root =
      std::filesystem::path(GRIDSCHED_SOURCE_DIR) / "examples" / "campaigns";
  std::set<std::string> seen;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    if (entry.path().extension() != ".json") continue;
    const std::string relative =
        std::filesystem::relative(entry.path(), root).generic_string();
    SCOPED_TRACE(relative);
    const CampaignSpec spec = load_spec(entry.path().string());
    EXPECT_FALSE(expand(spec).empty());
    seen.insert(relative);
  }
  for (const char* name :
       {"table2.json", "chaos.json", "smoke.json", "smoke_slow.json",
        "paper/nas.json", "paper/fig7a.json", "paper/fig7b.json",
        "paper/fig10.json"}) {
    EXPECT_EQ(seen.count(name), 1u) << name;
  }
}

// ------------------------------------------------------------- expansion ---

TEST(CampaignExpand, MatrixOrderAndDistinctSeeds) {
  const CampaignSpec spec = mini_spec();
  const std::vector<Cell> cells = expand(spec);
  ASSERT_EQ(cells.size(), 2u * 2u * 2u);
  // Policies are paired: one seed per (scenario, replication), shared by
  // every policy and distinct from every other pair's.
  std::map<std::pair<std::size_t, std::size_t>, std::uint64_t> pair_seed;
  for (const Cell& cell : cells) {
    const auto key = std::make_pair(cell.scenario, cell.replication);
    const auto it = pair_seed.emplace(key, cell.seed).first;
    EXPECT_EQ(it->second, cell.seed)
        << "scenario " << cell.scenario << " rep " << cell.replication
        << " policy " << cell.policy;
  }
  ASSERT_EQ(pair_seed.size(), 2u * 2u);
  std::set<std::uint64_t> seeds;
  for (const auto& [key, seed] : pair_seed) seeds.insert(seed);
  EXPECT_EQ(seeds.size(), pair_seed.size());  // pair streams distinct
  // Scenario-major, policy-minor, replication-innermost.
  EXPECT_EQ(cells[0].scenario, 0u);
  EXPECT_EQ(cells[0].policy, 0u);
  EXPECT_EQ(cells[0].replication, 0u);
  EXPECT_EQ(cells[1].replication, 1u);
  EXPECT_EQ(cells[2].policy, 1u);
  EXPECT_EQ(cells[4].scenario, 1u);
}

TEST(CampaignExpand, SeedsDependOnLabelsNotIndices) {
  CampaignSpec spec = mini_spec();
  const std::uint64_t batch_seed = cell_seed(spec, 1, 0);
  // Inserting a scenario in front must not reseed synth-batch's cells.
  ScenarioRef extra;
  extra.name = "nas";
  spec.scenarios.insert(spec.scenarios.begin(), extra);
  EXPECT_EQ(cell_seed(spec, 2, 0), batch_seed);
  // Nor may inserting a policy: the policy axis never enters the seed.
  PolicyRef policy;
  policy.algo = "mct";
  spec.policies.insert(spec.policies.begin(), policy);
  for (const Cell& cell : expand(spec)) {
    if (cell.scenario == 2 && cell.replication == 0) {
      EXPECT_EQ(cell.seed, batch_seed) << "policy " << cell.policy;
    }
  }
}

// ----------------------------------------------------------- determinism ---

TEST(CampaignRunner, ByteIdenticalJsonAcrossThreadCounts) {
  const CampaignSpec spec = mini_spec();
  std::string baseline;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    RunnerOptions options;
    options.threads = threads;
    const CampaignResult result = CampaignRunner(options).run(spec);
    const std::string artifact = render_json(result);
    if (baseline.empty()) {
      baseline = artifact;
    } else {
      EXPECT_EQ(artifact, baseline) << "threads=" << threads;
    }
  }
  EXPECT_FALSE(baseline.empty());
}

TEST(CampaignRunner, PoliciesOfAReplicationArePaired) {
  // The same heuristic under two labels must see the same workload and
  // the same failure draws, so every replication's metrics agree bit for
  // bit between the two groups; across replications they must differ.
  const CampaignSpec spec = parse_spec_text(R"({
    "name": "paired",
    "seed": 11,
    "replications": 3,
    "scenarios": [{"name": "psa", "jobs": 120}],
    "policies": [
      {"algo": "min-min", "mode": "risky", "label": "a"},
      {"algo": "min-min", "mode": "risky", "label": "b"}
    ]
  })");
  RunnerOptions options;
  options.threads = 2;
  const CampaignResult result = CampaignRunner(options).run(spec);
  ASSERT_EQ(result.cells.size(), 6u);
  for (std::size_t r = 0; r < 3; ++r) {
    const metrics::RunMetrics& a = result.cells[r].metrics;
    const metrics::RunMetrics& b = result.cells[3 + r].metrics;
    ASSERT_EQ(result.cells[3 + r].cell.replication, r);
    for (const MetricDef& def : metric_defs()) {
      if (!def.deterministic) continue;
      EXPECT_EQ(def.value(a), def.value(b)) << def.key << " rep " << r;
    }
    EXPECT_EQ(a.site_utilization, b.site_utilization) << "rep " << r;
    EXPECT_GT(a.n_fail, 0u) << "rep " << r;  // the failure hash is shared
  }
  EXPECT_NE(result.cells[0].metrics.makespan,
            result.cells[1].metrics.makespan);
}

TEST(CampaignRunner, ChurnScenarioJsonIsByteIdenticalAcrossThreadCounts) {
  // The churn scenarios add two stochastic processes (site timelines,
  // revocations) on top of the failure draws; the aggregate artifact —
  // including the churn counters — must still be a pure function of the
  // spec, whatever the thread count.
  const CampaignSpec spec = parse_spec_text(R"({
    "name": "churn-mini",
    "seed": 77,
    "replications": 2,
    "metrics": ["makespan", "n_fail", "site_down_events", "interruptions",
                "n_interrupted", "churn_released_nodes"],
    "scenarios": [{"name": "synth-churn-lo", "jobs": 80},
                  {"name": "synth-churn-hi", "jobs": 80}],
    "policies": [{"algo": "min-min", "mode": "risky"}]
  })");
  std::string baseline;
  std::size_t down_events = 0;
  for (const std::size_t threads : {1u, 4u}) {
    RunnerOptions options;
    options.threads = threads;
    const CampaignResult result = CampaignRunner(options).run(spec);
    const std::string artifact = render_json(result);
    if (baseline.empty()) {
      baseline = artifact;
      for (const CellResult& cell : result.cells) {
        down_events += cell.metrics.site_down_events;
      }
    } else {
      EXPECT_EQ(artifact, baseline) << "threads=" << threads;
    }
  }
  EXPECT_FALSE(baseline.empty());
  // The scenarios actually churned (hi guarantees several outages).
  EXPECT_GT(down_events, 0u);
}

TEST(CampaignRunner, ProgressCallbackSeesEveryCell) {
  const CampaignSpec spec = mini_spec();
  RunnerOptions options;
  options.threads = 2;
  std::size_t calls = 0;
  std::size_t last_done = 0;
  options.on_cell = [&](const CellResult&, std::size_t done,
                        std::size_t total) {
    ++calls;
    EXPECT_EQ(total, 8u);
    EXPECT_GT(done, last_done);  // the mutex serialises increments
    last_done = done;
  };
  const CampaignResult result = CampaignRunner(options).run(spec);
  EXPECT_EQ(calls, result.cells.size());
}

TEST(CampaignRunner, FailingCellErrorNamesTheCell) {
  // A custom scenario whose workload generator throws at run time: under
  // --strict the campaign abort must label the exact {scenario, policy,
  // replication} instead of surfacing the worker's context-free message.
  // (The graceful default records the failure instead of throwing — see
  // exp_fault_tolerance_test.cpp.)
  CampaignSpec spec;
  spec.name = "boom";
  spec.seed = 5;
  spec.replications = 1;
  spec.metrics = {"makespan"};
  workload::synth::SynthConfig broken;
  broken.n_jobs = 10;
  broken.n_sites = 2;
  broken.site_node_pattern = {0};  // rejected by synth_workload
  ScenarioRef scenario;
  scenario.name = "bad-synth";
  scenario.custom = synth_scenario(broken);
  spec.scenarios.push_back(std::move(scenario));
  PolicyRef policy;
  policy.algo = "min-min";
  spec.policies.push_back(std::move(policy));

  RunnerOptions options;
  options.threads = 1;
  options.strict = true;
  try {
    CampaignRunner(options).run(spec);
    FAIL() << "expected the broken cell to abort the campaign";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("campaign cell"), std::string::npos) << what;
    EXPECT_NE(what.find("scenario=bad-synth"), std::string::npos) << what;
    EXPECT_NE(what.find("policy=min-min-f-risky"), std::string::npos) << what;
    EXPECT_NE(what.find("replication=0"), std::string::npos) << what;
    EXPECT_NE(what.find("zero-node site"), std::string::npos) << what;
  }
}

TEST(CampaignRunner, ProfileSidecarCarriesPerCellTiming) {
  const CampaignSpec spec = mini_spec();
  RunnerOptions options;
  options.threads = 2;
  const CampaignResult result = CampaignRunner(options).run(spec);
  for (const CellResult& cell : result.cells) {
    EXPECT_GE(cell.wall_seconds, 0.0);
  }
  const std::string profile = render_profile(result);
  EXPECT_NE(profile.find("\"campaign\": \"mini\""), std::string::npos);
  EXPECT_NE(profile.find("\"wall_seconds\""), std::string::npos);
  EXPECT_NE(profile.find("\"scheduler_seconds\""), std::string::npos);
  // One row per cell.
  std::size_t rows = 0;
  for (std::size_t at = profile.find("\"replication\"");
       at != std::string::npos;
       at = profile.find("\"replication\"", at + 1)) {
    ++rows;
  }
  EXPECT_EQ(rows, result.cells.size());
  // The byte-stable aggregate must NOT carry wall-clock fields.
  const std::string aggregate = render_json(result);
  EXPECT_EQ(aggregate.find("wall_seconds"), std::string::npos);
  EXPECT_EQ(aggregate.find("scheduler_seconds"), std::string::npos);
}

// ---------------------------------------------------- golden mini-campaign ---

TEST(CampaignRunner, GoldenMiniCampaignOverScenarioBatch) {
  // One scenario, one policy, 3 reps over synth-batch: aggregate means
  // must equal a hand-rolled reduction of the per-cell metrics, and the
  // whole run must reproduce exactly.
  const CampaignSpec spec = parse_spec_text(R"({
    "name": "golden",
    "seed": 2005,
    "replications": 3,
    "scenarios": [{"name": "synth-batch", "jobs": 60}],
    "policies": [{"algo": "min-min", "mode": "risky"}]
  })");
  RunnerOptions options;
  options.threads = 1;
  const CampaignResult result = CampaignRunner(options).run(spec);
  ASSERT_EQ(result.cells.size(), 3u);
  ASSERT_EQ(result.groups.size(), 1u);
  const GroupSummary& group = result.groups[0];
  EXPECT_EQ(group.scenario, "synth-batch");
  EXPECT_EQ(group.policy, "min-min-risky");
  EXPECT_EQ(group.cells, 3u);

  // Defaulted metrics = all deterministic ones (incl. the engine
  // counters and idle_sites), canonical order.
  ASSERT_EQ(group.metrics.size(), 17u);
  EXPECT_EQ(group.metrics[0].key, "makespan");
  util::RunningStats makespan;
  for (const CellResult& cell : result.cells) {
    makespan.add(cell.metrics.makespan);
    EXPECT_EQ(cell.metrics.n_jobs, 60u);
  }
  EXPECT_DOUBLE_EQ(group.metrics[0].summary.mean, makespan.mean());
  EXPECT_DOUBLE_EQ(group.metrics[0].summary.stddev, makespan.stddev());
  EXPECT_DOUBLE_EQ(group.metrics[0].summary.ci95,
                   makespan.ci95_halfwidth_t());
  EXPECT_GT(makespan.mean(), 0.0);
  EXPECT_EQ(result.jobs_simulated, 180u);

  // Bit-exact reproduction, including through the renderers.
  const CampaignResult again = CampaignRunner(options).run(spec);
  EXPECT_EQ(render_json(again), render_json(result));
  EXPECT_EQ(render_csv(again), render_csv(result));
}

// ----------------------------------------------------------------- sinks ---

TEST(CampaignSinks, JsonArtifactShapeAndStability) {
  RunnerOptions options;
  options.threads = 2;
  const CampaignResult result = CampaignRunner(options).run(mini_spec());
  const std::string artifact = render_json(result);
  // Valid JSON with the documented shape.
  const util::json::Value doc = util::json::parse(artifact);
  EXPECT_EQ(doc.at("campaign").as_string(), "mini");
  EXPECT_EQ(doc.at("replications").as_int(), 2);
  EXPECT_EQ(doc.at("groups").items().size(), 4u);
  EXPECT_EQ(doc.at("cells").items().size(), 8u);
  const util::json::Value& group = doc.at("groups").items()[0];
  EXPECT_EQ(group.at("metrics").at("makespan").at("count").as_int(), 2);
  // No wall-clock fields anywhere in the artifact.
  EXPECT_EQ(artifact.find("wall"), std::string::npos);
  EXPECT_EQ(artifact.find("scheduler_seconds"), std::string::npos);
}

TEST(CampaignSinks, SchedulerSecondsNeverEntersJson) {
  // Even when explicitly requested, the wall-clock metric only reaches
  // table/CSV output — the JSON artifact must stay deterministic.
  CampaignSpec spec = mini_spec();
  spec.metrics = {"makespan", "scheduler_seconds"};
  RunnerOptions options;
  options.threads = 1;
  const CampaignResult result = CampaignRunner(options).run(spec);
  EXPECT_EQ(render_json(result).find("scheduler_seconds"), std::string::npos);
  EXPECT_NE(render_csv(result).find("scheduler_seconds"), std::string::npos);
  EXPECT_NE(render_table(result).find("scheduler_seconds"),
            std::string::npos);
}

TEST(CampaignSinks, TableShowsThroughputFooter) {
  RunnerOptions options;
  options.threads = 1;
  const CampaignResult result = CampaignRunner(options).run(mini_spec());
  const std::string table = render_table(result);
  EXPECT_NE(table.find("cells/s"), std::string::npos);
  EXPECT_NE(table.find("8 cells"), std::string::npos);
}

TEST(CampaignSinks, WriteFileWritesRenderedArtifacts) {
  RunnerOptions options;
  options.threads = 1;
  const CampaignResult result = CampaignRunner(options).run(mini_spec());
  const std::string json_path = testing::TempDir() + "campaign_sink.json";
  const std::string csv_path = testing::TempDir() + "campaign_sink.csv";
  util::write_file(json_path, render_json(result));
  util::write_file(csv_path, render_csv(result));
  const auto read = [](const std::string& path) {
    std::ifstream in(path);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  EXPECT_EQ(read(json_path), render_json(result));
  const std::string csv = read(csv_path);
  EXPECT_EQ(csv, render_csv(result));
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "scenario,policy,metric,count,mean,stddev,ci95");
  EXPECT_EQ(util::json::parse_file(json_path).at("campaign").as_string(),
            "mini");
}

// ------------------------------------------------------------- timeseries ---

TEST(CampaignRunner, PerCellTimeseriesByteIdenticalAcrossThreadCounts) {
  // With telemetry sampling enabled, every cell carries a series and both
  // the per-cell artifacts and the cross-replication aggregate must be a
  // pure function of the spec — whatever the thread count.
  const CampaignSpec spec = mini_spec();
  std::map<std::string, std::string> baseline_cells;
  std::string baseline_aggregate;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    RunnerOptions options;
    options.threads = threads;
    options.timeseries_interval = 1000.0;
    const CampaignResult result = CampaignRunner(options).run(spec);
    std::map<std::string, std::string> cells;
    for (const CellResult& cell : result.cells) {
      ASSERT_NE(cell.series, nullptr);
      cells[timeseries_cell_filename(result, cell)] =
          obs::render_timeseries_json(*cell.series);
    }
    const std::string aggregate = render_series_aggregate_json(result);
    if (baseline_cells.empty()) {
      baseline_cells = std::move(cells);
      baseline_aggregate = aggregate;
    } else {
      EXPECT_EQ(cells, baseline_cells) << "threads=" << threads;
      EXPECT_EQ(aggregate, baseline_aggregate) << "threads=" << threads;
    }
  }
  ASSERT_EQ(baseline_cells.size(), 8u);  // 2 scenarios x 2 policies x 2 reps
  EXPECT_EQ(baseline_cells.count("psa__min-min-f-risky__rep0.json"), 1u);
  EXPECT_EQ(baseline_cells.count("synth-batch__sufferage-risky__rep1.json"),
            1u);
}

TEST(CampaignRunner, SeriesGroupsReduceAcrossReplications) {
  RunnerOptions options;
  options.threads = 1;
  options.timeseries_interval = 1000.0;
  const CampaignResult result = CampaignRunner(options).run(mini_spec());
  // One group per (scenario, policy), scenario-major like the metric
  // groups; every group reduces over both replications at t=0 and carries
  // the full column set.
  ASSERT_EQ(result.series_groups.size(), 4u);
  EXPECT_EQ(result.series_groups[0].scenario, "psa");
  EXPECT_EQ(result.series_groups[0].policy, "min-min-f-risky");
  EXPECT_EQ(result.series_groups[1].policy, "sufferage-risky");
  EXPECT_EQ(result.series_groups[2].scenario, "synth-batch");
  for (const SeriesGroupSummary& group : result.series_groups) {
    EXPECT_EQ(group.interval, 1000.0);
    EXPECT_EQ(group.replications, 2u);
    ASSERT_EQ(group.columns.size(), series_column_keys().size());
    ASSERT_FALSE(group.t.empty());
    for (std::size_t i = 0; i < group.t.size(); ++i) {
      EXPECT_EQ(group.t[i], static_cast<double>(i) * 1000.0);
    }
    for (const SeriesColumn& column : group.columns) {
      ASSERT_EQ(column.samples.size(), group.t.size());
      // Counts start at the replication count and only shrink toward the
      // tail (shorter replications stop contributing; terminal makespan
      // samples never enter the reduction).
      EXPECT_EQ(column.samples.front().count, 2u);
      for (std::size_t i = 1; i < column.samples.size(); ++i) {
        EXPECT_LE(column.samples[i].count, column.samples[i - 1].count);
      }
    }
  }
}

TEST(CampaignSinks, TimeseriesDirWritesCellsAndAggregate) {
  RunnerOptions options;
  options.threads = 2;
  options.timeseries_interval = 1000.0;
  const CampaignResult result = CampaignRunner(options).run(mini_spec());
  const std::string dir = testing::TempDir() + "campaign_timeseries";
  write_timeseries_dir(result, dir);

  const util::json::Value aggregate =
      util::json::parse_file(dir + "/aggregate.json");
  EXPECT_EQ(aggregate.at("schema").as_string(),
            "gridsched-timeseries-aggregate-v1");
  EXPECT_EQ(aggregate.at("campaign").as_string(), "mini");
  ASSERT_EQ(aggregate.at("groups").items().size(), 4u);
  const util::json::Value& group = aggregate.at("groups").items().front();
  const std::size_t n = group.at("t").items().size();
  for (const std::string_view key : series_column_keys()) {
    const util::json::Value& column = group.at("series").at(key);
    EXPECT_EQ(column.at("mean").items().size(), n);
    EXPECT_EQ(column.at("ci95").items().size(), n);
    EXPECT_EQ(column.at("count").items().size(), n);
  }
  for (const CellResult& cell : result.cells) {
    const util::json::Value parsed = util::json::parse_file(
        dir + "/" + timeseries_cell_filename(result, cell));
    EXPECT_EQ(parsed.at("schema").as_string(), "gridsched-timeseries-v1");
    EXPECT_EQ(parsed.at("interval").as_number(), 1000.0);
  }
}

TEST(CampaignAggregator, SeriesIntervalMismatchThrows) {
  const CampaignSpec spec = mini_spec();
  CampaignAggregator aggregator(spec);
  obs::TimeSeries series;
  series.interval = 100.0;
  series.n_sites = 1;
  aggregator.add_series(0, 0, series);
  series.interval = 200.0;
  EXPECT_THROW(aggregator.add_series(0, 0, series), std::invalid_argument);
}

// ------------------------------------------------------------- aggregator ---

TEST(CampaignAggregator, RejectsCellsOutsideTheSpec) {
  const CampaignSpec spec = mini_spec();
  CampaignAggregator aggregator(spec);
  metrics::RunMetrics run;
  EXPECT_THROW(aggregator.add(5, 0, run), std::out_of_range);
  EXPECT_THROW(aggregator.add(0, 9, run), std::out_of_range);
}

TEST(MetricDefs, LookupAndDeterminismFlags) {
  EXPECT_NE(find_metric("makespan"), nullptr);
  EXPECT_EQ(find_metric("nope"), nullptr);
  ASSERT_NE(find_metric("scheduler_seconds"), nullptr);
  EXPECT_FALSE(find_metric("scheduler_seconds")->deterministic);
  // Empty request resolves to exactly the deterministic metrics.
  CampaignSpec spec = mini_spec();
  spec.metrics.clear();
  for (const MetricDef* def : resolve_metrics(spec)) {
    EXPECT_TRUE(def->deterministic);
  }
}

}  // namespace
}  // namespace gridsched::exp::campaign
