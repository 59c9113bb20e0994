// Fault-tolerance layer (PR 7): cancel-token watchdogs, deterministic
// fault injection, graceful degradation, retries and the checkpoint
// journal, including the resume-vs-fresh byte-identity contract.
#include "exp/campaign/campaign_journal.hpp"
#include "exp/campaign/campaign_runner.hpp"
#include "exp/campaign/campaign_sinks.hpp"
#include "exp/campaign/campaign_spec.hpp"
#include "exp/fault_plan.hpp"
#include "exp/runner.hpp"
#include "util/cancel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace gridsched::exp::campaign {
namespace {

/// A fast campaign: two heuristics over two small scenarios, three reps.
CampaignSpec mini_spec(const std::string& extra = "") {
  return parse_spec_text(R"({
    "name": "ft-mini",
    "seed": 99,
    "replications": 3,
    "metrics": ["makespan", "slowdown", "n_fail"],
    "scenarios": [
      {"name": "psa", "jobs": 40},
      {"name": "synth-batch", "jobs": 40}
    ],
    "policies": [
      {"algo": "min-min", "mode": "f-risky"},
      {"algo": "sufferage", "mode": "risky"}
    ])" + extra + "\n}");
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---------------------------------------------------------- cancel token ---

TEST(CancelToken, DefaultTokenNeverFires) {
  util::CancelToken token;
  EXPECT_FALSE(token.stop_requested());
  EXPECT_NO_THROW(token.check("test"));
  EXPECT_EQ(token.checks(), 1u);
}

TEST(CancelToken, ExplicitCancelThrowsAtNextCheck) {
  util::CancelToken token;
  token.cancel();
  EXPECT_TRUE(token.stop_requested());
  try {
    token.check("unit test");
    FAIL() << "expected CancelledError";
  } catch (const util::CancelledError& e) {
    EXPECT_NE(std::string(e.what()).find("unit test"), std::string::npos);
  }
}

TEST(CancelToken, DeadlineExpires) {
  const util::CancelToken token = util::CancelToken::with_deadline(1e-9);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(token.expired());
  EXPECT_THROW(token.check("deadline"), util::CancelledError);
}

TEST(CancelToken, CancelledRunEmitsNoMetrics) {
  // An already-expired watchdog must abort run_once before any metrics
  // exist — a cancelled cell can never leak a partial result into the
  // byte-stable aggregate.
  const CampaignSpec spec = mini_spec();
  const Scenario scenario = spec.scenarios[0].resolve();
  const AlgorithmSpec algo = spec.policies[0].resolve();
  util::CancelToken token;
  token.cancel();
  RunHooks hooks;
  hooks.cancel = &token;
  EXPECT_THROW(run_once(scenario, algo, 1234, nullptr, hooks),
               util::CancelledError);
  // Observability: the kernel actually polled the token.
  EXPECT_GE(token.checks(), 1u);
}

// ------------------------------------------------------------ fault plan ---

TEST(FaultPlan, EmptyPlanInjectsNothing) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  for (unsigned attempt = 0; attempt < 8; ++attempt) {
    EXPECT_NO_THROW(maybe_inject(plan, 1, "s", "p", 0, attempt));
  }
}

TEST(FaultPlan, ThrowFaultIsDeterministicPerCellAndAttempt) {
  FaultPlan plan;
  plan.throw_prob = 0.5;
  // The same {seed, cell, attempt} always draws the same outcome.
  std::vector<std::vector<bool>> rounds;
  for (int repeat = 0; repeat < 3; ++repeat) {
    std::vector<bool> thrown;
    for (std::size_t rep = 0; rep < 16; ++rep) {
      bool threw = false;
      try {
        maybe_inject(plan, 42, "psa", "min-min-f-risky", rep, 0);
      } catch (const InjectedFault&) {
        threw = true;
      }
      thrown.push_back(threw);
    }
    // Not all-or-nothing at p=0.5 over 16 cells.
    EXPECT_NE(std::count(thrown.begin(), thrown.end(), true), 0);
    EXPECT_NE(std::count(thrown.begin(), thrown.end(), true), 16);
    rounds.push_back(std::move(thrown));
  }
  EXPECT_EQ(rounds[0], rounds[1]);
  EXPECT_EQ(rounds[0], rounds[2]);
}

TEST(FaultPlan, FiltersRestrictInjectionToMatchingCells) {
  FaultPlan plan;
  plan.throw_prob = 1.0;
  plan.policy = "stga";
  EXPECT_NO_THROW(maybe_inject(plan, 1, "psa", "min-min-f-risky", 0, 0));
  EXPECT_THROW(maybe_inject(plan, 1, "psa", "stga", 0, 0), InjectedFault);
}

TEST(FaultPlan, ValidateRejectsBadProbabilities) {
  FaultPlan plan;
  plan.throw_prob = 1.5;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.throw_prob = 0.0;
  plan.delay_prob = 0.5;  // delay_prob without delay_seconds
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

// ------------------------------------------------------------ spec faults ---

TEST(CampaignSpec, ParsesFaultsKey) {
  const CampaignSpec spec = mini_spec(R"(,
    "faults": {"throw_prob": 0.25, "delay_prob": 0.1,
               "delay_seconds": 0.001, "policy": "min-min-f-risky"})");
  EXPECT_DOUBLE_EQ(spec.faults.throw_prob, 0.25);
  EXPECT_DOUBLE_EQ(spec.faults.delay_prob, 0.1);
  EXPECT_DOUBLE_EQ(spec.faults.delay_seconds, 0.001);
  EXPECT_EQ(spec.faults.policy, "min-min-f-risky");
}

TEST(CampaignSpec, RejectsUnknownFaultKeys) {
  // check_keys stays strict: typos in the chaos plan fail loudly.
  EXPECT_THROW(mini_spec(R"(, "faults": {"throw_probz": 0.5})"),
               std::invalid_argument);
  EXPECT_THROW(mini_spec(R"(, "faults": {"retries": 3})"),
               std::invalid_argument);
}

TEST(CampaignSpec, RejectsFaultFiltersNamingNoAxisLabel) {
  EXPECT_THROW(
      mini_spec(R"(, "faults": {"throw_prob": 1.0, "scenario": "nope"})"),
      std::invalid_argument);
  EXPECT_THROW(
      mini_spec(R"(, "faults": {"throw_prob": 1.0, "policy": "nope"})"),
      std::invalid_argument);
}

// ------------------------------------------------- graceful degradation ---

TEST(FaultTolerance, InjectedFaultDegradesInsteadOfAborting) {
  // throw_prob 1.0 on one policy: every one of its cells fails on every
  // attempt, the other policy's cells all survive.
  const CampaignSpec spec = mini_spec(
      R"(, "faults": {"throw_prob": 1.0, "policy": "sufferage-risky"})");
  RunnerOptions options;
  options.threads = 2;
  const CampaignResult result = CampaignRunner(options).run(spec);

  EXPECT_FALSE(result.complete());
  EXPECT_EQ(result.failed_cells(), 2u * 3u);  // 2 scenarios x 3 reps
  EXPECT_EQ(result.timed_out_cells(), 0u);
  for (const CellResult& cell : result.cells) {
    const std::string policy = spec.policies[cell.cell.policy].display();
    if (policy == "sufferage-risky") {
      EXPECT_EQ(cell.status, CellStatus::kFailed);
      EXPECT_NE(cell.error.find("injected fault"), std::string::npos);
    } else {
      EXPECT_EQ(cell.status, CellStatus::kOk);
      EXPECT_TRUE(cell.error.empty());
    }
  }
  for (const GroupSummary& group : result.groups) {
    if (group.policy == "sufferage-risky") {
      EXPECT_TRUE(group.degraded());
      EXPECT_EQ(group.cells, 0u);
      EXPECT_EQ(group.failed, 3u);
    } else {
      EXPECT_FALSE(group.degraded());
      EXPECT_EQ(group.cells, 3u);
    }
  }

  // Sinks mark the degradation.
  const std::string json = render_json(result);
  EXPECT_NE(json.find("\"failed\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"failed\""), std::string::npos);
  EXPECT_NE(json.find("injected fault"), std::string::npos);
  const std::string table = render_table(result);
  EXPECT_NE(table.find("0/3"), std::string::npos);
  EXPECT_NE(table.find("DEGRADED"), std::string::npos);
}

TEST(FaultTolerance, DegradedAggregateIsByteStableAcrossThreads) {
  const CampaignSpec spec = mini_spec(
      R"(, "faults": {"throw_prob": 0.4})");
  std::vector<std::string> artifacts;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    RunnerOptions options;
    options.threads = threads;
    artifacts.push_back(render_json(CampaignRunner(options).run(spec)));
  }
  EXPECT_EQ(artifacts[0], artifacts[1]);
  EXPECT_EQ(artifacts[0], artifacts[2]);
}

TEST(FaultTolerance, FaultFreePlanLeavesArtifactsByteIdentical) {
  // The "faults" key with a no-op plan must not perturb a single byte of
  // any artifact relative to a spec without the key.
  const CampaignSpec plain = mini_spec();
  const CampaignSpec noop = mini_spec(
      R"(, "faults": {"throw_prob": 0.0, "delay_prob": 0.0})");
  RunnerOptions options;
  options.threads = 2;
  const CampaignResult a = CampaignRunner(options).run(plain);
  const CampaignResult b = CampaignRunner(options).run(noop);
  EXPECT_EQ(render_json(a), render_json(b));
  EXPECT_EQ(render_csv(a), render_csv(b));
  // Tables match up to the wall-clock footer (timing is never stable).
  const auto strip_footer = [](const std::string& table) {
    const std::size_t last = table.rfind('\n', table.size() - 2);
    return table.substr(0, last + 1);
  };
  EXPECT_EQ(strip_footer(render_table(a)), strip_footer(render_table(b)));
}

TEST(FaultTolerance, StrictModeAbortsAndNamesTheCell) {
  const CampaignSpec spec = mini_spec(
      R"(, "faults": {"throw_prob": 1.0, "policy": "sufferage-risky"})");
  RunnerOptions options;
  options.threads = 1;
  options.strict = true;
  try {
    CampaignRunner(options).run(spec);
    FAIL() << "expected strict mode to abort";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("campaign cell"), std::string::npos) << what;
    EXPECT_NE(what.find("policy=sufferage-risky"), std::string::npos) << what;
    EXPECT_NE(what.find("injected fault"), std::string::npos) << what;
  }
}

// ----------------------------------------------------------------- retry ---

TEST(FaultTolerance, RetriesAreCountedAndBounded) {
  const CampaignSpec spec = mini_spec(
      R"(, "faults": {"throw_prob": 1.0, "policy": "sufferage-risky"})");
  RunnerOptions options;
  options.threads = 1;
  options.retries = 2;
  const CampaignResult result = CampaignRunner(options).run(spec);
  for (const CellResult& cell : result.cells) {
    const std::string policy = spec.policies[cell.cell.policy].display();
    if (policy == "sufferage-risky") {
      EXPECT_EQ(cell.status, CellStatus::kFailed);
      EXPECT_EQ(cell.attempts, 3u);  // 1 + 2 retries, all doomed
    } else {
      EXPECT_EQ(cell.attempts, 1u);
    }
  }
  // Attempt accounting lands in the profile sidecar (and only there).
  const std::string profile = render_profile(result);
  EXPECT_NE(profile.find("\"attempts\": 3"), std::string::npos);
  EXPECT_EQ(render_csv(result).find("attempts"), std::string::npos);
}

TEST(FaultTolerance, RetryRecoversTransientFaults) {
  // p=0.5 with 3 retries: each eligible cell survives unless all four
  // attempts draw a throw (p = 1/16 each). The draw set is a pure
  // function of the spec seed; with this seed every cell recovers, and
  // at least one needed more than one attempt.
  const CampaignSpec spec = mini_spec(
      R"(, "faults": {"throw_prob": 0.5})");
  RunnerOptions options;
  options.threads = 2;
  options.retries = 3;
  const CampaignResult result = CampaignRunner(options).run(spec);
  unsigned multi_attempt = 0;
  for (const CellResult& cell : result.cells) {
    if (cell.status == CellStatus::kOk && cell.attempts > 1) ++multi_attempt;
  }
  EXPECT_GT(multi_attempt, 0u);
  EXPECT_TRUE(result.complete());
}

// --------------------------------------------------------------- timeout ---

TEST(FaultTolerance, ExhaustedBudgetSurfacesAsTimedOut) {
  const CampaignSpec spec = mini_spec();
  RunnerOptions options;
  options.threads = 2;
  options.cell_timeout = 1e-9;  // expired by the first batch cycle
  options.retries = 5;          // must NOT be spent on timeouts
  const CampaignResult result = CampaignRunner(options).run(spec);
  EXPECT_EQ(result.timed_out_cells(), result.cells.size());
  for (const CellResult& cell : result.cells) {
    EXPECT_EQ(cell.status, CellStatus::kTimedOut);
    EXPECT_EQ(cell.attempts, 1u);
    EXPECT_NE(cell.error.find("wall-clock budget"), std::string::npos)
        << cell.error;
  }
  const std::string json = render_json(result);
  EXPECT_NE(json.find("\"status\": \"timed_out\""), std::string::npos);
}

// --------------------------------------------------------------- journal ---

TEST(Journal, RecordRoundTripsEveryDeterministicMetric) {
  JournalRecord record;
  record.scenario = "psa";
  record.policy = "min-min-f-risky";
  record.replication = 2;
  record.seed = 0xDEADBEEFCAFEF00Dull;
  record.status = CellStatus::kOk;
  record.attempts = 2;
  // Distinct, non-round values per field so a swapped setter cannot pass.
  metrics::RunMetrics& m = record.metrics;
  m.n_jobs = 101;
  m.batch_invocations = 17;
  m.makespan = 1234.5678901234567;
  m.avg_response = 98.7654321;
  m.slowdown_ratio = 1.23456789;
  m.n_risk = 7;
  m.n_fail = 3;
  m.avg_utilization = 0.87654321;
  m.idle_sites = 53;
  m.failure_events = 11;
  m.risky_attempts = 13;
  m.released_nodes = 19;
  m.unreleased_nodes = 23;
  m.site_down_events = 29;
  m.site_up_events = 31;
  m.interruptions = 37;
  m.n_interrupted = 41;
  m.churn_released_nodes = 43;
  m.churn_unreleased_nodes = 47;

  const JournalRecord decoded = decode_record(encode_record(record));
  EXPECT_EQ(decoded.scenario, record.scenario);
  EXPECT_EQ(decoded.policy, record.policy);
  EXPECT_EQ(decoded.replication, record.replication);
  EXPECT_EQ(decoded.seed, record.seed);
  EXPECT_EQ(decoded.status, record.status);
  EXPECT_EQ(decoded.attempts, record.attempts);
  EXPECT_EQ(decoded.metrics.n_jobs, m.n_jobs);
  EXPECT_EQ(decoded.metrics.batch_invocations, m.batch_invocations);
  // Every deterministic metric def must survive the round trip
  // bit-exactly — this is what makes resume byte-identical.
  for (const MetricDef& def : metric_defs()) {
    if (!def.deterministic) continue;
    EXPECT_EQ(def.value(decoded.metrics), def.value(record.metrics))
        << def.key;
  }
}

TEST(Journal, FailedRecordCarriesErrorInsteadOfMetrics) {
  JournalRecord record;
  record.scenario = "psa";
  record.policy = "stga";
  record.replication = 0;
  record.seed = 7;
  record.status = CellStatus::kTimedOut;
  record.attempts = 1;
  record.error = "wall-clock budget exhausted at simulation batch cycle";
  const std::string line = encode_record(record);
  EXPECT_EQ(line.find("metrics"), std::string::npos);
  const JournalRecord decoded = decode_record(line);
  EXPECT_EQ(decoded.status, CellStatus::kTimedOut);
  EXPECT_EQ(decoded.error, record.error);
}

/// A valid ok record line whose seed and metrics text tests can swap out.
std::string ok_record_line() {
  JournalRecord record;
  record.scenario = "psa";
  record.policy = "min-min";
  record.seed = 0x1234;
  record.status = CellStatus::kOk;
  record.attempts = 1;
  record.metrics.n_jobs = 10;
  return encode_record(record);
}

/// `line` with its first occurrence of `from` replaced by `to`.
std::string replaced(std::string line, const std::string& from,
                     const std::string& to) {
  const std::size_t at = line.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return line.replace(at, from.size(), to);
}

TEST(Journal, SeedMustBeOneToSixteenHexDigits) {
  const std::string line = ok_record_line();
  const auto seed_of = [&line](const char* text) {
    return decode_record(replaced(line, "\"0x0000000000001234\"", text)).seed;
  };
  EXPECT_EQ(seed_of("\"0x1234\""), 0x1234u);
  EXPECT_EQ(seed_of("\"0xFFFFFFFFFFFFFFFF\""), 0xffffffffffffffffull);
  const char* const bad_seeds[] = {
      "\"0x\"",
      "\"0xzz\"",
      "\"0x1g\"",
      "\"0x-1\"",
      "\"0x+1\"",
      "\"0x 1\"",
      "\"1234\"",
      "\"0x1234567890abcdef1\"",
      "\"0x0000000000000000001\"",
  };
  for (const char* bad : bad_seeds) {
    try {
      (void)seed_of(bad);
      ADD_FAILURE() << "accepted seed " << bad;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("bad seed"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Journal, DecodeRejectsUnknownAndWallClockMetrics) {
  const std::string line = ok_record_line();
  // scheduler_seconds is a known metric but wall clock: encode_record
  // never writes it, so a record carrying it is not one of ours.
  for (const char* key : {"\"no_such_metric\"", "\"scheduler_seconds\""}) {
    try {
      (void)decode_record(replaced(line, "\"makespan\"", key));
      ADD_FAILURE() << "accepted metric " << key;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
    }
  }
  // A count must decode to a whole number in size_t's range; casting
  // anything else would be undefined or silently truncate.
  const auto with_n_fail = [&line](const std::string& count) {
    return replaced(line, "\"n_fail\": 0", "\"n_fail\": " + count);
  };
  for (const char* count : {"-1", "1.5", "1e300", "18446744073709551616"}) {
    try {
      (void)decode_record(with_n_fail(count));
      ADD_FAILURE() << "accepted n_fail " << count;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("n_fail"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(decode_record(with_n_fail("9007199254740992")).metrics.n_fail,
            std::size_t{1} << 53);
}

TEST(Journal, WriterLoaderRoundTripAndTruncatedTailTolerance) {
  const std::string path = testing::TempDir() + "ft_journal.jsonl";
  std::remove(path.c_str());
  JournalRecord record;
  record.scenario = "s";
  record.policy = "p";
  record.seed = 5;
  {
    JournalWriter writer(path, "ft", 99, /*append=*/false);
    record.replication = 0;
    writer.append(record);
    record.replication = 1;
    writer.append(record);
  }
  const JournalContents clean = load_journal(path, "ft", 99);
  ASSERT_EQ(clean.records.size(), 2u);
  EXPECT_FALSE(clean.truncated_tail);
  EXPECT_EQ(clean.records[1].replication, 1u);

  // A SIGKILL mid-append can only damage the final line: the loader
  // drops it and reports the truncation.
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "{\"scenario\": \"s\", \"policy\": \"p\", \"replicat";
  }
  const JournalContents torn = load_journal(path, "ft", 99);
  EXPECT_EQ(torn.records.size(), 2u);
  EXPECT_TRUE(torn.truncated_tail);

  // Interior corruption is NOT tolerated.
  std::string body = slurp(path);
  body.insert(body.find('\n') + 1, "garbage line\n");
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << body;
  }
  EXPECT_THROW(load_journal(path, "ft", 99), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Journal, RefusesForeignHeaderAndMissingFile) {
  const std::string path = testing::TempDir() + "ft_journal_foreign.jsonl";
  std::remove(path.c_str());
  EXPECT_THROW(load_journal(path, "ft", 99), std::runtime_error);
  {
    JournalWriter writer(path, "other-campaign", 1, /*append=*/false);
  }
  EXPECT_THROW(load_journal(path, "ft", 99), std::runtime_error);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- resume ---

TEST(FaultTolerance, ResumeMatchesFreshRunByteForByte) {
  const CampaignSpec spec = mini_spec();
  const std::string journal_path = testing::TempDir() + "ft_resume.jsonl";

  // Uninterrupted reference run (journaled, any thread count).
  RunnerOptions fresh;
  fresh.threads = 2;
  fresh.checkpoint = journal_path;
  const CampaignResult reference = CampaignRunner(fresh).run(spec);
  const std::string want_json = render_json(reference);
  const std::string want_csv = render_csv(reference);

  // Emulate a SIGKILL partway through: keep the header plus a prefix of
  // the records, truncating the last kept line mid-byte for good
  // measure, then resume at several thread counts.
  const std::string full = slurp(journal_path);
  std::vector<std::size_t> line_starts = {0};
  for (std::size_t i = 0; i + 1 < full.size(); ++i) {
    if (full[i] == '\n') line_starts.push_back(i + 1);
  }
  ASSERT_GT(line_starts.size(), 7u);  // header + 12 records
  for (const std::size_t threads : {1u, 2u, 8u}) {
    // Keep header + 5 records, then half of the 6th record's line.
    const std::size_t cut = line_starts[6] + 20;
    {
      std::ofstream out(journal_path, std::ios::trunc | std::ios::binary);
      out << full.substr(0, cut);
    }
    RunnerOptions resume;
    resume.threads = threads;
    resume.checkpoint = journal_path;
    resume.resume = true;
    const CampaignResult resumed = CampaignRunner(resume).run(spec);
    EXPECT_EQ(render_json(resumed), want_json) << threads;
    EXPECT_EQ(render_csv(resumed), want_csv) << threads;
  }
  std::remove(journal_path.c_str());
}

TEST(FaultTolerance, ResumeKeepsJournaledFailuresWithoutRerun) {
  // A degraded run that is checkpointed and then fully resumed must
  // replay the failures from the journal (zero re-runs) and reproduce
  // the degraded artifact exactly.
  const CampaignSpec spec = mini_spec(
      R"(, "faults": {"throw_prob": 1.0, "policy": "sufferage-risky"})");
  const std::string journal_path = testing::TempDir() + "ft_degraded.jsonl";
  RunnerOptions fresh;
  fresh.threads = 2;
  fresh.checkpoint = journal_path;
  const CampaignResult reference = CampaignRunner(fresh).run(spec);
  ASSERT_FALSE(reference.complete());

  RunnerOptions resume;
  resume.threads = 2;
  resume.checkpoint = journal_path;
  resume.resume = true;
  std::size_t announced = 0;
  resume.on_cell = [&](const CellResult&, std::size_t, std::size_t) {
    ++announced;
  };
  const CampaignResult resumed = CampaignRunner(resume).run(spec);
  EXPECT_EQ(announced, 0u);  // every cell came from the journal
  EXPECT_EQ(render_json(resumed), render_json(reference));
  std::remove(journal_path.c_str());
}

TEST(FaultTolerance, ResumeRejectsStaleSeed) {
  CampaignSpec spec = mini_spec();
  const std::string journal_path = testing::TempDir() + "ft_stale.jsonl";
  RunnerOptions fresh;
  fresh.threads = 1;
  fresh.checkpoint = journal_path;
  CampaignRunner(fresh).run(spec);

  // Same campaign name and spec seed, but a record whose cell seed no
  // longer matches (here: forged journal) must be rejected, not merged.
  std::string body = slurp(journal_path);
  const std::size_t seed_at = body.find("\"seed\": \"0x");
  ASSERT_NE(seed_at, std::string::npos);
  body[seed_at + 11] = body[seed_at + 11] == 'f' ? '0' : 'f';
  {
    std::ofstream out(journal_path, std::ios::trunc | std::ios::binary);
    out << body;
  }
  RunnerOptions resume;
  resume.threads = 1;
  resume.checkpoint = journal_path;
  resume.resume = true;
  EXPECT_THROW(CampaignRunner(resume).run(spec), std::runtime_error);
  std::remove(journal_path.c_str());
}

TEST(FaultTolerance, ResumeRequiresCheckpoint) {
  RunnerOptions options;
  options.resume = true;
  EXPECT_THROW(CampaignRunner(options).run(mini_spec()),
               std::invalid_argument);
}

}  // namespace
}  // namespace gridsched::exp::campaign
