// gridsched_lint rule-engine tests: per rule, one violating fixture, one
// clean fixture, and one suppressed fixture, asserting rule id, file:line
// and the run_lint exit code. Fixtures are linted under fake repo paths,
// which is exactly how the path-scoping contract is meant to be driven.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "lexer.hpp"
#include "rules.hpp"

namespace gridsched::lint {
namespace {

std::vector<Diagnostic> lint_one(const std::string& path,
                                 const std::string& content) {
  return run_rules({{path, content}});
}

bool has(const std::vector<Diagnostic>& diags, const std::string& rule,
         const std::string& file, std::size_t line) {
  for (const Diagnostic& d : diags) {
    if (d.rule == rule && d.file == file && d.line == line) return true;
  }
  return false;
}

std::size_t count_rule(const std::vector<Diagnostic>& diags,
                       const std::string& rule) {
  std::size_t n = 0;
  for (const Diagnostic& d : diags) {
    if (d.rule == rule) ++n;
  }
  return n;
}

// ----------------------------------------------------------------- lexer ---

TEST(LintLexer, SeparatesCodeCommentsAndStrings) {
  const TokenStream ts = tokenize(
      "int x = 1; // trailing new\n"
      "/* block\n comment */ const char* s = \"vector new\";\n");
  for (const Token& t : ts.tokens) {
    EXPECT_NE(t.text, "new") << "comment/string text leaked into code";
  }
  ASSERT_EQ(ts.comments.size(), 2u);
  EXPECT_EQ(ts.comments[0].line, 1u);
  EXPECT_EQ(ts.comments[1].line, 2u);
  bool saw_string = false;
  for (const Token& t : ts.tokens) {
    if (t.kind == TokenKind::kString) {
      saw_string = true;
      EXPECT_EQ(t.text, "vector new");
      EXPECT_EQ(t.line, 3u);
    }
  }
  EXPECT_TRUE(saw_string);
}

TEST(LintLexer, RawStringsAndPreproc) {
  const TokenStream ts = tokenize(
      "#include \"core/ga_problem.hpp\"\n"
      "auto s = R\"(stable_sort // not a comment)\";\n");
  ASSERT_FALSE(ts.tokens.empty());
  EXPECT_EQ(ts.tokens[0].kind, TokenKind::kPreproc);
  EXPECT_NE(ts.tokens[0].text.find("ga_problem.hpp"), std::string::npos);
  EXPECT_TRUE(ts.comments.empty());
  bool saw_raw = false;
  for (const Token& t : ts.tokens) {
    if (t.kind == TokenKind::kString) {
      saw_raw = true;
      EXPECT_EQ(t.text, "stable_sort // not a comment");
    }
  }
  EXPECT_TRUE(saw_raw);
}

// ------------------------------------------------------- GS-R00 (hygiene) --

TEST(LintR00, SuppressionWithoutReasonIsFlagged) {
  const auto diags = lint_one("src/sched/foo.cpp",
                              "// NOLINTNEXTLINE(GS-R03)\n"
                              "double x = work / speed;\n");
  EXPECT_TRUE(has(diags, "GS-R00", "src/sched/foo.cpp", 1));
  // ... and the reasonless suppression does not silence the finding.
  EXPECT_TRUE(has(diags, "GS-R03", "src/sched/foo.cpp", 2));
}

TEST(LintR00, UnmatchedBeginAndEndAreFlagged) {
  const auto open = lint_one("src/a.cpp", "// NOLINTBEGIN(GS-R05): why\n");
  EXPECT_TRUE(has(open, "GS-R00", "src/a.cpp", 1));
  const auto stray = lint_one("src/a.cpp", "// NOLINTEND(GS-R05)\n");
  EXPECT_TRUE(has(stray, "GS-R00", "src/a.cpp", 1));
}

TEST(LintR00, ClangTidySuppressionsAreIgnored) {
  const auto diags =
      lint_one("src/a.cpp",
               "int* p = new int;  // NOLINT(bugprone-foo)\n"
               "// NOLINT\n");
  EXPECT_TRUE(diags.empty());
}

// ------------------------------------------------- GS-R01 (decode alloc) ---

constexpr const char* kFastpathViolation =
    "// GS-FASTPATH-BEGIN: region\n"
    "void hot() {\n"
    "  std::stable_sort(a.begin(), a.end());\n"
    "}\n"
    "// GS-FASTPATH-END\n";

TEST(LintR01, AllocatingCallInRegionFires) {
  const auto diags = lint_one("src/core/other.cpp", kFastpathViolation);
  EXPECT_TRUE(has(diags, "GS-R01", "src/core/other.cpp", 3));
}

TEST(LintR01, VectorConstructionInRegionFires) {
  const auto diags = lint_one("src/core/other.cpp",
                              "// GS-FASTPATH-BEGIN: region\n"
                              "std::vector<double> tmp(n);\n"
                              "// GS-FASTPATH-END\n");
  EXPECT_TRUE(has(diags, "GS-R01", "src/core/other.cpp", 2));
}

TEST(LintR01, UnorderedMapInRegionFires) {
  // A node-based hash map allocates per insert: the GA's duplicate memo
  // probe is fenced so it cannot regress to one.
  const auto diags = lint_one("src/core/ga_engine.cpp",
                              "// GS-FASTPATH-BEGIN: memo probe\n"
                              "std::unordered_map<std::uint64_t, int> memo;\n"
                              "// GS-FASTPATH-END\n");
  EXPECT_TRUE(has(diags, "GS-R01", "src/core/ga_engine.cpp", 2));
}

TEST(LintR01, CleanRegionAndCodeOutsideRegionPass) {
  const auto diags = lint_one("src/core/other.cpp",
                              "std::vector<double> fine;\n"
                              "// GS-FASTPATH-BEGIN: region\n"
                              "double y = x + 1.0;\n"
                              "// GS-FASTPATH-END\n"
                              "auto* p = new double[4];\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintR01, SuppressedViolationPasses) {
  const auto diags = lint_one("src/core/other.cpp",
                              "// GS-FASTPATH-BEGIN: region\n"
                              "// NOLINTNEXTLINE(GS-R01): bind-time only\n"
                              "std::vector<double> tmp(n);\n"
                              "// GS-FASTPATH-END\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintR01, GaProblemMustCarryMarkers) {
  const auto diags = lint_one("src/core/ga_problem.cpp", "void f() {}\n");
  EXPECT_TRUE(has(diags, "GS-R01", "src/core/ga_problem.cpp", 1));
}

TEST(LintR01, UnmatchedMarkersAreFlagged) {
  const auto diags =
      lint_one("src/core/other.cpp", "// GS-FASTPATH-BEGIN: region\n");
  EXPECT_EQ(count_rule(diags, "GS-R01"), 1u);
}

// ---------------------------------------------- GS-R02 (artifact clocks) ---

TEST(LintR02, ClockInArtifactRendererFires) {
  const auto diags =
      lint_one("src/exp/campaign/campaign_sinks.cpp",
               "auto t = std::chrono::steady_clock::now();\n");
  EXPECT_TRUE(has(diags, "GS-R02", "src/exp/campaign/campaign_sinks.cpp",
                  1));
}

TEST(LintR02, TimeseriesAndBenchgateAreInScope) {
  // The telemetry exporters and the bench regression gate are byte-stable
  // surfaces too: both joined the GS-R02 path scope with this subsystem.
  EXPECT_TRUE(has(lint_one("src/obs/timeseries.cpp",
                           "auto t = std::chrono::system_clock::now();\n"),
                  "GS-R02", "src/obs/timeseries.cpp", 1));
  EXPECT_TRUE(has(lint_one("tools/benchgate/main.cpp",
                           "double wall = clock();\n"),
                  "GS-R02", "tools/benchgate/main.cpp", 1));
}

TEST(LintR02, StreamingAggregationIsInScope) {
  // The retirement accumulator and the job-stream cursors feed the same
  // byte-stable sums the artifact renderers serialize; they joined the
  // GS-R02 path scope with the streaming kernel (PR 10).
  EXPECT_TRUE(has(lint_one("src/metrics/retirement.hpp",
                           "auto t = std::chrono::steady_clock::now();\n"),
                  "GS-R02", "src/metrics/retirement.hpp", 1));
  EXPECT_TRUE(has(lint_one("src/workload/stream.hpp",
                           "double wall = time(nullptr);\n"),
                  "GS-R02", "src/workload/stream.hpp", 1));
  EXPECT_TRUE(has(lint_one("src/workload/synth/stream_gen.cpp",
                           "auto t = std::chrono::system_clock::now();\n"),
                  "GS-R02", "src/workload/synth/stream_gen.cpp", 1));
  // Clean streaming-aggregation code stays clean.
  EXPECT_EQ(count_rule(lint_one("src/metrics/retirement.hpp",
                                "void add(const Job& job) { ++jobs_; }\n"),
                       "GS-R02"),
            0u);
}

TEST(LintR05, StreamKernelEntropyFires) {
  // The kernel's slot table / admission path must draw nothing ambient:
  // every run must reproduce its pinned digests and fingerprints.
  EXPECT_TRUE(has(lint_one("src/sim/kernel.cpp",
                           "std::random_device rd;\n"),
                  "GS-R05", "src/sim/kernel.cpp", 1));
  EXPECT_TRUE(has(lint_one("src/workload/synth/stream_gen.cpp",
                           "int r = rand();\n"),
                  "GS-R05", "src/workload/synth/stream_gen.cpp", 1));
  EXPECT_EQ(count_rule(lint_one("src/sim/kernel.cpp",
                                "kernel.retire_completed();\n"),
                       "GS-R05"),
            0u);
}

TEST(LintR02, ClockOutsideScopeAndSuppressedPass) {
  EXPECT_EQ(count_rule(lint_one("src/exp/runner.cpp",
                                "auto t = steady_clock::now();\n"),
                       "GS-R02"),
            0u);
  const auto diags =
      lint_one("src/obs/trace_event.cpp",
               "// NOLINTBEGIN(GS-R02): profile sidecar only\n"
               "double wall = time(nullptr);\n"
               "// NOLINTEND(GS-R02)\n");
  EXPECT_EQ(count_rule(diags, "GS-R02"), 0u);
}

// --------------------------------------------------- GS-R03 (work/speed) ---

TEST(LintR03, WorkOverSpeedInSchedulerFires) {
  const auto diags =
      lint_one("src/sched/my_heuristic.cpp",
               "double t = jobs[j].work / sites[s].speed;\n");
  EXPECT_TRUE(has(diags, "GS-R03", "src/sched/my_heuristic.cpp", 1));
}

TEST(LintR03, ContextResolutionAndOtherLayersPass) {
  EXPECT_TRUE(lint_one("src/sched/my_heuristic.cpp",
                       "double t = context.exec_time(job, s);\n"
                       "double u = work / 2.0; double speed = 1.0;\n")
                  .empty());
  EXPECT_TRUE(lint_one("src/sim/exec_model.cpp",
                       "double t = job.work / site.speed;\n")
                  .empty());
}

TEST(LintR03, SuppressedSanctionedFallbackPasses) {
  const auto diags =
      lint_one("src/sched/etc.cpp",
               "// NOLINTNEXTLINE(GS-R03): sanctioned fallback\n"
               "double t = jobs[j].work / sites[s].speed;\n");
  EXPECT_TRUE(diags.empty());
}

// ------------------------------------------- GS-R04 (SplitMix64/SeedMix) ---

TEST(LintR04, SplitMix64OutsidePinnedFilesFires) {
  const auto diags = lint_one("src/core/ga_engine.cpp",
                              "util::SplitMix64 mix(seed);\n");
  EXPECT_TRUE(has(diags, "GS-R04", "src/core/ga_engine.cpp", 1));
}

TEST(LintR04, PinnedFilesAndTestsPass) {
  EXPECT_TRUE(lint_one("src/util/rng.cpp", "SplitMix64 mix(seed);\n")
                  .empty());
  EXPECT_TRUE(lint_one("src/sim/kernel.cpp", "util::SplitMix64 draw(s);\n")
                  .empty());
  EXPECT_TRUE(lint_one("tests/util_rng_test.cpp",
                       "SplitMix64 a(1); a.mix(\"dup\"); a.mix(\"dup\");\n")
                  .empty());
}

TEST(LintR04, CrossFileDuplicateDomainFires) {
  const auto diags = run_rules(
      {{"src/a.cpp", "auto r = util::SeedMix(s).mix(\"fault\").rng();\n"},
       {"src/b.cpp", "auto r = util::SeedMix(s).mix(\"fault\").rng();\n"}});
  EXPECT_EQ(count_rule(diags, "GS-R04"), 1u);
  EXPECT_TRUE(has(diags, "GS-R04", "src/b.cpp", 1));
}

TEST(LintR04, SameFileDomainReuseIsDeliberatelyAllowed) {
  const auto diags =
      lint_one("src/a.cpp",
               "auto r1 = util::SeedMix(s).mix(\"ga\").rng();\n"
               "auto r2 = util::SeedMix(s).mix(\"ga\").rng();\n");
  EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------- GS-R05 (nondeterminism) ----

TEST(LintR05, WallClockNowInSimulationCodeFires) {
  const auto diags =
      lint_one("src/sim/kernel.cpp",
               "auto t = std::chrono::steady_clock::now();\n");
  EXPECT_TRUE(has(diags, "GS-R05", "src/sim/kernel.cpp", 1));
}

TEST(LintR05, RandAndRandomDeviceFire) {
  const auto diags = lint_one("src/exp/runner.cpp",
                              "int a = rand();\n"
                              "std::random_device rd;\n");
  EXPECT_EQ(count_rule(diags, "GS-R05"), 2u);
}

TEST(LintR05, BenchgateIsInScopeOtherToolsAreNot) {
  // A regression gate that consulted the clock could flip verdicts on
  // rerun, so tools/benchgate/ is scanned like simulation code; the other
  // tools (the linter itself) stay out of scope.
  EXPECT_TRUE(has(lint_one("tools/benchgate/main.cpp",
                           "auto t = std::chrono::steady_clock::now();\n"),
                  "GS-R05", "tools/benchgate/main.cpp", 1));
  EXPECT_EQ(count_rule(lint_one("tools/lint/main.cpp",
                                "auto t = steady_clock::now();\n"),
                       "GS-R05"),
            0u);
}

TEST(LintR05, AllowlistMemberNowAndSuppressionPass) {
  EXPECT_TRUE(lint_one("src/obs/proc_stats.cpp",
                       "auto t = std::chrono::steady_clock::now();\n")
                  .empty());
  EXPECT_TRUE(lint_one("src/util/cancel.hpp",
                       "#pragma once\n"
                       "auto t = Clock::now();\n")
                  .empty());
  // `problem.now` and a member call `x.now()` are not the chrono source.
  EXPECT_TRUE(lint_one("src/core/ga_problem.cpp",
                       "// GS-FASTPATH-BEGIN: r\n// GS-FASTPATH-END\n"
                       "double t = problem.now; double u = clock_.now();\n")
                  .empty());
  EXPECT_TRUE(lint_one("src/sim/kernel.cpp",
                       "// NOLINTNEXTLINE(GS-R05): profile sidecar only\n"
                       "auto t = std::chrono::steady_clock::now();\n")
                  .empty());
}

// ------------------------------------------------ GS-R07 (strict parse) ----

TEST(LintR07, ObjectReadWithoutCheckKeysFires) {
  const auto diags =
      lint_one("src/exp/loader.cpp",
               "#include \"util/json.hpp\"\n"
               "int parse(const Value& doc) {\n"
               "  return doc.at(\"jobs\").as_int();\n"
               "}\n");
  EXPECT_TRUE(has(diags, "GS-R07", "src/exp/loader.cpp", 3));
}

TEST(LintR07, CheckedParserAndNonJsonFilesPass) {
  EXPECT_TRUE(lint_one("src/exp/loader.cpp",
                       "#include \"util/json.hpp\"\n"
                       "int parse(const Value& doc) {\n"
                       "  util::json::check_keys(doc, {\"jobs\"}, \"x\");\n"
                       "  return doc.at(\"jobs\").as_int();\n"
                       "}\n")
                  .empty());
  // Without the json include the .at(\"...\") idiom is something else.
  EXPECT_TRUE(lint_one("src/exp/loader.cpp",
                       "int get(const Map& m) { return m.at(\"key\"); }\n")
                  .empty());
}

TEST(LintR07, SuppressedReaderPasses) {
  const auto diags =
      lint_one("src/exp/loader.cpp",
               "#include \"util/json.hpp\"\n"
               "int parse(const Value& doc) {\n"
               "  // NOLINTNEXTLINE(GS-R07): header checked by caller\n"
               "  return doc.at(\"jobs\").as_int();\n"
               "}\n");
  EXPECT_TRUE(diags.empty());
}

// --------------------------------------------- GS-R08 (header hygiene) -----

TEST(LintR08, MissingPragmaOnceFires) {
  const auto diags =
      lint_one("src/util/widget.hpp", "#include <vector>\nint x;\n");
  EXPECT_TRUE(has(diags, "GS-R08", "src/util/widget.hpp", 1));
}

TEST(LintR08, OwnHeaderMustComeFirst) {
  const auto diags = run_rules(
      {{"src/util/widget.hpp", "#pragma once\nstruct W {};\n"},
       {"src/util/widget.cpp",
        "#include <vector>\n#include \"util/widget.hpp\"\n"}});
  EXPECT_TRUE(has(diags, "GS-R08", "src/util/widget.cpp", 1));
}

TEST(LintR08, CleanPairAndHeaderlessSourcePass) {
  EXPECT_TRUE(run_rules({{"src/util/widget.hpp",
                          "#pragma once\nstruct W {};\n"},
                         {"src/util/widget.cpp",
                          "#include \"util/widget.hpp\"\n"
                          "#include <vector>\n"}})
                  .empty());
  EXPECT_TRUE(lint_one("src/sched/min_min.cpp",
                       "#include \"sched/heuristics.hpp\"\n")
                  .empty());
  // tests/ headers are outside the hygiene scope.
  EXPECT_TRUE(lint_one("tests/helper.hpp", "int x;\n").empty());
}

// ----------------------------------------------- driver (run_lint) ---------

TEST(LintDriver, ExitCodeAndDiagnosticFormat) {
  std::ostringstream out;
  const int code = run_lint({{"src/sched/foo.cpp",
                              "double t = job.work / site.speed;\n"}},
                            out);
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.str().find("src/sched/foo.cpp:1: [GS-R03]"),
            std::string::npos);

  std::ostringstream clean;
  EXPECT_EQ(run_lint({{"src/sched/foo.cpp", "int x = 0;\n"}}, clean), 0);
  EXPECT_NE(clean.str().find("clean"), std::string::npos);
}

TEST(LintDriver, RuleFilterRestrictsExitCode) {
  const std::vector<SourceFile> files = {
      {"src/sched/foo.cpp", "double t = job.work / site.speed;\n"}};
  std::ostringstream out;
  EXPECT_EQ(run_lint(files, out, "GS-R05"), 0);
  EXPECT_EQ(run_lint(files, out, "GS-R03"), 1);
}

}  // namespace
}  // namespace gridsched::lint
