// gridsched_benchgate: CI regression gate over the committed BENCH_*.json
// baselines. Reads a committed baseline and a freshly generated artifact
// from the same bench binary and applies a per-bench policy (keyed on the
// artifact's "bench" field):
//
//   kernel     hard-fail when any deterministic kernel counter (events,
//              dispatches, cycles, failures, interruptions, makespan,
//              n_jobs) drifts from the baseline — those are pure functions
//              of (scenario, seed), so a drift is a semantic change that
//              must be reviewed (and the baseline regenerated) rather
//              than absorbed silently. Throughput (events/sec) and peak
//              RSS are hardware-dependent: deviations beyond the advisory
//              band only warn. Streaming rows (synth-stream-*) get an
//              extra advisory: resident growth per streamed job
//              (rss_delta_bytes / n_jobs) beyond --stream-bytes-per-job
//              suggests the kernel stopped holding O(active) job state.
//              Its "builds" rows fingerprint the built synth workloads:
//              a digest drift, or a row present on only one side, is a
//              hard failure; build_ms is advisory.
//
//   ga_decode  hard-fail when the fresh run reports any steady-state
//              allocation on the decode fast path (fast_allocs_per_decode
//              != 0; ROADMAP "Decode fast-path invariants") or when the
//              paper-shaped target-512x16 speedup falls below the floor
//              (--speedup-floor, default 1.5 — well under the committed
//              ~6.5x, so only a real fast-path regression trips it).
//              The ga_batch / ga_batch_nas work counters (evaluations,
//              memo_hits, decodes) are pure functions of the batch shape
//              and seed: when the fresh batch has the baseline's seed,
//              n_jobs, n_sites, population and generations, any drift is
//              a hard failure. ns-per-decode comparisons against the
//              baseline are advisory.
//
// Exit codes: 0 pass (warnings allowed), 1 hard failure, 2 usage/IO
// error. The gate never launches the benches itself — CI runs them and
// hands the artifacts over — so it stays dependency-free and instant.
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

using gridsched::util::Cli;
namespace json = gridsched::util::json;

struct Gate {
  int hard = 0;
  int warnings = 0;

  void fail(const std::string& message) {
    std::fprintf(stderr, "benchgate: [FAIL] %s\n", message.c_str());
    ++hard;
  }
  void warn(const std::string& message) {
    std::fprintf(stderr, "benchgate: [warn] %s\n", message.c_str());
    ++warnings;
  }
};

std::string fmt(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

/// Find the row whose "scenario" (plus optional shape keys) matches; the
/// bench artifacts key rows by scenario name.
const json::Value* find_row(const json::Value& rows, const json::Value& like,
                            const std::vector<const char*>& keys) {
  for (const json::Value& row : rows.items()) {
    bool match = true;
    for (const char* key : keys) {
      const json::Value* a = row.find(key);
      const json::Value* b = like.find(key);
      if (a == nullptr || b == nullptr) return nullptr;
      const bool equal = a->is_string()
                             ? a->as_string() == b->as_string()
                             : a->as_number() == b->as_number();
      if (!equal) {
        match = false;
        break;
      }
    }
    if (match) return &row;
  }
  return nullptr;
}

/// Hard-compare a deterministic numeric field (exact equality — both
/// sides are bit-deterministic in the same seed).
void check_exact(Gate& gate, const std::string& where,
                 const json::Value& baseline, const json::Value& fresh,
                 const char* key) {
  const json::Value& expect = baseline.at(key);
  const json::Value& got = fresh.at(key);
  const auto text = [](const json::Value& value) {
    return value.is_string() ? value.as_string() : fmt(value.as_number());
  };
  const bool equal =
      expect.is_string()
          ? got.is_string() && got.as_string() == expect.as_string()
          : got.as_number() == expect.as_number();
  if (!equal) {
    gate.fail(where + ": deterministic field \"" + key + "\" drifted (" +
              text(expect) + " -> " + text(got) +
              ") — review the change and regenerate the baseline");
  }
}

/// Advisory throughput comparison: `fresh` below `(1 - band) * baseline`
/// warns (higher is better).
void advise_rate(Gate& gate, const std::string& where,
                 const json::Value& baseline, const json::Value& fresh,
                 const char* key, double band) {
  const json::Value* expect = baseline.find(key);
  const json::Value* got = fresh.find(key);
  if (expect == nullptr || got == nullptr) return;
  if (expect->as_number() <= 0.0) return;
  const double ratio = got->as_number() / expect->as_number();
  if (ratio < 1.0 - band) {
    gate.warn(where + ": " + std::string(key) + " at " +
              fmt(ratio * 100.0) + "% of baseline (" +
              fmt(expect->as_number()) + " -> " + fmt(got->as_number()) +
              ") — advisory; hardware-dependent");
  }
}

void gate_kernel(Gate& gate, const json::Value& baseline,
                 const json::Value& fresh, double band,
                 double stream_bytes_per_job) {
  if (baseline.at("seed").as_uint() != fresh.at("seed").as_uint() ||
      baseline.at("quick").as_bool() != fresh.at("quick").as_bool()) {
    gate.fail("kernel: baseline and fresh artifacts were generated with "
              "different --seed/--quick shapes; rerun bench_kernel with "
              "the baseline's flags");
    return;
  }
  static const std::vector<const char*> kRowKey = {"scenario"};
  for (const json::Value& row : baseline.at("scenarios").items()) {
    const std::string& name = row.at("scenario").as_string();
    const json::Value* match = find_row(fresh.at("scenarios"), row, kRowKey);
    if (match == nullptr) {
      gate.fail("kernel: scenario \"" + name +
                "\" is in the baseline but not in the fresh artifact");
      continue;
    }
    const std::string where = "kernel/" + name;
    for (const char* key : {"n_jobs", "events", "dispatches", "cycles",
                            "failures", "interruptions", "makespan"}) {
      check_exact(gate, where, row, *match, key);
    }
    advise_rate(gate, where, row, *match, "events_per_sec", band);
    advise_rate(gate, where, row, *match, "dispatches_per_sec", band);
  }
  // Build rows: the baseline and the fresh artifact must hold the same
  // scenarios, each with an unchanged workload digest.
  const json::Value* base_builds = baseline.find("builds");
  const json::Value* fresh_builds = fresh.find("builds");
  if (base_builds == nullptr || fresh_builds == nullptr) {
    gate.fail("kernel: \"builds\" array missing from the " +
              std::string(base_builds == nullptr ? "baseline" : "fresh") +
              " artifact");
  } else {
    for (const json::Value& row : base_builds->items()) {
      const std::string where =
          "kernel/build/" + row.at("scenario").as_string();
      const json::Value* match = find_row(*fresh_builds, row, kRowKey);
      if (match == nullptr) {
        gate.fail(where + ": in the baseline but not in the fresh artifact");
        continue;
      }
      check_exact(gate, where, row, *match, "n_jobs");
      check_exact(gate, where, row, *match, "digest");
      const double expect = row.at("build_ms").as_number();
      const double got = match->at("build_ms").as_number();
      if (expect > 0.0 && got > (1.0 + band) * expect) {
        gate.warn(where + ": build_ms slowed " + fmt(got / expect) +
                  "x over baseline (" + fmt(expect) + " -> " + fmt(got) +
                  ") — advisory; hardware-dependent");
      }
    }
    for (const json::Value& row : fresh_builds->items()) {
      if (find_row(*base_builds, row, kRowKey) == nullptr) {
        gate.fail("kernel/build/" + row.at("scenario").as_string() +
                  ": no baseline row — regenerate the baseline");
      }
    }
  }
  // Streaming rows carry the O(active)-memory claim: resident growth per
  // job must stay far below the footprint of a materialised job record.
  // Self-check on the fresh artifact (no baseline needed) and advisory —
  // RSS attribution is allocator- and page-cache-dependent.
  for (const json::Value& row : fresh.at("scenarios").items()) {
    const std::string& name = row.at("scenario").as_string();
    if (name.rfind("synth-stream", 0) != 0) continue;
    const json::Value* delta = row.find("rss_delta_bytes");
    const double n_jobs = row.at("n_jobs").as_number();
    if (delta == nullptr || n_jobs <= 0.0) continue;
    const double per_job = delta->as_number() / n_jobs;
    if (per_job > stream_bytes_per_job) {
      gate.warn("kernel/" + name + ": " + fmt(per_job) +
                " resident bytes per streamed job (limit " +
                fmt(stream_bytes_per_job) +
                ") — the O(active) streaming memory claim looks violated");
    }
  }
  // Peak RSS: lower is better; warn when fresh exceeds (1 + band) * base.
  const double base_rss =
      static_cast<double>(baseline.at("peak_rss_bytes").as_uint());
  const double got_rss =
      static_cast<double>(fresh.at("peak_rss_bytes").as_uint());
  if (base_rss > 0.0 && got_rss > (1.0 + band) * base_rss) {
    gate.warn("kernel: peak_rss_bytes grew " + fmt(got_rss / base_rss) +
              "x over baseline (" + fmt(base_rss) + " -> " + fmt(got_rss) +
              ") — advisory; hardware-dependent");
  }
}

void gate_ga_decode(Gate& gate, const json::Value& baseline,
                    const json::Value& fresh, double band,
                    double speedup_floor) {
  std::optional<double> target_speedup;
  for (const json::Value& row : fresh.at("decode").items()) {
    const std::string& name = row.at("scenario").as_string();
    const std::string where =
        "ga_decode/" + name + "/" +
        std::to_string(row.at("n_jobs").as_uint()) + "x" +
        std::to_string(row.at("n_sites").as_uint());
    // ROADMAP invariant, not a baseline comparison: the fresh run itself
    // must report a heap-free steady-state decode.
    if (row.at("fast_allocs_per_decode").as_uint() != 0) {
      gate.fail(where + ": fast path allocated (fast_allocs_per_decode = " +
                std::to_string(row.at("fast_allocs_per_decode").as_uint()) +
                ", expected 0) — the decode arena invariant regressed");
    }
    if (name == "target-512x16") {
      target_speedup = row.at("speedup").as_number();
    }
    static const std::vector<const char*> kRowKey = {"scenario", "n_jobs",
                                                     "n_sites"};
    if (const json::Value* match =
            find_row(baseline.at("decode"), row, kRowKey)) {
      // Lower ns/decode is better — compare as a rate via the inverse.
      const double expect = match->at("fast_ns_per_decode").as_number();
      const double got = row.at("fast_ns_per_decode").as_number();
      if (expect > 0.0 && got > (1.0 + band) * expect) {
        gate.warn(where + ": fast_ns_per_decode slowed " +
                  fmt(got / expect) + "x over baseline (" + fmt(expect) +
                  " -> " + fmt(got) + ") — advisory; hardware-dependent");
      }
    }
  }
  for (const char* batch : {"ga_batch", "ga_batch_nas"}) {
    const json::Value& expect = baseline.at(batch);
    const json::Value& got = fresh.at(batch);
    const auto differs = [&](const char* key) {
      return expect.at(key).as_number() != got.at(key).as_number();
    };
    if (baseline.at("seed").as_number() != fresh.at("seed").as_number() ||
        differs("n_jobs") || differs("n_sites") || differs("population") ||
        differs("generations")) {
      continue;  // another batch: its counters are not comparable
    }
    for (const char* key : {"evaluations", "memo_hits", "decodes"}) {
      check_exact(gate, std::string("ga_decode/") + batch, expect, got, key);
    }
  }
  if (!target_speedup.has_value()) {
    gate.fail("ga_decode: fresh artifact has no target-512x16 row — the "
              "paper-shaped decode benchmark must run");
  } else if (*target_speedup < speedup_floor) {
    gate.fail("ga_decode: target-512x16 speedup " + fmt(*target_speedup) +
              "x is below the floor " + fmt(speedup_floor) +
              "x — the decode fast path lost its advantage");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const std::optional<std::string> baseline_path = cli.get("baseline");
  const std::optional<std::string> fresh_path = cli.get("fresh");
  if (!baseline_path.has_value() || !fresh_path.has_value()) {
    std::fprintf(
        stderr,
        "usage: %s --baseline=BENCH_x.json --fresh=fresh.json\n"
        "           [--band=0.5] [--speedup-floor=1.5]\n"
        "           [--stream-bytes-per-job=64]\n"
        "Compares a fresh bench artifact against its committed baseline;\n"
        "exits 1 on hard regressions, 0 on pass (advisory warnings ok).\n",
        cli.program().c_str());
    return 2;
  }
  const double band = cli.get_or("band", 0.5);
  const double speedup_floor = cli.get_or("speedup-floor", 1.5);
  const double stream_bytes_per_job = cli.get_or("stream-bytes-per-job", 64.0);

  Gate gate;
  try {
    const json::Value baseline = json::parse_file(*baseline_path);
    const json::Value fresh = json::parse_file(*fresh_path);
    const std::string& kind = fresh.at("bench").as_string();
    if (baseline.at("bench").as_string() != kind) {
      std::fprintf(stderr,
                   "benchgate: baseline is \"%s\" but fresh is \"%s\" — "
                   "mismatched artifacts\n",
                   baseline.at("bench").as_string().c_str(), kind.c_str());
      return 2;
    }
    if (kind == "kernel") {
      gate_kernel(gate, baseline, fresh, band, stream_bytes_per_job);
    } else if (kind == "ga_decode") {
      gate_ga_decode(gate, baseline, fresh, band, speedup_floor);
    } else {
      std::fprintf(stderr, "benchgate: no policy for bench \"%s\"\n",
                   kind.c_str());
      return 2;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "benchgate: %s\n", error.what());
    return 2;
  }
  if (gate.hard > 0) {
    std::fprintf(stderr, "benchgate: %d hard failure%s, %d warning%s\n",
                 gate.hard, gate.hard == 1 ? "" : "s", gate.warnings,
                 gate.warnings == 1 ? "" : "s");
    return 1;
  }
  std::fprintf(stderr, "benchgate: pass (%d warning%s)\n", gate.warnings,
               gate.warnings == 1 ? "" : "s");
  return 0;
}
