// One benchmark instance: a single exp::run_once call on a registry
// scenario, timed from outside the library. Prints one JSON object on
// stdout with the run's host timings, its per-cycle scheduler latencies,
// the deterministic fingerprint of the simulated run and, with --trace,
// the per-layer attribution gathered from public hooks only:
//   - sim::KernelObserver callbacks (event stream, cycles, outcomes),
//   - exp::RunHooks::ga_profiles (GA evolve wall time and work counts),
//   - timed calls to public functions (workload construction).
//
// Usage:
//   perfbench_harness --scenario=NAME --jobs=N --algo=mct|min-min|stga
//                     [--batch-interval=S] [--arrival-rate=R] --seed=N
//                     [--trace]
//                     [--spans-out=FILE]
//
// Runs single-threaded: GA fitness is evaluated serially (no pool), so the
// timings measure the program rather than the host's thread scheduler.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "gridsched.hpp"

namespace {

using namespace gridsched;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// a / b, or 0 when nothing was counted (e.g. GA metrics of a heuristic).
template <typename A, typename B>
double ratio(A a, B b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

/// One traced interval. Spans of one run share `run_id`; `parent` indexes
/// the enclosing span (-1 for the root).
struct Span {
  const char* name;
  int parent;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

constexpr const char* kKindNames[sim::kEventKindCount] = {
    "arrival", "cycle", "job_end", "site_down", "site_up"};

/// Passive observer timing the run from the kernel's callbacks. Untraced
/// it only stamps run start/end, counts events and keeps the scheduler
/// wall of every non-empty cycle; traced it also charges host time to
/// event kinds, records the span tree and tallies outcomes.
class Probe final : public sim::KernelObserver {
 public:
  explicit Probe(bool trace) : trace_(trace) {}

  void on_run_start(const sim::SimKernel& kernel) override {
    run_start_ns = now_ns();
    n_sites = kernel.sites().size();
    rss_at_start = obs::current_rss_bytes();
    last_event_ns_ = run_start_ns;
  }

  void on_event(const sim::SimKernel&, const sim::Event& event) override {
    ++events;
    if (!trace_) return;
    if (event.kind == sim::EventKind::kJobArrival) ++arrivals;
    const std::int64_t t = now_ns();
    close_event(t);
    last_event_ns_ = t;
    last_kind_ = static_cast<int>(event.kind);
  }

  void on_dispatch(const sim::SimKernel&, sim::JobId, sim::SiteId,
                   const sim::NodeAvailability::Window&, double,
                   unsigned) override {
    ++dispatches;
  }
  void on_job_complete(const sim::SimKernel&, sim::JobId, sim::SiteId,
                       sim::Time) override {
    ++completions;
  }
  void on_attempt_failure(const sim::SimKernel&, sim::JobId, sim::SiteId,
                          sim::Time) override {
    ++failures;
  }
  void on_revoke(const sim::SimKernel&, sim::JobId, sim::SiteId,
                 sim::Time) override {
    ++revokes;
  }

  void on_cycle(const sim::SimKernel&, sim::Time, std::size_t batch_jobs,
                std::size_t assigned, double scheduler_wall_seconds) override {
    batch_ms.push_back(scheduler_wall_seconds * 1e3);
    if (!trace_) return;
    const std::int64_t end = now_ns();
    const auto wall = static_cast<std::int64_t>(scheduler_wall_seconds * 1e9);
    cycle_sched_ns_ += wall;
    cycle_ran_ = true;
    schedule_spans.push_back({end - wall, end});
    offered += batch_jobs;
    this->assigned += assigned;
    etc_cells += static_cast<std::uint64_t>(batch_jobs) * n_sites;
    batch_jobs_seen.push_back(static_cast<double>(batch_jobs));
    backlog.push_back(static_cast<double>(arrivals - completions));
  }

  void on_run_end(const sim::SimKernel& kernel) override {
    run_end_ns = now_ns();
    completed = kernel.counters().completed_jobs;
    if (trace_) close_event(run_end_ns);
  }

  // Untraced (always filled).
  std::int64_t run_start_ns = 0;
  std::int64_t run_end_ns = 0;
  std::uint64_t events = 0;
  std::size_t completed = 0;
  std::vector<double> batch_ms;
  std::size_t n_sites = 0;
  std::uint64_t rss_at_start = 0;

  // Traced only.
  std::uint64_t arrivals = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t completions = 0;
  std::uint64_t failures = 0;
  std::uint64_t revokes = 0;
  std::uint64_t offered = 0;
  std::uint64_t assigned = 0;
  std::uint64_t etc_cells = 0;
  std::int64_t kind_ns[sim::kEventKindCount] = {};
  std::vector<double> batch_jobs_seen;
  /// Jobs in the system (arrived, not yet completed) at each cycle.
  std::vector<double> backlog;
  /// [start, end) of every schedule() call, from on_cycle's reported wall.
  std::vector<std::pair<std::int64_t, std::int64_t>> schedule_spans;
  /// [start, end) of every batch-cycle event that ran the scheduler.
  std::vector<std::pair<std::int64_t, std::int64_t>> cycle_spans;

 private:
  /// Charge the wall since the previous event to that event's kind; a
  /// batch cycle's scheduler time belongs to `sched`, not `sim`.
  void close_event(std::int64_t t) {
    if (last_kind_ < 0) return;
    kind_ns[last_kind_] += t - last_event_ns_ - cycle_sched_ns_;
    if (cycle_ran_) cycle_spans.push_back({last_event_ns_, t});
    cycle_sched_ns_ = 0;
    cycle_ran_ = false;
  }

  bool trace_;
  std::int64_t last_event_ns_ = 0;
  int last_kind_ = -1;
  std::int64_t cycle_sched_ns_ = 0;
  bool cycle_ran_ = false;
};

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

/// Peak resident set of this process image in MiB: VmHWM from
/// /proc/self/status. obs::peak_rss_bytes (getrusage's ru_maxrss) is the
/// fallback only, because on Linux ru_maxrss also keeps the parent's
/// resident set at fork time, so under the Python driver it reads the
/// driver's size whenever that is the larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the line reads "... kB"
    }
  }
  return static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0);
}

/// Minimal JSON object writer: numbers print with all 17 significant
/// digits so exact values (the makespan pin) survive the round trip.
class Json {
 public:
  Json& num(const char* key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return raw(key, buffer);
  }
  Json& count(const char* key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  Json& text(const char* key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n') ? ' ' : c;
    }
    return raw(key, quoted + "\"");
  }
  Json& list(const char* key, const std::vector<double>& values) {
    std::string out = "[";
    char buffer[64];
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buffer, sizeof buffer, "%s%.6g", i ? "," : "", values[i]);
      out += buffer;
    }
    return raw(key, out + "]");
  }
  Json& raw(const char* key, const std::string& value) {
    body_ += (body_.empty() ? "{\"" : ",\"") + std::string(key) + "\":" +
             value;
    return *this;
  }
  [[nodiscard]] std::string str() const {
    return body_.empty() ? "{}" : body_ + "}";
  }

 private:
  std::string body_;
};

std::size_t scenario_jobs(const exp::Scenario& scenario) {
  switch (scenario.kind) {
    case exp::ScenarioKind::kNas:
      return scenario.nas.n_jobs;
    case exp::ScenarioKind::kPsa:
      return scenario.psa.n_jobs;
    case exp::ScenarioKind::kSynth:
      return scenario.synth.n_jobs;
    case exp::ScenarioKind::kSynthStream:
      return scenario.stream.n_jobs;
  }
  return 0;
}

exp::AlgorithmSpec make_spec(const std::string& algo) {
  if (algo == "stga") return exp::stga_spec();
  return exp::heuristic_spec(algo, security::RiskPolicy::f_risky(0.5));
}

/// Writes the span tree as Chrome trace_event JSON (ts/dur in us).
void write_spans(const std::string& path, const std::vector<Span>& spans,
                 std::uint64_t run_id) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  char buffer[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::snprintf(buffer, sizeof buffer,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"run\":%llu,"
                  "\"span\":%zu,\"parent\":%d}}",
                  i ? ",\n" : "\n", span.name,
                  static_cast<double>(span.start_ns - origin) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                  static_cast<unsigned long long>(run_id), i, span.parent);
    out << buffer;
  }
  out << "\n]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const std::string scenario_name = cli.get_or("scenario", std::string());
  const auto jobs = static_cast<std::size_t>(
      cli.get_or("jobs", static_cast<std::int64_t>(0)));
  const std::string algo = cli.get_or("algo", std::string("mct"));
  const double interval = cli.get_or("batch-interval", 0.0);
  const double arrival_rate = cli.get_or("arrival-rate", 0.0);
  const auto seed = static_cast<std::uint64_t>(
      cli.get_or("seed", static_cast<std::int64_t>(20050419)));
  const bool trace = cli.has("trace");
  const std::string spans_out = cli.get_or("spans-out", std::string());

  Json result;
  std::size_t n_jobs = 0;
  try {
    exp::Scenario scenario = exp::make_scenario(scenario_name, jobs);
    if (interval > 0.0) scenario.engine.batch_interval = interval;
    if (arrival_rate > 0.0) scenario.synth.arrival.rate = arrival_rate;
    const exp::AlgorithmSpec spec = make_spec(algo);
    n_jobs = scenario_jobs(scenario);

    Probe probe(trace);
    std::vector<core::GaProfile> profiles;
    exp::RunHooks hooks;
    hooks.observer = &probe;
    if (trace) hooks.ga_profiles = &profiles;

    const std::int64_t start = now_ns();
    const metrics::RunMetrics run =
        exp::run_once(scenario, spec, seed, /*ga_pool=*/nullptr, hooks);
    const std::int64_t end = now_ns();

    const std::int64_t setup_ns = probe.run_start_ns - start;
    const std::int64_t simulate_ns = probe.run_end_ns - probe.run_start_ns;
    const std::int64_t finalize_ns = end - probe.run_end_ns;
    result.text("status", "ok")
        .count("n_jobs", run.n_jobs)
        .count("completed", probe.completed)
        .num("wall_s", static_cast<double>(end - start) / 1e9)
        .num("setup_s", static_cast<double>(setup_ns) / 1e9)
        .list("batch_ms", probe.batch_ms)
        .raw("fingerprint",
             Json()
                 .count("n_jobs", run.n_jobs)
                 .count("events", probe.events)
                 .count("dispatches", run.total_attempts)
                 .count("cycles", run.batch_invocations)
                 .count("failures", run.failure_events)
                 .count("interruptions", run.interruptions)
                 .num("makespan", run.makespan)
                 .str());

    if (trace) {
      // Timed call to the public workload factory with the run's derived
      // workload seed (exp::run_once derives it as child stream 1). Made
      // after the run so the measured run starts from the same process
      // state as an untraced one.
      const std::uint64_t workload_seed =
          util::Rng::child(seed, 1).next_u64();
      const std::int64_t build_start = now_ns();
      if (scenario.kind == exp::ScenarioKind::kSynthStream) {
        const auto stream = exp::make_stream_workload(scenario, workload_seed);
        (void)stream;
      } else {
        const auto workload = exp::make_workload(scenario, workload_seed);
        (void)workload;
      }
      const std::int64_t build_ns = now_ns() - build_start;

      std::int64_t evolve_ns = 0;
      std::uint64_t generations = 0;
      std::uint64_t evaluations = 0;
      std::uint64_t memo_hits = 0;
      std::vector<double> generation_ms;
      for (const core::GaProfile& profile : profiles) {
        evolve_ns += static_cast<std::int64_t>(profile.total_wall_ms * 1e6);
        generations += profile.generations.empty()
                           ? 0
                           : profile.generations.size() - 1;
        for (const core::GaGenerationProfile& g : profile.generations) {
          evaluations += g.evaluations;
          memo_hits += g.memo_hits;
          generation_ms.push_back(g.wall_ms);
        }
      }

      // Span tree: run > {setup, simulate > cycle > schedule > evolve,
      // finalize}. A schedule span ends at on_cycle and starts the
      // reported scheduler wall earlier; an evolve span has the profile's
      // exact duration and is aligned to the end of its schedule span.
      std::vector<Span> spans;
      spans.push_back({"run", -1, start, end});
      spans.push_back({"setup", 0, start, probe.run_start_ns});
      spans.push_back({"simulate", 0, probe.run_start_ns, probe.run_end_ns});
      std::size_t next_schedule = 0;
      for (const auto& [cycle_start, cycle_end] : probe.cycle_spans) {
        const int cycle = static_cast<int>(spans.size());
        spans.push_back({"cycle", 2, cycle_start, cycle_end});
        const auto [sched_start, sched_end] =
            probe.schedule_spans[next_schedule];
        const int schedule = static_cast<int>(spans.size());
        spans.push_back({"schedule", cycle, sched_start, sched_end});
        if (next_schedule < profiles.size()) {
          const auto dur = static_cast<std::int64_t>(
              profiles[next_schedule].total_wall_ms * 1e6);
          spans.push_back({"evolve", schedule, sched_end - dur, sched_end});
        }
        ++next_schedule;
      }
      spans.push_back({"finalize", 0, probe.run_end_ns, end});
      if (!spans_out.empty()) write_spans(spans_out, spans, seed);

      std::int64_t sched_ns = 0;
      for (const Span& span : spans) {
        if (std::string(span.name) == "schedule") {
          sched_ns += span.end_ns - span.start_ns;
        }
      }
      const std::int64_t run_ns = end - start;
      const std::int64_t sim_self_ns = simulate_ns - sched_ns;
      // Host times (vary run to run) and deterministic counts (pure
      // functions of the input; equal across repeats and traced runs).
      Json times;
      times.num("workload.build_ms", ms(build_ns))
          .num("workload.rss_mb",
               static_cast<double>(probe.rss_at_start) / (1024.0 * 1024.0))
          .num("exp.setup_ms", ms(setup_ns))
          .num("exp.setup_rest_ms", ms(setup_ns - build_ns))
          .num("sim.self_ms", ms(sim_self_ns))
          .num("sim.ns_per_event", ratio(sim_self_ns, probe.events));
      for (std::size_t k = 0; k < sim::kEventKindCount; ++k) {
        const std::string key = std::string("sim.") + kKindNames[k] + "_ms";
        times.num(key.c_str(), ms(probe.kind_ns[k]));
      }
      times.num("sched.busy_ms", ms(sched_ns))
          .num("sched.share", ratio(sched_ns, run_ns))
          .num("sched.ns_per_etc_cell", ratio(sched_ns, probe.etc_cells))
          .num("core.evolve_ms", ms(evolve_ns))
          .num("core.prep_ms", profiles.empty() ? 0.0
                                                : ms(sched_ns - evolve_ns))
          .num("core.generation_ms_p50", percentile(generation_ms, 0.5))
          .num("core.ns_per_eval", ratio(evolve_ns, evaluations))
          .num("metrics.finalize_ms", ms(finalize_ns));
      Json counts;
      counts.count("sim.events", probe.events)
          .count("sim.cycles", probe.cycle_spans.size())
          .count("sim.dispatches", probe.dispatches)
          .count("sim.completions", probe.completions)
          .count("sim.failures", probe.failures)
          .count("sim.revocations", probe.revokes - probe.failures)
          .num("sim.backlog_p50", percentile(probe.backlog, 0.5))
          .num("sim.backlog_max", percentile(probe.backlog, 1.0))
          .num("sim.useful_dispatch_ratio",
               ratio(probe.completions, probe.dispatches))
          .count("sched.etc_cells", probe.etc_cells)
          .num("sched.assigned_ratio", ratio(probe.assigned, probe.offered))
          .num("sched.batch_jobs_p50", percentile(probe.batch_jobs_seen, 0.5))
          .count("core.generations", generations)
          .count("core.evaluations", evaluations)
          .count("core.memo_hits", memo_hits)
          .num("core.memo_hit_ratio",
               ratio(memo_hits, evaluations + memo_hits));
      result.raw("times", times.str()).raw("counts", counts.str())
          .num("span_run_ms", ms(run_ns))
          .num("span_parts_ms", ms(setup_ns + sched_ns + sim_self_ns +
                                   finalize_ns));
    }
  } catch (const std::exception& error) {
    result.text("status", "error").count("n_jobs", n_jobs).text("error",
                                                                error.what());
  }
  result.num("peak_rss_mb", peak_rss_mb());
  std::printf("%s\n", result.str().c_str());
  return 0;
}
