// Synthetic workload generator tour: build custom SynthConfigs
// programmatically (rather than going through the scenario registry),
// sweep the six Braun ETC classes and the three arrival processes with a
// chosen heuristic, and report how well each generated matrix fits the
// simulator's rank-1 work/speed model.
//
// The sweep itself runs as a programmatic campaign: each variant becomes
// a ScenarioRef carrying a custom Scenario (the JSON spec form can only
// name registry scenarios; the C++ API can inject generator configs the
// registry doesn't know), sharded across the thread pool with
// deterministic per-cell seeds.
//
//   ./synth_sweep [--jobs=400] [--sites=16] [--algo=min-min] [--seed=11]
//                 [--reps=1] [--threads=0] [--csv=synth_sweep.csv]
#include <cstdio>
#include <stdexcept>
#include <string_view>

#include "gridsched.hpp"

using namespace gridsched;
using workload::synth::ArrivalProcess;
using workload::synth::EtcConsistency;
using workload::synth::Heterogeneity;
using workload::synth::SynthConfig;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto jobs =
      static_cast<std::size_t>(cli.get_or("jobs", std::int64_t{400}));
  const auto sites =
      static_cast<std::size_t>(cli.get_or("sites", std::int64_t{16}));
  const auto seed =
      static_cast<std::uint64_t>(cli.get_or("seed", std::int64_t{11}));
  const std::vector<std::string> algos = sched::heuristic_names();
  const std::string algo =
      cli.get_choice("algo", std::string("min-min"), algos);

  SynthConfig base;
  base.n_jobs = jobs;
  base.n_sites = sites;
  base.arrival.rate = 0.05;

  std::vector<SynthConfig> variants;

  // The six consistency x heterogeneity classes of Braun et al.
  for (const auto consistency :
       {EtcConsistency::kConsistent, EtcConsistency::kSemiConsistent,
        EtcConsistency::kInconsistent}) {
    for (const auto hetero : {Heterogeneity::kHi, Heterogeneity::kLo}) {
      SynthConfig config = base;
      config.etc.consistency = consistency;
      config.etc.task_heterogeneity = hetero;
      config.etc.machine_heterogeneity = hetero;
      config.name = workload::synth::to_string(consistency) + "-" +
                    workload::synth::to_string(hetero) +
                    workload::synth::to_string(hetero);
      variants.push_back(std::move(config));
    }
  }
  // The three arrival processes on the default (consistent-hihi) matrix.
  for (const auto process :
       {ArrivalProcess::kBatch, ArrivalProcess::kPoisson,
        ArrivalProcess::kBurstyOnOff}) {
    SynthConfig config = base;
    config.arrival.process = process;
    config.arrival.batch_waves = 4;
    config.arrival.wave_interval = 8000.0;
    config.arrival.burst_rate = 0.25;
    config.name = "arrival-" + workload::synth::to_string(process);
    variants.push_back(std::move(config));
  }

  // One campaign over all variants: custom scenarios, one policy.
  exp::campaign::CampaignSpec spec;
  spec.name = "synth-sweep";
  spec.seed = seed;
  spec.replications =
      static_cast<std::size_t>(cli.get_or("reps", std::int64_t{1}));
  spec.metrics = {"makespan", "slowdown", "n_fail", "n_risk"};
  for (const SynthConfig& config : variants) {
    exp::campaign::ScenarioRef ref;
    ref.label = config.name;
    ref.custom = exp::synth_scenario(config);
    spec.scenarios.push_back(std::move(ref));
  }
  {
    exp::campaign::PolicyRef policy;
    policy.algo = algo;
    policy.mode = "f-risky";
    policy.f = 0.5;
    spec.policies.push_back(std::move(policy));
  }

  exp::campaign::RunnerOptions options;
  options.threads =
      static_cast<std::size_t>(cli.get_or("threads", std::int64_t{0}));
  const exp::campaign::CampaignResult result =
      exp::campaign::CampaignRunner(options).run(spec);

  // Merge the campaign aggregates with the generator's rank-1 fit
  // diagnostic (a generation byproduct, not a simulation metric). The
  // residual is computed on the variant's workload at the base --seed: a
  // per-class characteristic, not a property of the exact instances the
  // campaign simulated — cells draw their own workload seeds (and with
  // --reps>1 there is no single instance to pair with anyway). The fit is
  // each job's work and each site's speed; the matrix is the scaled ETC
  // the workload executes.
  const auto fit_residual = [](const workload::Workload& w) {
    workload::synth::EtcMatrixData etc;
    etc.tasks = w.jobs.size();
    etc.machines = w.sites.size();
    const auto cells = w.exec.matrix_cells();
    etc.cells.assign(cells.begin(), cells.end());
    workload::synth::WorkSpeedFit fit;
    for (const sim::Job& job : w.jobs) fit.work.push_back(job.work);
    for (const sim::SiteConfig& site : w.sites) fit.speed.push_back(site.speed);
    return workload::synth::log_rms_residual(etc, fit);
  };
  util::Table table({"variant", "fit residual", "makespan (s)", "slowdown",
                     "N_fail", "N_risk"});
  for (std::size_t v = 0; v < variants.size(); ++v) {
    const double residual =
        fit_residual(workload::synth::synth_workload(variants[v], seed));
    const exp::campaign::GroupSummary& group = result.groups[v];
    auto metric = [&](std::string_view key) -> const util::Summary& {
      for (const auto& entry : group.metrics) {
        if (entry.key == key) return entry.summary;
      }
      throw std::logic_error("missing metric in campaign result");
    };
    table.row()
        .cell(variants[v].name)
        .cell(residual, 3)
        .cell(metric("makespan").mean, 0)
        .cell(metric("slowdown").mean, 2)
        .cell(metric("n_fail").mean, 0)
        .cell(metric("n_risk").mean, 0);
  }
  std::printf("%s\n", table.str().c_str());

  if (const auto path = cli.get("csv")) {
    try {
      util::write_file(*path, table.csv());
    } catch (const std::runtime_error& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      return 1;
    }
    std::printf("wrote %s\n", path->c_str());
  }
  return 0;
}
