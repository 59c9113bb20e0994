#include "exp/scenario.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"

namespace gridsched::exp {

namespace {

/// Stream index for the training-workload ETC row sampling (independent of
/// every draw inside the generators themselves).
constexpr std::uint64_t kTrainingEtcStream = 0x7e57;

}  // namespace

Scenario nas_scenario(std::size_t n_jobs) {
  Scenario scenario;
  scenario.kind = ScenarioKind::kNas;
  scenario.nas.n_jobs = n_jobs;
  // Keep the offered load constant when shrinking the job count for tests.
  scenario.nas.horizon =
      46.0 * 86400.0 * static_cast<double>(n_jobs) / 16000.0;
  scenario.engine.batch_interval = 4000.0;
  return scenario;
}

Scenario psa_scenario(std::size_t n_jobs) {
  Scenario scenario;
  scenario.kind = ScenarioKind::kPsa;
  scenario.psa.n_jobs = n_jobs;
  scenario.engine.batch_interval = 2000.0;
  return scenario;
}

Scenario synth_scenario(workload::synth::SynthConfig config) {
  Scenario scenario;
  scenario.kind = ScenarioKind::kSynth;
  scenario.synth = std::move(config);
  scenario.engine.batch_interval = 2000.0;
  return scenario;
}

Scenario synth_stream_scenario(workload::synth::SynthStreamConfig config) {
  Scenario scenario;
  scenario.kind = ScenarioKind::kSynthStream;
  scenario.stream = std::move(config);
  scenario.engine.batch_interval = 2000.0;
  return scenario;
}

workload::Workload make_workload(const Scenario& scenario, std::uint64_t seed) {
  switch (scenario.kind) {
    case ScenarioKind::kNas:
      return workload::nas_workload(scenario.nas, seed);
    case ScenarioKind::kPsa:
      return workload::psa_workload(scenario.psa, seed);
    case ScenarioKind::kSynth:
    case ScenarioKind::kSynthStream:
      // Draining the cursor gives byte-identical jobs to the streamed run
      // (same generator, same draws) at O(n_jobs) job memory: fine for
      // trace export, training and tests; a run streams instead.
      return workload::synth::materialize_stream(
          make_stream_workload(scenario, seed));
  }
  throw std::invalid_argument("make_workload: unknown scenario kind");
}

workload::synth::StreamWorkload make_stream_workload(const Scenario& scenario,
                                                     std::uint64_t seed) {
  switch (scenario.kind) {
    case ScenarioKind::kSynth:
      return workload::synth::synth_stream(scenario.synth, seed);
    case ScenarioKind::kSynthStream:
      return workload::synth::stream_workload(scenario.stream, seed);
    case ScenarioKind::kNas:
    case ScenarioKind::kPsa:
      break;
  }
  throw std::invalid_argument(
      "make_stream_workload: scenario is not a synth kind");
}

workload::Workload make_training_workload(const Scenario& scenario,
                                          const workload::Workload& main,
                                          std::size_t n_jobs,
                                          std::uint64_t seed) {
  Scenario training = scenario;
  if (training.kind == ScenarioKind::kNas) {
    const double fraction = static_cast<double>(n_jobs) /
                            static_cast<double>(training.nas.n_jobs);
    training.nas.n_jobs = n_jobs;
    training.nas.horizon =
        std::max(training.nas.horizon * fraction, 10.0 * 4000.0);
  } else if (training.kind == ScenarioKind::kSynth) {
    training.synth.n_jobs = n_jobs;
  } else if (training.kind == ScenarioKind::kSynthStream) {
    training.stream.n_jobs = n_jobs;  // drained by make_workload below
  } else {
    training.psa.n_jobs = n_jobs;
  }
  workload::Workload workload = make_workload(training, seed);
  workload.name += "-training";
  workload.sites = main.sites;  // identical grid => comparable signatures
  // Training is the paper's churn-free bootstrap phase; any churn
  // parameters the training generator drew were against the discarded
  // training grid anyway.
  workload.churn.clear();
  // The grid substitution invalidates any raw ETC the training generator
  // attached (its cells were fitted jointly with the discarded training
  // sites, and a raw matrix is authoritative). Re-gather the *main* grid's
  // ETC instead: each training job samples a main-matrix row (with the
  // matching work scalar, keeping etc ~ work / speed self-consistent), so
  // the history table is trained on the very per-site columns the main run
  // executes rather than on a rank-1 projection of a different grid.
  if (main.exec.has_matrix() && !main.jobs.empty()) {
    const std::span<const double> cells = main.exec.matrix_cells();
    const std::size_t n_sites = main.exec.matrix_sites();
    const std::size_t n_main = main.exec.matrix_jobs();
    util::Rng row_rng = util::Rng::child(seed, kTrainingEtcStream);
    std::vector<double> rows(workload.jobs.size() * n_sites);
    for (std::size_t j = 0; j < workload.jobs.size(); ++j) {
      const std::size_t r = row_rng.index(n_main);
      std::copy_n(cells.begin() + static_cast<std::ptrdiff_t>(r * n_sites),
                  n_sites, rows.begin() + static_cast<std::ptrdiff_t>(j *
                                                                      n_sites));
      workload.jobs[j].work = main.jobs[r].work;
    }
    workload.exec =
        sim::ExecModel(workload.jobs.size(), n_sites, std::move(rows));
  } else {
    workload.exec = sim::ExecModel{};
  }
  return workload;
}

}  // namespace gridsched::exp
