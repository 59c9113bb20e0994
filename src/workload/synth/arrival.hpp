// Pluggable arrival-process models for synthetic workloads: batch waves,
// homogeneous Poisson, and a bursty ON/OFF (interrupted Poisson) process.
// Each process is one lazy cursor that yields sorted arrival times one at
// a time; arrival_times drains it. Deterministic in (n, config, rng state).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hpp"
#include "util/rng.hpp"

namespace gridsched::workload::synth {

enum class ArrivalProcess {
  kBatch,       ///< fixed waves at k * wave_interval, jobs split evenly
  kPoisson,     ///< homogeneous Poisson at `rate`
  kBurstyOnOff, ///< Poisson at `burst_rate` during exponential ON periods
};

std::string to_string(ArrivalProcess process);

struct ArrivalConfig {
  ArrivalProcess process = ArrivalProcess::kPoisson;
  /// kPoisson: arrival rate, jobs per second.
  double rate = 0.01;
  /// kBatch: number of waves and their spacing (seconds). Remainder jobs
  /// land in the earliest waves.
  std::size_t batch_waves = 1;
  double wave_interval = 2000.0;
  /// kBurstyOnOff: mean ON / OFF period lengths (seconds, exponential) and
  /// the Poisson rate while ON. The long-run mean rate is
  /// burst_rate * on_duration / (on_duration + off_duration).
  double on_duration = 1000.0;
  double off_duration = 4000.0;
  double burst_rate = 0.05;
};

/// The arrival times of `n` jobs, drawn on demand: next() returns the
/// next time (nondecreasing) and must be called at most `n` times. The
/// constructor throws std::invalid_argument on non-positive rates or
/// durations or zero waves.
class ArrivalCursor {
 public:
  ArrivalCursor(std::size_t n, const ArrivalConfig& config, util::Rng rng);

  sim::Time next();

 private:
  ArrivalConfig config_;
  util::Rng rng_;
  sim::Time clock_ = 0.0;
  // kBatch: the current wave, its job count and how many it has yielded.
  std::size_t wave_ = 0;
  std::size_t wave_jobs_ = 0;
  std::size_t wave_done_ = 0;
  std::size_t per_wave_ = 0;
  std::size_t remainder_ = 0;
  // kBurstyOnOff: end of the current ON period, if one is open.
  sim::Time on_end_ = 0.0;
  bool on_ = false;
};

/// Generate `n` sorted arrival times (ArrivalCursor drained); throws as
/// its constructor does.
std::vector<sim::Time> arrival_times(std::size_t n, const ArrivalConfig& config,
                                     util::Rng rng);

}  // namespace gridsched::workload::synth
