#include "workload/synth/arrival.hpp"

#include <stdexcept>
#include <utility>

namespace gridsched::workload::synth {

std::string to_string(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kBatch: return "batch";
    case ArrivalProcess::kPoisson: return "poisson";
    case ArrivalProcess::kBurstyOnOff: return "bursty";
  }
  return "?";
}

ArrivalCursor::ArrivalCursor(std::size_t n, const ArrivalConfig& config,
                             util::Rng rng)
    : config_(config), rng_(std::move(rng)) {
  switch (config.process) {
    case ArrivalProcess::kBatch:
      if (config.batch_waves == 0) {
        throw std::invalid_argument("arrival_times: batch_waves == 0");
      }
      if (config.batch_waves > 1 && config.wave_interval <= 0.0) {
        throw std::invalid_argument(
            "arrival_times: wave_interval must be > 0");
      }
      per_wave_ = n / config.batch_waves;
      remainder_ = n % config.batch_waves;
      wave_jobs_ = per_wave_ + (remainder_ > 0 ? 1 : 0);
      return;
    case ArrivalProcess::kPoisson:
      if (config.rate <= 0.0) {
        throw std::invalid_argument("arrival_times: rate must be > 0");
      }
      return;
    case ArrivalProcess::kBurstyOnOff:
      if (config.burst_rate <= 0.0 || config.on_duration <= 0.0 ||
          config.off_duration <= 0.0) {
        throw std::invalid_argument("arrival_times: bad bursty parameters");
      }
      return;
  }
  throw std::invalid_argument("arrival_times: unknown process");
}

sim::Time ArrivalCursor::next() {
  switch (config_.process) {
    case ArrivalProcess::kBatch:
      // The earliest waves take the remainder, so a wave that is due here
      // always has a job left while next() is called at most n times.
      if (wave_done_ == wave_jobs_) {
        ++wave_;
        wave_jobs_ = per_wave_ + (wave_ < remainder_ ? 1 : 0);
        wave_done_ = 0;
      }
      ++wave_done_;
      return static_cast<double>(wave_) * config_.wave_interval;
    case ArrivalProcess::kPoisson:
      clock_ += rng_.exponential(config_.rate);
      return clock_;
    case ArrivalProcess::kBurstyOnOff:
      // ON periods with Poisson arrivals, each followed by a silent OFF
      // period; the draw order is period end, gaps, then the OFF length.
      for (;;) {
        if (!on_) {
          on_end_ = clock_ + rng_.exponential(1.0 / config_.on_duration);
          on_ = true;
        }
        const double step = rng_.exponential(config_.burst_rate);
        if (clock_ + step <= on_end_) {
          clock_ += step;
          return clock_;
        }
        clock_ = on_end_ + rng_.exponential(1.0 / config_.off_duration);
        on_ = false;
      }
  }
  return clock_;
}

std::vector<sim::Time> arrival_times(std::size_t n, const ArrivalConfig& config,
                                     util::Rng rng) {
  ArrivalCursor cursor(n, config, std::move(rng));
  std::vector<sim::Time> times(n);
  for (sim::Time& time : times) time = cursor.next();
  return times;
}

}  // namespace gridsched::workload::synth
