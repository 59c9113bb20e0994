// Expected-Time-to-Compute matrix (Braun et al. terminology): exec(j, s) is
// the execution time of batch job j on site s, infinity when the job does
// not fit. core::build_problem materializes a GA batch through it; the
// heuristics price cells on the fly (sched/scan.hpp) and never build one.
#pragma once

#include <limits>
#include <vector>

#include "sim/scheduling.hpp"

namespace gridsched::sched {

class EtcMatrix {
 public:
  static constexpr double kInfeasible = std::numeric_limits<double>::infinity();

  /// Batch view of the context's execution model: the raw per-(job, site)
  /// ETC when the workload carries one, the rank-1 work/speed law
  /// otherwise. The heuristics resolve cells on the fly instead; the GA
  /// problem (core::build_problem) materializes its batch through this.
  explicit EtcMatrix(const sim::SchedulerContext& context);

  [[nodiscard]] std::size_t jobs() const noexcept { return n_jobs_; }
  [[nodiscard]] std::size_t sites() const noexcept { return n_sites_; }

  /// Execution time of job j on site s (kInfeasible if it does not fit).
  [[nodiscard]] double exec(std::size_t j, std::size_t s) const {
    return cells_.at(j * n_sites_ + s);
  }

  [[nodiscard]] const std::vector<double>& flattened() const noexcept {
    return cells_;
  }

 private:
  std::size_t n_jobs_;
  std::size_t n_sites_;
  std::vector<double> cells_;
};

}  // namespace gridsched::sched
