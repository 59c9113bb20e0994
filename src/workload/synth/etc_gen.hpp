// Range-based ETC (Expected Time to Compute) matrix generation in the
// standard heterogeneous-computing benchmark classes (Braun et al., JPDC
// 2001): three consistency classes crossed with hi/lo task and machine
// heterogeneity.
//
// The raw generated matrix is executed directly by the simulator (it
// becomes the workload's sim::ExecModel), so every consistency class is
// exact. The log-domain least-squares rank-1 fit (`fit_work_speed`)
// derives the scalar work/speed fields a Workload still carries (trace
// I/O, fallback model, characterisation); the separate `log_rms_residual`
// diagnostic quantifies how much cross-site structure that rank-1
// projection would discard.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace gridsched::workload::synth {

/// Braun et al. consistency classes.
enum class EtcConsistency {
  kConsistent,      ///< site faster for one task => faster for every task
  kSemiConsistent,  ///< consistent sub-matrix on the even-indexed sites
  kInconsistent,    ///< no ordering constraint
};

enum class Heterogeneity { kLo, kHi };

std::string to_string(EtcConsistency consistency);
std::string to_string(Heterogeneity heterogeneity);

/// Range-based generation parameters. Defaults follow the Braun et al.
/// ranges: task multiplier U[1, 3000] (hi) / U[1, 100] (lo), machine
/// multiplier U[1, 1000] (hi) / U[1, 10] (lo).
struct EtcConfig {
  EtcConsistency consistency = EtcConsistency::kConsistent;
  Heterogeneity task_heterogeneity = Heterogeneity::kHi;
  Heterogeneity machine_heterogeneity = Heterogeneity::kHi;
  double task_range_hi = 3000.0;
  double task_range_lo = 100.0;
  double machine_range_hi = 1000.0;
  double machine_range_lo = 10.0;

  [[nodiscard]] double task_range() const noexcept {
    return task_heterogeneity == Heterogeneity::kHi ? task_range_hi
                                                    : task_range_lo;
  }
  [[nodiscard]] double machine_range() const noexcept {
    return machine_heterogeneity == Heterogeneity::kHi ? machine_range_hi
                                                       : machine_range_lo;
  }
};

/// Row-major tasks x machines matrix of execution times (seconds).
struct EtcMatrixData {
  std::size_t tasks = 0;
  std::size_t machines = 0;
  std::vector<double> cells;

  [[nodiscard]] double at(std::size_t task, std::size_t machine) const {
    return cells.at(task * machines + machine);
  }
};

/// Range-based method: cell(t, m) = tau_t * U[1, R_machine] with
/// tau_t ~ U[1, R_task], then per-class row sorting (a Batcher odd-even
/// merge network; byte-identical to std::sort). Deterministic in
/// (tasks, machines, config, rng state).
EtcMatrixData generate_etc(std::size_t tasks, std::size_t machines,
                           const EtcConfig& config, util::Rng& rng);

/// True iff the given machine columns are mutually consistent: some
/// permutation of them is faster-to-slower for *every* task row.
bool columns_consistent(const EtcMatrixData& etc,
                        const std::vector<std::size_t>& machine_columns);

/// Rank-1 projection exec(t, m) ~ work[t] / speed[m] (log-domain least
/// squares, gauge fixed so the geometric-mean speed is 1).
struct WorkSpeedFit {
  std::vector<double> work;   ///< per task, reference seconds
  std::vector<double> speed;  ///< per machine, relative
};

WorkSpeedFit fit_work_speed(const EtcMatrixData& etc);

/// RMS over all cells of log(cell) - log(work[t] / speed[m]): how far `etc`
/// is from the rank-1 model `fit` (0 for an exactly rank-1 matrix). Throws
/// std::invalid_argument when the fit's shape does not match the matrix.
double log_rms_residual(const EtcMatrixData& etc, const WorkSpeedFit& fit);

}  // namespace gridsched::workload::synth
