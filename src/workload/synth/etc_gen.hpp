// Range-based ETC (Expected Time to Compute) matrix generation in the
// standard heterogeneous-computing benchmark classes (Braun et al., JPDC
// 2001): three consistency classes crossed with hi/lo task and machine
// heterogeneity.
//
// The raw generated rows are executed directly by the simulator (a synth
// job cursor regenerates each row as the kernel admits the job, and a
// materialized workload gathers them into its sim::ExecModel), so every
// consistency class is exact. The log-domain least-squares rank-1 fit
// (`WorkSpeedFitter`, `fit_work_speed`) derives the scalar work/speed
// fields a Workload still carries (trace I/O, fallback model,
// characterisation); the separate `log_rms_residual` diagnostic quantifies
// how much cross-site structure that rank-1 projection would discard.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
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

/// The range-based generator, one task row at a time: row t is
/// cell(t, m) = tau_t * U[1, R_machine] with tau_t ~ U[1, R_task], then
/// per-class row sorting (a Batcher odd-even merge network; byte-identical
/// to std::sort). Two cursors on equal RNG states yield equal rows, so a
/// consumer can fit a matrix in one pass and regenerate its rows in a
/// second without ever holding it. Allocates only at construction.
class EtcRowCursor {
 public:
  /// Throws std::invalid_argument when `machines` is 0 or the active task
  /// or machine range (the field named in the message) is not finite and
  /// >= 1.
  EtcRowCursor(std::size_t machines, const EtcConfig& config, util::Rng rng);

  /// The RNG state after the rows drawn so far.
  [[nodiscard]] const util::Rng& rng() const noexcept { return rng_; }

  /// Write the next task's row into its `machines` cells at `row`.
  void next(double* row);

 private:
  /// Sort `width` cells ascending through network_ (Batcher's odd-even
  /// merge sort of that width).
  void sort(double* row, std::size_t width) const noexcept;

  std::size_t machines_;
  EtcConfig config_;
  util::Rng rng_;
  /// The semi-consistent class sorts only the even-indexed cells,
  /// gathered into this buffer (empty for the other classes).
  std::vector<double> even_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> network_;
};

/// The whole matrix from an EtcRowCursor on `rng` (which advances past the
/// draws). Deterministic in (tasks, machines, config, rng state).
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

/// The rank-1 fit accumulated row by row, in the matrix's cell order
/// (row_mean[t], col_mean[m] and the grand sum see every cell in the same
/// order), so fitting rows as a cursor yields them equals fitting the
/// matrix they form, bit for bit. Holds 8 B per task plus 8 B per machine.
class WorkSpeedFitter {
 public:
  /// `tasks` only reserves the work vector.
  WorkSpeedFitter(std::size_t tasks, std::size_t machines);

  /// Fold in the next task's row (machines cells). Throws
  /// std::invalid_argument on a cell that is not > 0.
  void add_row(const double* row);

  /// The fit of every row added; throws std::invalid_argument when none
  /// was. Call once, after the last row.
  WorkSpeedFit finish();

 private:
  std::size_t machines_;
  std::vector<double> row_mean_;
  std::vector<double> col_mean_;
  double grand_ = 0.0;
};

/// WorkSpeedFitter over the rows of `etc`.
WorkSpeedFit fit_work_speed(const EtcMatrixData& etc);

/// RMS over all cells of log(cell) - log(work[t] / speed[m]): how far `etc`
/// is from the rank-1 model `fit` (0 for an exactly rank-1 matrix). Throws
/// std::invalid_argument when the fit's shape does not match the matrix.
double log_rms_residual(const EtcMatrixData& etc, const WorkSpeedFit& fit);

}  // namespace gridsched::workload::synth
