// Per-(job, site) execution-time resolution. A materialized workload may
// attach a raw Expected-Time-to-Compute matrix (Braun et al. terminology);
// when present it is *authoritative*. Without a matrix the rank-1
// `work / speed` law applies, generated on demand from the job/site fields.
// A matrix reaches a run only through its job stream
// (workload::MaterializedStream yields row j with job j).
//
// Invariant (ROADMAP "Execution-model invariant"): every consumer of
// execution times resolves them through sim::exec_time on the job's row (a
// row of the kernel's row pool, or null for the rank-1 law) or through a
// matrix derived that way (sched::EtcMatrix, GaProblem::exec). Rows travel
// with the batch jobs (sim::BatchJob::etc_row).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "sim/types.hpp"

namespace gridsched::sim {

/// The one execution-time rule: the job's raw ETC cell for `site` when it
/// carries a row, the rank-1 `work / speed` when `row` is null. The
/// kernel, the schedulers and the GA all resolve through it.
[[nodiscard]] inline double exec_time(const double* row, double work,
                                      SiteId site, double speed) noexcept {
  return row != nullptr ? row[static_cast<std::size_t>(site)] : work / speed;
}

class ExecModel {
 public:
  /// Rank-1 fallback model: exec(job, site) = work / speed.
  ExecModel() = default;

  /// Wrap a raw jobs x sites ETC matrix, row-major; row j holds the
  /// execution times of the job with JobId j (workloads assign dense ids in
  /// vector order). Cells must be finite and > 0 — infeasible (job, site)
  /// pairs are a node-fit question, not an ETC one. Throws
  /// std::invalid_argument on shape or cell violations.
  ExecModel(std::size_t n_jobs, std::size_t n_sites, std::vector<double> cells);

  [[nodiscard]] bool has_matrix() const noexcept { return matrix_ != nullptr; }
  [[nodiscard]] std::size_t matrix_jobs() const noexcept {
    return matrix_ ? matrix_->n_jobs : 0;
  }
  [[nodiscard]] std::size_t matrix_sites() const noexcept {
    return matrix_ ? matrix_->n_sites : 0;
  }
  /// The raw row-major cells when a matrix is attached (for serialization
  /// and diagnostics); empty span otherwise.
  [[nodiscard]] std::span<const double> matrix_cells() const noexcept {
    return matrix_ ? std::span<const double>(matrix_->cells)
                   : std::span<const double>();
  }

  /// The raw ETC row of `job` (matrix_sites() cells) when a matrix is
  /// attached, null for the rank-1 fallback. Valid while the model it came
  /// from (or a copy) is alive.
  [[nodiscard]] const double* row(JobId job) const noexcept {
    if (matrix_ == nullptr) return nullptr;
    return matrix_->cells.data() +
           static_cast<std::size_t>(job) * matrix_->n_sites;
  }

 private:
  struct Matrix {
    std::size_t n_jobs = 0;
    std::size_t n_sites = 0;
    std::vector<double> cells;
  };

  /// Shared, immutable: copying an ExecModel (workload -> engine ->
  /// per-batch contexts -> GA problems) never copies the cells.
  std::shared_ptr<const Matrix> matrix_;
};

}  // namespace gridsched::sim
