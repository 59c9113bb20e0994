// Per-(job, site) execution-time resolution. A workload may attach a raw
// Expected-Time-to-Compute matrix (Braun et al. terminology); when present
// it is *authoritative* — the engine, the heuristics and the GA all resolve
// execution times through it. Without a matrix the model falls back to the
// rank-1 `work / speed` law, i.e. the rank-1 ETC is generated on demand
// from the job/site fields rather than materialised.
//
// Invariant (ROADMAP "Execution model"): every consumer of execution times
// must go through an ExecModel (or a matrix derived from one, such as
// sched::EtcMatrix / GaProblem::exec) so that raw-ETC scenarios stay exact
// end to end.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "sim/types.hpp"

namespace gridsched::sim {

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

  /// One job's execution times across the sites: the job's matrix row when
  /// a matrix is attached, otherwise the rank-1 `work / speed`. Resolving
  /// the row once per job keeps the per-site lookup to one load (or one
  /// divide). Valid while the model it came from (or a copy) is alive.
  class Row {
   public:
    /// Execution time on `site`; `speed` feeds the rank-1 fallback and is
    /// ignored when the row comes from a matrix.
    [[nodiscard]] double operator()(SiteId site, double speed) const noexcept {
      if (cells_ == nullptr) return work_ / speed;
      return cells_[static_cast<std::size_t>(site)];
    }

   private:
    friend class ExecModel;
    Row(const double* cells, double work) noexcept
        : cells_(cells), work_(work) {}

    const double* cells_;
    double work_;
  };

  /// The row of `job`; `work` feeds the rank-1 fallback and is ignored
  /// when a matrix is attached.
  [[nodiscard]] Row row(JobId job, double work) const noexcept {
    if (matrix_ == nullptr) return {nullptr, work};
    return {matrix_->cells.data() +
                static_cast<std::size_t>(job) * matrix_->n_sites,
            work};
  }

  /// Execution time of `job` on `site`. `work` and `speed` feed the rank-1
  /// fallback and are ignored when a matrix is attached.
  [[nodiscard]] double exec(JobId job, double work, SiteId site,
                            double speed) const noexcept {
    return row(job, work)(site, speed);
  }

  /// Throws std::invalid_argument when a matrix is attached and its shape
  /// is not exactly `n_jobs` x `n_sites` (rows are keyed by dense JobId, so
  /// any size mismatch means misaligned rows). No-op without a matrix.
  void check_shape(std::size_t n_jobs, std::size_t n_sites) const;

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
