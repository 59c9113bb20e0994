// Streaming workload cursor: pull the next job arrival on demand instead
// of materialising the whole workload up front. SimKernel drives one of
// these from its arrival handler, holding O(active) job state however many
// jobs the stream will eventually yield. The synth generators are cursors
// themselves; the MaterializedStream adapter wraps a pre-built job vector
// and its ETC matrix (nas, psa, trace replay, STGA training).
//
// Contract: next() yields jobs in nondecreasing arrival order (every
// generator already sorts; the kernel enforces it at admission, because the
// lazy one-arrival-ahead event push is only order-preserving for sorted
// streams), and size() is the total count the stream will yield.
//
// The stream is the kernel's only source of raw ETC rows (row_sites() > 0;
// without rows the run uses the rank-1 law). The synth generator
// regenerates its matrix row by row, so a run holds the rows of its live
// jobs only, never the jobs x sites matrix.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/exec_model.hpp"
#include "sim/job.hpp"

namespace gridsched::workload {

class JobStream {
 public:
  virtual ~JobStream() = default;

  /// Total number of jobs this stream will yield over its lifetime.
  [[nodiscard]] virtual std::size_t size() const noexcept = 0;

  /// Produce the next job (nondecreasing arrival times); returns false
  /// once exhausted. The kernel overwrites `job.id` with the dense
  /// admission index, so implementations need not set it.
  virtual bool next(sim::Job& job) = 0;

  /// Cells per execution-time row: 0 (the default) when the stream yields
  /// no rows and the run uses the rank-1 work/speed law, else the grid's
  /// site count.
  [[nodiscard]] virtual std::size_t row_sites() const noexcept { return 0; }

  /// The raw ETC row of the job the last next() produced: row_sites()
  /// cells, each finite and > 0, valid until the next call to next().
  /// Empty when row_sites() is 0.
  [[nodiscard]] virtual std::span<const double> row() const noexcept {
    return {};
  }
};

/// Adapter over a pre-built job vector: yields the jobs in vector order
/// without copying the vector again, job j with row j of `exec`'s matrix
/// when it has one. A matrix whose row count differs from the job count
/// throws std::invalid_argument naming both (rows would be misaligned).
class MaterializedStream final : public JobStream {
 public:
  explicit MaterializedStream(std::vector<sim::Job> jobs,
                              sim::ExecModel exec = {})
      : jobs_(std::move(jobs)), exec_(std::move(exec)) {
    if (exec_.has_matrix() && exec_.matrix_jobs() != jobs_.size()) {
      throw std::invalid_argument(
          "MaterializedStream: ETC matrix has " +
          std::to_string(exec_.matrix_jobs()) + " row(s) but the workload " +
          "has " + std::to_string(jobs_.size()) + " job(s)");
    }
  }

  [[nodiscard]] std::size_t size() const noexcept override {
    return jobs_.size();
  }

  bool next(sim::Job& job) override {
    if (cursor_ == jobs_.size()) return false;
    job = jobs_[cursor_++];
    return true;
  }

  [[nodiscard]] std::size_t row_sites() const noexcept override {
    return exec_.matrix_sites();
  }

  [[nodiscard]] std::span<const double> row() const noexcept override {
    if (cursor_ == 0 || !exec_.has_matrix()) return {};
    return {exec_.row(static_cast<sim::JobId>(cursor_ - 1)),
            exec_.matrix_sites()};
  }

 private:
  std::vector<sim::Job> jobs_;
  sim::ExecModel exec_;
  std::size_t cursor_ = 0;
};

}  // namespace gridsched::workload
