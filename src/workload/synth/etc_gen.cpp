#include "workload/synth/etc_gen.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace gridsched::workload::synth {

std::string to_string(EtcConsistency consistency) {
  switch (consistency) {
    case EtcConsistency::kConsistent: return "consistent";
    case EtcConsistency::kSemiConsistent: return "semi-consistent";
    case EtcConsistency::kInconsistent: return "inconsistent";
  }
  return "?";
}

std::string to_string(Heterogeneity heterogeneity) {
  return heterogeneity == Heterogeneity::kHi ? "hi" : "lo";
}

namespace {

using Network = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// Compare-exchange index pairs of Batcher's odd-even merge sort for rows
/// of `width` cells (Knuth's iterative form, valid for any width: it is
/// the next power-of-two network with the comparators that reach past the
/// row dropped).
Network merge_network(std::size_t width) {
  Network pairs;
  for (std::size_t p = 1; p < width; p *= 2) {
    for (std::size_t k = p; k >= 1; k /= 2) {
      for (std::size_t j = k % p; j + k < width; j += 2 * k) {
        for (std::size_t i = 0; i < k && i + j + k < width; ++i) {
          if ((i + j) / (2 * p) == (i + j + k) / (2 * p)) {
            pairs.emplace_back(static_cast<std::uint32_t>(i + j),
                               static_cast<std::uint32_t>(i + j + k));
          }
        }
      }
    }
  }
  return pairs;
}

/// Sort `row` ascending through the network. Cells are finite and > 0, so
/// equal values have equal bits and the result is byte-identical to
/// std::sort's.
void sort_row(double* row, const Network& network) {
  for (const auto& [a, b] : network) {
    const double lo = std::min(row[a], row[b]);
    const double hi = std::max(row[a], row[b]);
    row[a] = lo;
    row[b] = hi;
  }
}

}  // namespace

EtcMatrixData generate_etc(std::size_t tasks, std::size_t machines,
                           const EtcConfig& config, util::Rng& rng) {
  if (tasks == 0 || machines == 0) {
    throw std::invalid_argument("generate_etc: empty matrix requested");
  }
  if (config.task_range() < 1.0 || config.machine_range() < 1.0) {
    throw std::invalid_argument("generate_etc: ranges must be >= 1");
  }
  EtcMatrixData etc;
  etc.tasks = tasks;
  etc.machines = machines;
  etc.cells.resize(tasks * machines);

  // The semi-consistent class sorts only the even-indexed cells, gathered
  // into one buffer reused across rows.
  const bool semi = config.consistency == EtcConsistency::kSemiConsistent;
  std::vector<double> even(semi ? (machines + 1) / 2 : 0);
  const auto network = merge_network(semi ? even.size() : machines);

  // A single machine ordering shared by every sorted row keeps the
  // consistent classes meaningful: "machine a beats machine b" must mean
  // the same machines across rows, so we sort rows in place (column index
  // order *is* the shared ordering, as in Braun et al.).
  for (std::size_t t = 0; t < tasks; ++t) {
    const double tau = rng.uniform(1.0, config.task_range());
    double* row = etc.cells.data() + t * machines;
    for (std::size_t m = 0; m < machines; ++m) {
      row[m] = tau * rng.uniform(1.0, config.machine_range());
    }
    switch (config.consistency) {
      case EtcConsistency::kConsistent:
        sort_row(row, network);
        break;
      case EtcConsistency::kSemiConsistent:
        // Odd columns keep their unordered draws.
        for (std::size_t i = 0; i < even.size(); ++i) even[i] = row[2 * i];
        sort_row(even.data(), network);
        for (std::size_t i = 0; i < even.size(); ++i) row[2 * i] = even[i];
        break;
      case EtcConsistency::kInconsistent:
        break;
    }
  }
  return etc;
}

bool columns_consistent(const EtcMatrixData& etc,
                        const std::vector<std::size_t>& machine_columns) {
  if (machine_columns.size() < 2) return true;
  // Order the columns by their first row, then require every other row to
  // respect that order.
  std::vector<std::size_t> order = machine_columns;
  std::sort(order.begin(), order.end(),
            [&etc](std::size_t a, std::size_t b) {
              return etc.at(0, a) < etc.at(0, b);
            });
  for (std::size_t t = 1; t < etc.tasks; ++t) {
    for (std::size_t i = 1; i < order.size(); ++i) {
      if (etc.at(t, order[i - 1]) > etc.at(t, order[i])) return false;
    }
  }
  return true;
}

WorkSpeedFit fit_work_speed(const EtcMatrixData& etc) {
  if (etc.tasks == 0 || etc.machines == 0) {
    throw std::invalid_argument("fit_work_speed: empty matrix");
  }
  // Model log E(t, m) = log work[t] - log speed[m]. The least-squares
  // solution in the log domain is row mean / column mean centring; the
  // gauge (one free constant) is fixed so mean(log speed) = 0.
  const auto tasks = etc.tasks;
  const auto machines = etc.machines;
  std::vector<double> row_mean(tasks, 0.0);
  std::vector<double> col_mean(machines, 0.0);
  double grand = 0.0;
  for (std::size_t t = 0; t < tasks; ++t) {
    for (std::size_t m = 0; m < machines; ++m) {
      const double cell = etc.at(t, m);
      if (!(cell > 0.0)) {
        throw std::invalid_argument("fit_work_speed: non-positive cell");
      }
      const double log_cell = std::log(cell);
      row_mean[t] += log_cell;
      col_mean[m] += log_cell;
      grand += log_cell;
    }
  }
  for (double& x : row_mean) x /= static_cast<double>(machines);
  for (double& x : col_mean) x /= static_cast<double>(tasks);
  grand /= static_cast<double>(tasks * machines);

  // The work vector is the row-mean buffer, exponentiated in place.
  WorkSpeedFit fit;
  for (double& x : row_mean) x = std::exp(x);
  fit.work = std::move(row_mean);
  fit.speed.resize(machines);
  for (std::size_t m = 0; m < machines; ++m) {
    fit.speed[m] = std::exp(grand - col_mean[m]);
  }
  return fit;
}

double log_rms_residual(const EtcMatrixData& etc, const WorkSpeedFit& fit) {
  if (etc.tasks == 0 || etc.machines == 0 || fit.work.size() != etc.tasks ||
      fit.speed.size() != etc.machines) {
    throw std::invalid_argument(
        "log_rms_residual: empty matrix or mismatched fit");
  }
  std::vector<double> log_speed(etc.machines);
  for (std::size_t m = 0; m < etc.machines; ++m) {
    log_speed[m] = std::log(fit.speed[m]);
  }
  double sq = 0.0;
  for (std::size_t t = 0; t < etc.tasks; ++t) {
    const double log_work = std::log(fit.work[t]);
    for (std::size_t m = 0; m < etc.machines; ++m) {
      const double residual =
          std::log(etc.at(t, m)) - (log_work - log_speed[m]);
      sq += residual * residual;
    }
  }
  return std::sqrt(sq / static_cast<double>(etc.tasks * etc.machines));
}

}  // namespace gridsched::workload::synth
