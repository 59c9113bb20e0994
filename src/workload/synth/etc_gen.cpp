#include "workload/synth/etc_gen.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>
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

/// Visit the compare-exchange index pairs of Batcher's odd-even merge sort
/// for rows of `width` cells, in network order, as emit(a, b) (Knuth's
/// iterative form, valid for any width: it is the next power-of-two
/// network with the comparators that reach past the row dropped).
template <typename Emit>
constexpr void merge_network(std::size_t width, Emit&& emit) {
  for (std::size_t p = 1; p < width; p *= 2) {
    for (std::size_t k = p; k >= 1; k /= 2) {
      for (std::size_t j = k % p; j + k < width; j += 2 * k) {
        for (std::size_t i = 0; i < k && i + j + k < width; ++i) {
          if ((i + j) / (2 * p) == (i + j + k) / (2 * p)) {
            emit(i + j, i + j + k);
          }
        }
      }
    }
  }
}

/// Order `a` and `b` ascending. Cells are finite and > 0, so equal values
/// have equal bits and a network of these is byte-identical to std::sort.
inline void compare_exchange(double& a, double& b) noexcept {
  const double lo = std::min(a, b);
  const double hi = std::max(a, b);
  a = lo;
  b = hi;
}

/// The merge network of `kWidth` cells as a compile-time table.
template <std::size_t kWidth>
constexpr auto fixed_network() {
  constexpr std::size_t kCount = [] {
    std::size_t count = 0;
    merge_network(kWidth, [&count](std::size_t, std::size_t) { ++count; });
    return count;
  }();
  std::array<std::pair<std::uint8_t, std::uint8_t>, kCount> pairs{};
  std::size_t next = 0;
  merge_network(kWidth, [&](std::size_t a, std::size_t b) {
    pairs[next++] = {static_cast<std::uint8_t>(a),
                     static_cast<std::uint8_t>(b)};
  });
  return pairs;
}

/// Sort a `kWidth`-cell row through the same network, unrolled over a
/// local copy so the cells stay in registers. Walking the runtime table
/// costs two loads and two stores per comparator; on a 4-vCPU Xeon VM that
/// was about two thirds of a 16-site consistent row's generation time.
template <std::size_t kWidth>
void sort_fixed(double* row) noexcept {
  static constexpr auto kNetwork = fixed_network<kWidth>();
  double cells[kWidth];
  std::copy_n(row, kWidth, cells);
  [&cells]<std::size_t... kIndex>(std::index_sequence<kIndex...>) {
    (compare_exchange(cells[kNetwork[kIndex].first],
                      cells[kNetwork[kIndex].second]),
     ...);
  }(std::make_index_sequence<kNetwork.size()>{});
  std::copy_n(cells, kWidth, row);
}

}  // namespace

EtcRowCursor::EtcRowCursor(std::size_t machines, const EtcConfig& config,
                           util::Rng rng)
    : machines_(machines), config_(config), rng_(rng) {
  if (machines == 0) {
    throw std::invalid_argument("EtcRowCursor: zero machines requested");
  }
  // Negated positive tests, so NaN fails them too; an infinite range
  // would draw infinite cells.
  const auto check_range = [](double range, const char* field) {
    if (!(std::isfinite(range) && range >= 1.0)) {
      throw std::invalid_argument(std::string("EtcRowCursor: ") + field +
                                  " must be finite and >= 1");
    }
  };
  check_range(config.task_range(),
              config.task_heterogeneity == Heterogeneity::kHi
                  ? "task_range_hi"
                  : "task_range_lo");
  check_range(config.machine_range(),
              config.machine_heterogeneity == Heterogeneity::kHi
                  ? "machine_range_hi"
                  : "machine_range_lo");
  const bool semi = config.consistency == EtcConsistency::kSemiConsistent;
  even_.resize(semi ? (machines + 1) / 2 : 0);
  merge_network(semi ? even_.size() : machines,
                [this](std::size_t a, std::size_t b) {
                  network_.emplace_back(static_cast<std::uint32_t>(a),
                                        static_cast<std::uint32_t>(b));
                });
}

void EtcRowCursor::sort(double* row, std::size_t width) const noexcept {
  // The registry's synth grids have 16 sites, and 8 even columns in the
  // semi-consistent class; other widths walk the runtime table.
  switch (width) {
    case 8:
      sort_fixed<8>(row);
      return;
    case 16:
      sort_fixed<16>(row);
      return;
    default:
      for (const auto& [a, b] : network_) compare_exchange(row[a], row[b]);
  }
}

void EtcRowCursor::next(double* row) {
  // A single machine ordering shared by every sorted row keeps the
  // consistent classes meaningful: "machine a beats machine b" must mean
  // the same machines across rows, so we sort rows in place (column index
  // order *is* the shared ordering, as in Braun et al.).
  const double tau = rng_.uniform(1.0, config_.task_range());
  const double machine_range = config_.machine_range();
  for (std::size_t m = 0; m < machines_; ++m) {
    row[m] = tau * rng_.uniform(1.0, machine_range);
  }
  switch (config_.consistency) {
    case EtcConsistency::kConsistent:
      sort(row, machines_);
      break;
    case EtcConsistency::kSemiConsistent:
      // Odd columns keep their unordered draws.
      for (std::size_t i = 0; i < even_.size(); ++i) even_[i] = row[2 * i];
      sort(even_.data(), even_.size());
      for (std::size_t i = 0; i < even_.size(); ++i) row[2 * i] = even_[i];
      break;
    case EtcConsistency::kInconsistent:
      break;
  }
}

EtcMatrixData generate_etc(std::size_t tasks, std::size_t machines,
                           const EtcConfig& config, util::Rng& rng) {
  if (tasks == 0 || machines == 0) {
    throw std::invalid_argument("generate_etc: empty matrix requested");
  }
  EtcRowCursor cursor(machines, config, rng);
  EtcMatrixData etc;
  etc.tasks = tasks;
  etc.machines = machines;
  etc.cells.resize(tasks * machines);
  for (std::size_t t = 0; t < tasks; ++t) {
    cursor.next(etc.cells.data() + t * machines);
  }
  rng = cursor.rng();
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

WorkSpeedFitter::WorkSpeedFitter(std::size_t tasks, std::size_t machines)
    : machines_(machines), col_mean_(machines, 0.0) {
  row_mean_.reserve(tasks);
}

void WorkSpeedFitter::add_row(const double* row) {
  // Model log E(t, m) = log work[t] - log speed[m]. The least-squares
  // solution in the log domain is row mean / column mean centring; the
  // gauge (one free constant) is fixed so mean(log speed) = 0.
  double& row_sum = row_mean_.emplace_back(0.0);
  for (std::size_t m = 0; m < machines_; ++m) {
    const double cell = row[m];
    if (!(cell > 0.0)) {
      throw std::invalid_argument("fit_work_speed: non-positive cell");
    }
    const double log_cell = std::log(cell);
    row_sum += log_cell;
    col_mean_[m] += log_cell;
    grand_ += log_cell;
  }
}

WorkSpeedFit WorkSpeedFitter::finish() {
  const std::size_t tasks = row_mean_.size();
  if (tasks == 0 || machines_ == 0) {
    throw std::invalid_argument("fit_work_speed: empty matrix");
  }
  for (double& x : row_mean_) x /= static_cast<double>(machines_);
  for (double& x : col_mean_) x /= static_cast<double>(tasks);
  const double grand = grand_ / static_cast<double>(tasks * machines_);

  // The work vector is the row-mean buffer, exponentiated in place.
  WorkSpeedFit fit;
  for (double& x : row_mean_) x = std::exp(x);
  fit.work = std::move(row_mean_);
  fit.speed.resize(machines_);
  for (std::size_t m = 0; m < machines_; ++m) {
    fit.speed[m] = std::exp(grand - col_mean_[m]);
  }
  return fit;
}

WorkSpeedFit fit_work_speed(const EtcMatrixData& etc) {
  if (etc.cells.size() != etc.tasks * etc.machines) {
    throw std::invalid_argument(
        "fit_work_speed: cell count does not match tasks x machines");
  }
  WorkSpeedFitter fitter(etc.tasks, etc.machines);
  for (std::size_t t = 0; t < etc.tasks; ++t) {
    fitter.add_row(etc.cells.data() + t * etc.machines);
  }
  return fitter.finish();
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
