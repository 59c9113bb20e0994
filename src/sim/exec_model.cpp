#include "sim/exec_model.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace gridsched::sim {

ExecModel::ExecModel(std::size_t n_jobs, std::size_t n_sites,
                     std::vector<double> cells) {
  if (n_jobs == 0 || n_sites == 0) {
    throw std::invalid_argument("ExecModel: empty matrix dimensions");
  }
  if (cells.size() != n_jobs * n_sites) {
    throw std::invalid_argument(
        "ExecModel: cell count " + std::to_string(cells.size()) +
        " does not match " + std::to_string(n_jobs) + " jobs x " +
        std::to_string(n_sites) + " sites");
  }
  for (const double cell : cells) {
    if (!std::isfinite(cell) || cell <= 0.0) {
      throw std::invalid_argument(
          "ExecModel: ETC cells must be finite and > 0");
    }
  }
  auto matrix = std::make_shared<Matrix>();
  matrix->n_jobs = n_jobs;
  matrix->n_sites = n_sites;
  matrix->cells = std::move(cells);
  matrix_ = std::move(matrix);
}

}  // namespace gridsched::sim
