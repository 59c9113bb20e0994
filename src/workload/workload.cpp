#include "workload/workload.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace gridsched::workload {

double size_weight_total(const std::vector<double>& size_weights,
                         const char* generator) {
  double total = 0.0;
  for (const double weight : size_weights) {
    if (!std::isfinite(weight) || weight < 0.0) {
      throw std::invalid_argument(
          std::string(generator) +
          ": size_weights entries must be finite and >= 0");
    }
    total += weight;
  }
  if (size_weights.empty() || !(total > 0.0) || !std::isfinite(total)) {
    throw std::invalid_argument(std::string(generator) +
                                ": size_weights must have a positive sum");
  }
  return total;
}

}  // namespace gridsched::workload
