// A workload bundles the jobs to simulate with the grid they run on.
#pragma once

#include <string>
#include <vector>

#include "sim/exec_model.hpp"
#include "sim/job.hpp"
#include "sim/site.hpp"

namespace gridsched::workload {

struct Workload {
  std::string name;
  std::vector<sim::SiteConfig> sites;
  std::vector<sim::Job> jobs;
  /// Execution model to simulate under. Generators that produce a raw
  /// per-(job, site) ETC (the synth family) attach it here and it is
  /// authoritative; for the rank-1 testbeds (nas, psa) the default model
  /// derives exec = work / speed on demand.
  sim::ExecModel exec;
  /// Per-site churn-process parameters, parallel to `sites`. Empty (the
  /// default, and every non-churn generator) disables the churn process.
  std::vector<sim::SiteChurnParams> churn;
};

/// Sum of a generator's node-request weight list (its `size_weights`).
/// Throws std::invalid_argument naming `generator` and the field unless
/// the list is non-empty, every entry is finite and >= 0, and the sum is
/// > 0. Shared by the nas, synth and streaming generators.
double size_weight_total(const std::vector<double>& size_weights,
                         const char* generator);

}  // namespace gridsched::workload
