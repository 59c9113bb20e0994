#include "sched/etc_matrix.hpp"

namespace gridsched::sched {

EtcMatrix::EtcMatrix(const sim::SchedulerContext& context)
    : n_jobs_(context.jobs.size()), n_sites_(context.sites.size()),
      cells_(n_jobs_ * n_sites_, kInfeasible) {
  // Feasibility-gated fill: the context's exec time where the job fits,
  // kInfeasible otherwise.
  for (std::size_t j = 0; j < n_jobs_; ++j) {
    for (std::size_t s = 0; s < n_sites_; ++s) {
      if (context.jobs[j].nodes <= context.sites[s].nodes) {
        cells_[j * n_sites_ + s] = context.exec_time(context.jobs[j], s);
      }
    }
  }
}

}  // namespace gridsched::sched
