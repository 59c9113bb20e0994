#include "sim/engine.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "sim/process/arrival_process.hpp"
#include "sim/process/batch_cycle_process.hpp"
#include "sim/process/security_failure_process.hpp"
#include "sim/process/site_churn_process.hpp"

namespace gridsched::sim {

Engine::Engine(std::vector<SiteConfig> sites,
               std::unique_ptr<workload::JobStream> stream, EngineConfig config,
               ExecModel exec_model, std::vector<SiteChurnParams> churn)
    : kernel_(std::move(sites), std::move(stream), config,
              std::move(exec_model)),
      churn_(std::move(churn)) {}

Engine::Engine(std::vector<SiteConfig> sites, std::vector<Job> jobs,
               EngineConfig config, ExecModel exec_model,
               std::vector<SiteChurnParams> churn)
    : Engine(std::move(sites),
             std::make_unique<workload::MaterializedStream>(std::move(jobs)),
             config, std::move(exec_model), std::move(churn)) {}

void Engine::run(BatchScheduler& scheduler) {
  // Registration order fixes the FIFO tie-break among events pushed in
  // start(): arrivals first (matching the pre-kernel engine event order
  // exactly, so churn-free runs are bit-identical), churn timelines last.
  ArrivalProcess arrival;
  SecurityFailureProcess failure;
  BatchCycleProcess batch(scheduler, failure);
  kernel_.add_process(arrival);
  kernel_.add_process(batch);
  kernel_.add_process(failure);

  const bool churns =
      std::any_of(churn_.begin(), churn_.end(),
                  [](const SiteChurnParams& p) { return p.churns(); });
  SiteChurnProcess churn_process(churn_, kernel_.config().seed);
  if (churns) kernel_.add_process(churn_process);

  kernel_.run();
}

}  // namespace gridsched::sim
