// Umbrella header: the whole public API of the gridsched library.
//
// Reproduction of Song, Kwok & Hwang, "Security-Driven Heuristics and A
// Fast Genetic Algorithm for Trusted Grid Job Scheduling", IPDPS 2005.
#pragma once

#include "core/ga_engine.hpp"       // IWYU pragma: export
#include "core/ga_problem.hpp"      // IWYU pragma: export
#include "core/ga_scheduler.hpp"    // IWYU pragma: export
#include "core/history.hpp"         // IWYU pragma: export
#include "core/operators.hpp"       // IWYU pragma: export
#include "exp/campaign/campaign_aggregator.hpp" // IWYU pragma: export
#include "exp/campaign/campaign_journal.hpp"    // IWYU pragma: export
#include "exp/campaign/campaign_runner.hpp"     // IWYU pragma: export
#include "exp/campaign/campaign_sinks.hpp"      // IWYU pragma: export
#include "exp/campaign/campaign_spec.hpp"       // IWYU pragma: export
#include "exp/fault_plan.hpp"       // IWYU pragma: export
#include "exp/roster.hpp"           // IWYU pragma: export
#include "exp/runner.hpp"           // IWYU pragma: export
#include "exp/scenario.hpp"         // IWYU pragma: export
#include "exp/scenario_registry.hpp" // IWYU pragma: export
#include "metrics/metrics.hpp"      // IWYU pragma: export
#include "obs/ga_profile_json.hpp"  // IWYU pragma: export
#include "obs/kernel_metrics.hpp"   // IWYU pragma: export
#include "obs/proc_stats.hpp"       // IWYU pragma: export
#include "obs/timeseries.hpp"       // IWYU pragma: export
#include "obs/trace_event.hpp"      // IWYU pragma: export
#include "sched/etc_matrix.hpp"     // IWYU pragma: export
#include "sched/heuristics.hpp"     // IWYU pragma: export
#include "sched/registry.hpp"       // IWYU pragma: export
#include "sched/risk_filter.hpp"    // IWYU pragma: export
#include "security/security.hpp"    // IWYU pragma: export
#include "sim/kernel.hpp"           // IWYU pragma: export
#include "sim/observer.hpp"         // IWYU pragma: export
#include "sim/scheduling.hpp"       // IWYU pragma: export
#include "util/cancel.hpp"          // IWYU pragma: export
#include "util/cli.hpp"             // IWYU pragma: export
#include "util/file.hpp"            // IWYU pragma: export
#include "util/json.hpp"            // IWYU pragma: export
#include "util/log.hpp"             // IWYU pragma: export
#include "util/rng.hpp"             // IWYU pragma: export
#include "util/stats.hpp"           // IWYU pragma: export
#include "util/table.hpp"           // IWYU pragma: export
#include "workload/nas.hpp"         // IWYU pragma: export
#include "workload/psa.hpp"         // IWYU pragma: export
#include "workload/sites.hpp"       // IWYU pragma: export
#include "workload/synth/synth.hpp" // IWYU pragma: export
#include "workload/trace_io.hpp"    // IWYU pragma: export
