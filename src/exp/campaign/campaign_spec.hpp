// Declarative experiment campaigns: a CampaignSpec names scenarios
// (registry keys with parameter overrides), policies (scheduler registry
// names + GA configs), a replication count and the metrics to report —
// the {scenario x policy x replication} grid behind the paper's Table 2
// and Figs 7-10, as data instead of hand-rolled bench loops. Specs are
// parsed from a small JSON file (see examples/campaigns/) or built
// programmatically; parsing is strict (unknown keys, unknown registry
// names and malformed JSON all throw with useful messages).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/fault_plan.hpp"
#include "exp/roster.hpp"
#include "exp/scenario.hpp"
#include "util/json.hpp"

namespace gridsched::exp::campaign {

/// One scenario axis entry. In JSON either a bare registry-name string or
/// an object: {"name": "nas", "jobs": 1000, "batch_interval": 4000,
/// "label": "nas-1k"}. `custom` carries a programmatically built Scenario
/// (no JSON form) — used by examples that sweep generator configs the
/// registry doesn't name.
struct ScenarioRef {
  std::string name;              ///< registry key; display fallback for custom
  std::string label;             ///< unique label; defaults to name
  std::size_t n_jobs = 0;        ///< 0 = scenario default
  double batch_interval = 0.0;   ///< 0 = scenario default
  std::optional<Scenario> custom;

  /// Materialise the scenario (registry lookup + overrides, or `custom`
  /// as-is). Throws std::invalid_argument for unknown registry names.
  [[nodiscard]] Scenario resolve() const;
  /// Effective label (explicit label, else name).
  [[nodiscard]] const std::string& display() const noexcept {
    return label.empty() ? name : label;
  }
};

/// One policy axis entry. In JSON: {"algo": "min-min", "mode": "secure"}
/// for registry heuristics, {"algo": "stga", "ga": {"population": 100,
/// "generations": 50}} for the GAs ("ga" keys override StgaConfig fields).
struct PolicyRef {
  std::string algo = "min-min";  ///< heuristic registry name, "stga" or "ga"
  std::string mode = "f-risky";  ///< secure | f-risky | risky (heuristics)
  double f = 0.5;                ///< risk bound for f-risky
  std::string label;             ///< unique label; defaults to algo[-mode]
  core::StgaConfig stga;         ///< GA configuration for stga/ga algos

  /// Materialise the AlgorithmSpec (validates the algo name).
  [[nodiscard]] AlgorithmSpec resolve() const;
  [[nodiscard]] std::string display() const;
};

/// Parse and check one policy entry (a bare algo name or an object as
/// above): known algo and mode, f in [0, 1], and no key without effect on
/// the algo or mode. Throws std::invalid_argument ("policy entry: ...")
/// naming the field. `gridsched_cli run` feeds it an object built from its
/// --algo/--mode/--f flags; parse_spec runs the same parser and checks,
/// so a policy is accepted or rejected the same way in both.
PolicyRef parse_policy(const util::json::Value& entry);

struct CampaignSpec {
  std::string name = "campaign";
  std::uint64_t seed = 1;
  std::size_t replications = 1;
  /// Metric keys to report (see metric_defs() in campaign_aggregator.hpp);
  /// empty = all deterministic metrics.
  std::vector<std::string> metrics;
  std::vector<ScenarioRef> scenarios;
  std::vector<PolicyRef> policies;
  /// Optional chaos plan (JSON key "faults"); empty by default, in which
  /// case no injection code runs and artifacts are byte-identical to a
  /// spec without the key.
  FaultPlan faults;

  /// Full structural validation: non-empty axes, replications >= 1,
  /// unique labels, known registry/metric names. Throws
  /// std::invalid_argument on the first violation.
  void validate() const;
};

/// Parse a spec from a JSON document / text / file. All three validate()
/// before returning.
CampaignSpec parse_spec(const util::json::Value& doc);
CampaignSpec parse_spec_text(std::string_view text);
CampaignSpec load_spec(const std::string& path);

}  // namespace gridsched::exp::campaign
