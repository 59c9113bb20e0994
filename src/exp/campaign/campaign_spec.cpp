#include "exp/campaign/campaign_spec.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>

#include "exp/campaign/campaign_aggregator.hpp"
#include "exp/scenario_registry.hpp"
#include "sched/registry.hpp"

namespace gridsched::exp::campaign {

namespace {

using util::json::Value;

const std::vector<std::string>& mode_names() {
  static const std::vector<std::string> names = {"secure", "f-risky", "risky"};
  return names;
}

security::RiskPolicy policy_for(const PolicyRef& ref) {
  if (ref.mode == "secure") return security::RiskPolicy::secure();
  if (ref.mode == "risky") return security::RiskPolicy::risky();
  return security::RiskPolicy::f_risky(ref.f);
}

[[noreturn]] void spec_error(const std::string& what) {
  throw std::invalid_argument("campaign spec: " + what);
}

[[noreturn]] void policy_error(const std::string& what) {
  throw std::invalid_argument("policy entry: " + what);
}

/// The per-policy checks, shared by parse_policy and CampaignSpec::validate
/// (which also sees programmatically built refs).
void check_policy(const PolicyRef& ref) {
  const std::vector<std::string> heuristics = sched::heuristic_names();
  if (ref.algo != "stga" && ref.algo != "ga" &&
      std::find(heuristics.begin(), heuristics.end(), ref.algo) ==
          heuristics.end()) {
    std::string known = "stga ga";
    for (const std::string& name : heuristics) known += " " + name;
    policy_error("unknown algo \"" + ref.algo + "\" (valid: " + known + ")");
  }
  if (std::find(mode_names().begin(), mode_names().end(), ref.mode) ==
      mode_names().end()) {
    policy_error("unknown mode \"" + ref.mode +
                 "\" (valid: secure f-risky risky)");
  }
  // Negated so a NaN f fails too.
  if (!(ref.f >= 0.0 && ref.f <= 1.0)) {
    policy_error("f must be in [0, 1], got " + std::to_string(ref.f));
  }
}

/// Strict key check — the shared util::json helper — so spec typos fail
/// loudly instead of silently running the defaults ("generatoins": 50
/// would otherwise burn a campaign).
using util::json::check_keys;

ScenarioRef parse_scenario_ref(const Value& entry) {
  ScenarioRef ref;
  if (entry.is_string()) {
    ref.name = entry.as_string();
    return ref;
  }
  check_keys(entry, {"name", "label", "jobs", "batch_interval"},
             "scenario entry");
  ref.name = entry.at("name").as_string();
  if (const Value* label = entry.find("label")) ref.label = label->as_string();
  if (const Value* jobs = entry.find("jobs")) {
    ref.n_jobs = static_cast<std::size_t>(jobs->as_uint());
  }
  if (const Value* interval = entry.find("batch_interval")) {
    ref.batch_interval = interval->as_number();
    if (ref.batch_interval <= 0.0) {
      spec_error("batch_interval must be > 0 for scenario " + ref.name);
    }
  }
  return ref;
}

PolicyRef parse_policy_ref(const Value& entry) {
  PolicyRef ref;
  if (entry.is_string()) {
    ref.algo = entry.as_string();
    return ref;
  }
  check_keys(entry, {"algo", "mode", "f", "label", "ga"}, "policy entry");
  ref.algo = entry.at("algo").as_string();
  // No-effect keys are errors, not silent defaults: the GAs ignore the
  // heuristic risk mode, heuristics ignore the GA config, and only the
  // f-risky mode reads f.
  const bool is_ga = ref.algo == "stga" || ref.algo == "ga";
  if (is_ga && (entry.find("mode") != nullptr || entry.find("f") != nullptr)) {
    policy_error("\"mode\"/\"f\" have no effect on policy algo \"" +
                 ref.algo + "\" (the GA handles risk internally)");
  }
  if (!is_ga && entry.find("ga") != nullptr) {
    policy_error("\"ga\" config only applies to the stga/ga algos, not \"" +
                 ref.algo + "\"");
  }
  if (const Value* mode = entry.find("mode")) ref.mode = mode->as_string();
  if (entry.find("f") != nullptr &&
      (ref.mode == "secure" || ref.mode == "risky")) {
    policy_error("\"f\" has no effect on mode \"" + ref.mode +
                 "\" (only f-risky reads the risk bound)");
  }
  if (const Value* f = entry.find("f")) ref.f = f->as_number();
  if (const Value* label = entry.find("label")) ref.label = label->as_string();
  if (const Value* ga = entry.find("ga")) {
    check_keys(*ga,
               {"population", "generations", "crossover_prob", "mutation_prob",
                "elite_count", "table_capacity", "similarity_threshold",
                "history_seed_fraction"},
               "policy \"ga\" config");
    if (const Value* v = ga->find("population")) {
      ref.stga.ga.population = static_cast<std::size_t>(v->as_uint());
    }
    if (const Value* v = ga->find("generations")) {
      ref.stga.ga.generations = static_cast<std::size_t>(v->as_uint());
    }
    if (const Value* v = ga->find("crossover_prob")) {
      ref.stga.ga.crossover_prob = v->as_number();
    }
    if (const Value* v = ga->find("mutation_prob")) {
      ref.stga.ga.mutation_prob = v->as_number();
    }
    if (const Value* v = ga->find("elite_count")) {
      ref.stga.ga.elite_count = static_cast<std::size_t>(v->as_uint());
    }
    if (const Value* v = ga->find("table_capacity")) {
      ref.stga.table_capacity = static_cast<std::size_t>(v->as_uint());
    }
    if (const Value* v = ga->find("similarity_threshold")) {
      ref.stga.similarity_threshold = v->as_number();
    }
    if (const Value* v = ga->find("history_seed_fraction")) {
      ref.stga.history_seed_fraction = v->as_number();
    }
  }
  return ref;
}

FaultPlan parse_fault_plan(const Value& entry) {
  check_keys(entry,
             {"throw_prob", "delay_prob", "delay_seconds", "scenario",
              "policy"},
             "\"faults\" plan");
  FaultPlan plan;
  if (const Value* v = entry.find("throw_prob")) {
    plan.throw_prob = v->as_number();
  }
  if (const Value* v = entry.find("delay_prob")) {
    plan.delay_prob = v->as_number();
  }
  if (const Value* v = entry.find("delay_seconds")) {
    plan.delay_seconds = v->as_number();
  }
  if (const Value* v = entry.find("scenario")) {
    plan.scenario = v->as_string();
  }
  if (const Value* v = entry.find("policy")) plan.policy = v->as_string();
  return plan;
}

}  // namespace

Scenario ScenarioRef::resolve() const {
  Scenario scenario =
      custom.has_value() ? *custom : make_scenario(name, 0);
  override_jobs(scenario, n_jobs);
  if (batch_interval > 0.0) scenario.engine.batch_interval = batch_interval;
  return scenario;
}

PolicyRef parse_policy(const Value& entry) {
  PolicyRef ref = parse_policy_ref(entry);
  check_policy(ref);
  return ref;
}

AlgorithmSpec PolicyRef::resolve() const {
  if (algo == "stga") return stga_spec(stga);
  if (algo == "ga") return classic_ga_spec(stga);
  return heuristic_spec(algo, policy_for(*this));
}

std::string PolicyRef::display() const {
  if (!label.empty()) return label;
  if (algo == "stga" || algo == "ga") return algo;
  return algo + "-" + mode;
}

void CampaignSpec::validate() const {
  if (scenarios.empty()) spec_error("no scenarios");
  if (policies.empty()) spec_error("no policies");
  if (replications == 0) spec_error("replications must be >= 1");

  const std::vector<std::string> scenario_names = exp::scenario_names();
  std::set<std::string> seen_scenarios;
  for (const ScenarioRef& ref : scenarios) {
    if (!ref.custom.has_value() &&
        std::find(scenario_names.begin(), scenario_names.end(), ref.name) ==
            scenario_names.end()) {
      spec_error("unknown scenario \"" + ref.name + "\" (run `gridsched_cli " +
                 "scenarios` for the registry)");
    }
    if (!seen_scenarios.insert(ref.display()).second) {
      spec_error("duplicate scenario label \"" + ref.display() +
                 "\" (set \"label\" to disambiguate)");
    }
  }

  std::set<std::string> seen_policies;
  for (const PolicyRef& ref : policies) {
    check_policy(ref);
    if (!seen_policies.insert(ref.display()).second) {
      spec_error("duplicate policy label \"" + ref.display() +
                 "\" (set \"label\" to disambiguate)");
    }
  }

  for (const std::string& key : metrics) {
    if (find_metric(key) == nullptr) {
      std::string message = "unknown metric \"";
      message += key;
      message += "\" (valid:";
      for (const MetricDef& def : metric_defs()) {
        message += ' ';
        message += def.key;
      }
      spec_error(message + ")");
    }
  }

  faults.validate();
  // Fault filters must name real axis labels: a typo'd filter would
  // silently inject nothing and the chaos run would prove nothing.
  if (!faults.scenario.empty() &&
      seen_scenarios.find(faults.scenario) == seen_scenarios.end()) {
    spec_error("faults.scenario \"" + faults.scenario +
               "\" names no scenario label in this spec");
  }
  if (!faults.policy.empty() &&
      seen_policies.find(faults.policy) == seen_policies.end()) {
    spec_error("faults.policy \"" + faults.policy +
               "\" names no policy label in this spec");
  }
}

CampaignSpec parse_spec(const Value& doc) {
  if (!doc.is_object()) spec_error("top-level value must be an object");
  check_keys(doc,
             {"name", "seed", "replications", "metrics", "scenarios",
              "policies", "faults"},
             "campaign");
  CampaignSpec spec;
  if (const Value* name = doc.find("name")) spec.name = name->as_string();
  if (const Value* seed = doc.find("seed")) spec.seed = seed->as_uint();
  if (const Value* reps = doc.find("replications")) {
    spec.replications = static_cast<std::size_t>(reps->as_uint());
  }
  if (const Value* metrics = doc.find("metrics")) {
    for (const Value& key : metrics->items()) {
      spec.metrics.push_back(key.as_string());
    }
  }
  for (const Value& entry : doc.at("scenarios").items()) {
    spec.scenarios.push_back(parse_scenario_ref(entry));
  }
  for (const Value& entry : doc.at("policies").items()) {
    spec.policies.push_back(parse_policy_ref(entry));
  }
  if (const Value* faults = doc.find("faults")) {
    spec.faults = parse_fault_plan(*faults);
  }
  spec.validate();
  return spec;
}

CampaignSpec parse_spec_text(std::string_view text) {
  return parse_spec(util::json::parse(text));
}

CampaignSpec load_spec(const std::string& path) {
  return parse_spec(util::json::parse_file(path));
}

}  // namespace gridsched::exp::campaign
