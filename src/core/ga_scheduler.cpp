#include "core/ga_scheduler.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "core/operators.hpp"
#include "sched/heuristics.hpp"

namespace gridsched::core {

GaScheduler::GaScheduler(StgaConfig config, util::ThreadPool* pool)
    : config_(config), pool_(pool),
      table_(config.table_capacity, config.similarity_threshold),
      rng_(config.seed) {}

std::vector<Chromosome> GaScheduler::build_initial_population(
    const GaProblem& problem, const BatchSignature& signature) {
  std::vector<Chromosome> initial;

  if (config_.use_history) {
    const auto matches = table_.lookup(signature, config_.max_history_matches);
    if (!matches.empty()) {
      const auto target = static_cast<std::size_t>(
          config_.history_seed_fraction *
          static_cast<double>(config_.ga.population));
      // Each match contributes its adapted chromosome plus mutated copies;
      // cycle over matches until the history share is filled.
      std::vector<Chromosome> adapted;
      adapted.reserve(matches.size());
      for (const auto& match : matches) {
        Chromosome chromosome = match.chromosome->size() == problem.n_jobs()
                                    ? *match.chromosome
                                    : resample_genes(*match.chromosome,
                                                     problem.n_jobs());
        repair(chromosome, problem, rng_);
        adapted.push_back(std::move(chromosome));
      }
      // Rescore the adapted matches on *this* batch's problem (lookup
      // ranked them by signature similarity, not by how well the schedule
      // transfers) so the strongest seed fills the history share first and
      // receives the extra mutated copies.
      std::vector<std::size_t> rank(adapted.size());
      std::iota(rank.begin(), rank.end(), std::size_t{0});
      std::vector<double> score(adapted.size());
      for (std::size_t i = 0; i < adapted.size(); ++i) {
        score[i] = decode_fitness(problem, adapted[i], config_.ga.fitness,
                                  scratch_);
      }
      std::stable_sort(rank.begin(), rank.end(),
                       [&](std::size_t a, std::size_t b) {
                         return score[a] < score[b];
                       });
      std::vector<Chromosome> ranked;
      ranked.reserve(adapted.size());
      for (const std::size_t i : rank) ranked.push_back(std::move(adapted[i]));
      adapted.swap(ranked);
      for (std::size_t i = 0; initial.size() < target; ++i) {
        Chromosome copy = adapted[i % adapted.size()];
        if (i >= adapted.size()) {
          // Diversify later copies around the historical solution.
          mutate(copy, problem,
                 1.0 / static_cast<double>(std::max<std::size_t>(
                           problem.n_jobs(), 1)),
                 rng_);
        }
        initial.push_back(std::move(copy));
      }
    }
  }

  if (config_.heuristic_seeds) {
    // Min-Min and Sufferage solutions of this very batch, as strong seeds.
    sim::SchedulerContext sub_context;
    sub_context.now = problem.now;
    sub_context.sites = problem.sites;
    sub_context.avail = problem.avail;
    sub_context.site_up = problem.site_up;  // down sites stay invisible
    sub_context.jobs = problem.jobs;
    sub_context.exec = problem.exec_model;  // same exec resolution as the GA
    for (const bool use_sufferage : {false, true}) {
      std::unique_ptr<sched::HeuristicScheduler> heuristic;
      if (use_sufferage) {
        heuristic = std::make_unique<sched::SufferageScheduler>(
            security::RiskPolicy::risky());
      } else {
        heuristic = std::make_unique<sched::MinMinScheduler>(
            security::RiskPolicy::risky());
      }
      const auto assignments = heuristic->schedule(sub_context);
      if (assignments.size() != problem.n_jobs()) continue;  // partial: skip
      Chromosome chromosome(problem.n_jobs());
      for (const auto& assignment : assignments) {
        chromosome[assignment.job_index] = assignment.site;
      }
      repair(chromosome, problem, rng_);  // defensive; normally a no-op
      initial.push_back(std::move(chromosome));
    }
  }
  return initial;  // evolve() tops up with random chromosomes
}

void GaScheduler::schedule_into(const sim::SchedulerContext& context,
                                std::vector<sim::Assignment>& out) {
  out.clear();
  // STGA places jobs anywhere (the paper's STGA takes the most risk); the
  // fail-stop rule for secure_only retries is enforced by build_problem.
  GaProblem problem =
      build_problem(context, security::RiskPolicy::risky(config_.lambda));
  if (problem.n_jobs() == 0) return;
  scratch_.bind(problem);  // history rescoring + dispatch decode below

  const BatchSignature signature = make_signature(problem);
  std::vector<Chromosome> initial =
      build_initial_population(problem, signature);

  GaProfile profile;
  GaParams params = config_.ga;
  params.cancel = cancel_;  // per-run token; config stays token-free
  const GaResult result =
      evolve(problem, std::move(initial), params, rng_, pool_,
             profile_sink_ != nullptr ? &profile : nullptr);
  if (profile_sink_ != nullptr) {
    profile_sink_->push_back(std::move(profile));
  }

  if (config_.use_history) {
    table_.insert(signature, result.best);
  }

  // Dispatch shortest-execution-first: the order decode_fitness scored, so
  // the engine realises exactly the reservations the GA optimised.
  out.reserve(problem.n_jobs());
  for (const std::size_t j : decode_order_into(scratch_, problem,
                                               result.best)) {
    out.push_back({problem.batch_index[j], result.best[j]});
  }
}

void GaScheduler::record_external(
    const sim::SchedulerContext& context,
    const std::vector<sim::Assignment>& assignments) {
  GaProblem problem =
      build_problem(context, security::RiskPolicy::risky(config_.lambda));
  if (problem.n_jobs() == 0 || assignments.empty()) return;

  // Map original batch indices to problem gene positions.
  std::unordered_map<std::size_t, std::size_t> gene_of;
  gene_of.reserve(problem.batch_index.size());
  for (std::size_t j = 0; j < problem.batch_index.size(); ++j) {
    gene_of.emplace(problem.batch_index[j], j);
  }
  Chromosome chromosome(problem.n_jobs(), sim::kInvalidSite);
  for (const auto& assignment : assignments) {
    const auto it = gene_of.find(assignment.job_index);
    if (it != gene_of.end()) chromosome[it->second] = assignment.site;
  }
  // Jobs the inner scheduler left pending get a random feasible gene.
  repair(chromosome, problem, rng_);
  table_.insert(make_signature(problem), std::move(chromosome));
}

std::unique_ptr<GaScheduler> make_stga(StgaConfig config,
                                       util::ThreadPool* pool) {
  config.use_history = true;
  return std::make_unique<GaScheduler>(config, pool);
}

std::unique_ptr<GaScheduler> make_classic_ga(StgaConfig config,
                                             util::ThreadPool* pool) {
  config.use_history = false;
  config.heuristic_seeds = false;
  return std::make_unique<GaScheduler>(config, pool);
}

}  // namespace gridsched::core
