#include "core/ga_problem.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "sched/etc_matrix.hpp"
#include "sched/risk_filter.hpp"

namespace gridsched::core {

GaProblem build_problem(const sim::SchedulerContext& context,
                        const security::RiskPolicy& policy) {
  if (!context.site_up.empty() &&
      context.site_up.size() != context.sites.size()) {
    // SchedulerContext::site_usable reads the mask unchecked.
    throw std::invalid_argument("build_problem: site_up/sites size mismatch");
  }
  static std::atomic<std::uint64_t> next_epoch{1};
  GaProblem problem;
  problem.epoch = next_epoch.fetch_add(1, std::memory_order_relaxed);
  problem.now = context.now;
  problem.sites = context.sites;
  problem.avail = context.avail;
  problem.site_up = context.site_up;

  const security::RiskCutoff cutoff(policy, context.lambda);
  for (std::size_t j = 0; j < context.jobs.size(); ++j) {
    if (context.jobs[j].nodes == 0) {
      // A 0-node reservation has always been rejected (previously deep in
      // NodeAvailability::earliest_start); fail fast before the unvalidated
      // decode hot path can see it.
      throw std::invalid_argument("build_problem: job needs >= 1 node");
    }
    // Mask-aware: a churned-down site never enters a domain, so no
    // chromosome — including repaired history matches — can place on it.
    std::vector<sim::SiteId> domain =
        sched::admissible_sites(context, context.jobs[j], cutoff);
    if (domain.empty()) continue;  // stays pending this round
    problem.jobs.push_back(context.jobs[j]);
    problem.batch_index.push_back(j);
    problem.domains.push_back(std::move(domain));
  }

  // One shared feasibility-gated resolution (sched::EtcMatrix) over the
  // full batch; the kept jobs' rows are gathered through batch_index.
  const std::size_t n_sites = problem.sites.size();
  const sched::EtcMatrix etc(context);
  problem.exec.resize(problem.jobs.size() * n_sites);
  problem.pfail.resize(problem.jobs.size() * n_sites);
  for (std::size_t j = 0; j < problem.jobs.size(); ++j) {
    for (std::size_t s = 0; s < n_sites; ++s) {
      problem.exec[j * n_sites + s] = etc.exec(problem.batch_index[j], s);
      problem.pfail[j * n_sites + s] = security::failure_probability(
          problem.jobs[j].demand, problem.sites[s].security, context.lambda);
    }
  }
  return problem;
}

namespace {

/// Each job's exec time when every cell a gene can name holds it bit for
/// bit, or nullopt. A gene can name any site whose profile fits the job
/// (what validate_decode_args admits), not only the job's domain; a job
/// that fits no site has no value, so the order falls back to the ranks.
std::optional<std::vector<double>> uniform_job_exec(
    const GaProblem& problem) {
  if (problem.avail.size() != problem.n_sites()) return std::nullopt;
  std::vector<double> job_exec(problem.n_jobs());
  for (std::size_t j = 0; j < problem.n_jobs(); ++j) {
    bool seen = false;
    for (std::size_t s = 0; s < problem.n_sites(); ++s) {
      if (problem.jobs[j].nodes > problem.avail[s].free_times().size()) {
        continue;
      }
      const double exec = problem.exec_at(j, s);
      if (!seen) {
        job_exec[j] = exec;
        seen = true;
      } else if (std::bit_cast<std::uint64_t>(exec) !=
                 std::bit_cast<std::uint64_t>(job_exec[j])) {
        return std::nullopt;
      }
    }
    if (!seen) return std::nullopt;
  }
  return job_exec;
}

}  // namespace

void DecodeScratch::bind(const GaProblem& problem) {
  if (problem.epoch != 0 && problem.epoch == binding_.epoch) {
    return;  // already bound to this exact (immutable) problem
  }
  const std::size_t n_cells = problem.exec.size();
  if (n_cells > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("DecodeScratch::bind: jobs x sites too large");
  }
  // Unstamped until the refill below completes, so a throw part-way can
  // never leave a half-built binding that a later bind() would skip.
  binding_.epoch = 0;
  binding_.n_jobs = problem.n_jobs();
  binding_.nodes.resize(binding_.n_jobs);
  for (std::size_t j = 0; j < binding_.n_jobs; ++j) {
    binding_.nodes[j] = problem.jobs[j].nodes;
  }

  binding_.cells.resize(n_cells);
  for (std::size_t cell = 0; cell < n_cells; ++cell) {
    binding_.cells[cell] = {problem.exec[cell], problem.pfail[cell], 0};
  }
  // The order compares doubles with ties on the index; there is no NaN:
  // exec is work/speed or infinity.
  const auto by_exec = [](const auto& exec) {
    return [&exec](std::uint32_t a, std::uint32_t b) {
      return exec[a] < exec[b] || (exec[a] == exec[b] && a < b);
    };
  };
  const auto job_exec = uniform_job_exec(problem);
  binding_.per_batch_order = job_exec.has_value();
  binding_.batch_order.clear();
  binding_.rank_job.clear();
  if (job_exec) {
    // Every gene of job j names a cell holding job_exec[j], so sorting the
    // jobs by (exec, job) once is every chromosome's decode order.
    binding_.batch_order.resize(binding_.n_jobs);
    std::iota(binding_.batch_order.begin(), binding_.batch_order.end(),
              std::uint32_t{0});
    std::sort(binding_.batch_order.begin(), binding_.batch_order.end(),
              by_exec(*job_exec));
  } else {
    // Rank every cell once per problem by (exec, cell index), i.e. by
    // (exec, job, site): unique ranks whose order is exactly the doubles'
    // order with ties on the job. Each decode then orders genes by setting
    // and scanning bits.
    std::vector<std::uint32_t> by_rank(n_cells);
    std::iota(by_rank.begin(), by_rank.end(), std::uint32_t{0});
    std::sort(by_rank.begin(), by_rank.end(), by_exec(problem.exec));
    binding_.rank_job.resize(n_cells);
    const std::size_t n_sites = problem.n_sites();
    for (std::uint32_t rank = 0; rank < n_cells; ++rank) {
      const std::uint32_t cell = by_rank[rank];
      binding_.cells[cell].rank = rank;
      binding_.rank_job[rank] = static_cast<std::uint32_t>(cell / n_sites);
    }
  }

  // reserve() merges whole 4-lane steps and reads up to index
  // lanes - 1 + k <= lanes - 1 + n, so each segment is padded to n + lanes.
  auto& pristine = binding_.pristine;
  pristine.clear();
  binding_.segments.clear();
  for (const auto& profile : problem.avail) {
    const auto nodes = static_cast<unsigned>(profile.free_times().size());
    const unsigned lanes = (nodes + 3) / 4 * 4;
    binding_.segments.push_back({pristine.size(), nodes, lanes});
    pristine.insert(pristine.end(), profile.free_times().begin(),
                    profile.free_times().end());
    pristine.insert(pristine.end(), lanes,
                    std::numeric_limits<sim::Time>::infinity());
  }

  working_.resize(pristine.size());
  bits_.assign((binding_.rank_job.size() + 63) / 64, 0);
  genes_.reserve(binding_.n_jobs);
  order_.reserve(binding_.n_jobs);
  exec_gather_.reserve(binding_.n_jobs);
  pfail_gather_.reserve(binding_.n_jobs);
  binding_.epoch = problem.epoch;
}

// GS-FASTPATH-BEGIN: per-decode hot path — zero steady-state
// allocations (ROADMAP "Decode fast-path invariants"; gridsched_lint
// GS-R01 rejects stable_sort/inplace_merge/vector/new in this region).
std::span<const std::uint32_t> DecodeScratch::prepare(
    const GaProblem& problem, const Chromosome& chromosome) noexcept {
  assert(chromosome.size() == binding_.n_jobs &&
         "DecodeScratch::prepare: bind() the problem first");
  std::copy(binding_.pristine.begin(), binding_.pristine.end(),
            working_.begin());
  const std::size_t n = chromosome.size();
  exec_gather_.resize(n);
  pfail_gather_.resize(n);
  // Single sequential pass: the per-row cell reads prefetch well here, and
  // the decode loop below then only touches these dense gathers.
  const std::size_t n_sites = problem.n_sites();
  const Cell* cells = binding_.cells.data();
  if (binding_.per_batch_order) {
    for (std::size_t j = 0; j < n; ++j) {
      const Cell& cell = cells[j * n_sites + chromosome[j]];
      exec_gather_[j] = cell.exec;
      pfail_gather_[j] = cell.pfail;
    }
    return binding_.batch_order;
  }
  std::uint64_t* bits = bits_.data();
  for (std::size_t j = 0; j < n; ++j) {
    const Cell& cell = cells[j * n_sites + chromosome[j]];
    exec_gather_[j] = cell.exec;
    pfail_gather_[j] = cell.pfail;
    bits[cell.rank / 64] |= std::uint64_t{1} << (cell.rank % 64);
  }
  return sort_genes(n);
}

std::span<const std::uint32_t> DecodeScratch::sort_genes(
    std::size_t n) noexcept {
  // The n genes set n distinct bits (one cell per job, unique ranks), so
  // the set bits in ascending rank order are the genes by (exec, index) —
  // exactly stable_sort's order. The scan stops at the word holding the
  // last set bit and clears every word it reads, so the bitmap is all-zero
  // again for the next prepare().
  genes_.resize(n);
  std::uint32_t* out = genes_.data();
  const std::uint32_t* const end = out + n;
  const std::uint32_t* rank_job = binding_.rank_job.data();
  for (std::uint64_t* word = bits_.data(); out != end; ++word) {
    std::uint64_t set = *word;
    *word = 0;
    for (; set != 0; set &= set - 1) {
      *out++ = rank_job[std::countr_zero(set)];
    }
    rank_job += 64;
  }
  return {genes_.data(), n};
}
// GS-FASTPATH-END

namespace {

/// One scratch per thread for the validating public entry points, so they
/// ride the same allocation-free path as the engine. Deliberate trade-off:
/// each thread that decodes retains the last problem's binding (a few
/// hundred KB at 512 jobs x 16 sites) until it decodes another problem or
/// exits — the price of making repeated one-off calls rebind-free.
DecodeScratch& thread_scratch() {
  thread_local DecodeScratch scratch;
  return scratch;
}

/// Validation for the public (non-scratch) decode entry points. The GA
/// engine validates seeds once in evolve and skips this per evaluation.
/// Node fit is checked against the availability profiles because those are
/// what the arena decode actually indexes (hand-built problems may disagree
/// with sites[s].nodes).
void validate_decode_args(const GaProblem& problem,
                          const Chromosome& chromosome) {
  if (chromosome.size() != problem.n_jobs()) {
    throw std::invalid_argument("decode: chromosome length mismatch");
  }
  if (problem.avail.size() != problem.n_sites()) {
    throw std::invalid_argument("decode: avail/sites size mismatch");
  }
  for (std::size_t j = 0; j < chromosome.size(); ++j) {
    const sim::SiteId s = chromosome[j];
    if (s >= problem.n_sites() || problem.jobs[j].nodes == 0 ||
        problem.jobs[j].nodes > problem.avail[s].free_times().size()) {
      throw std::invalid_argument("decode: gene assigns an unusable site");
    }
  }
}

}  // namespace

// GS-FASTPATH-BEGIN: the noexcept scratch-backed entry points the GA
// engine calls per evaluation (the validating overloads between them only
// bind a thread-local scratch — no per-decode heap traffic either).
double decode_fitness(const GaProblem& problem, const Chromosome& chromosome,
                      const FitnessParams& params,
                      DecodeScratch& scratch) noexcept {
  double worst = problem.now;
  double sum = 0.0;
  decode_into(scratch, problem, chromosome, params.risk_penalty_weight,
              [&](std::size_t, double expected) {
                worst = std::max(worst, expected);
                sum += expected - problem.now;
              });
  const double mean =
      chromosome.empty() ? 0.0 : sum / static_cast<double>(chromosome.size());
  return worst + params.flowtime_weight * mean;
}

double decode_fitness(const GaProblem& problem, const Chromosome& chromosome,
                      const FitnessParams& params) {
  validate_decode_args(problem, chromosome);
  DecodeScratch& scratch = thread_scratch();
  scratch.bind(problem);
  return decode_fitness(problem, chromosome, params, scratch);
}

double batch_makespan(const GaProblem& problem, const Chromosome& chromosome,
                      DecodeScratch& scratch) noexcept {
  double makespan = problem.now;
  decode_into(scratch, problem, chromosome, 0.0,
              [&](std::size_t, double completion) {
                makespan = std::max(makespan, completion);
              });
  return makespan;
}

double batch_makespan(const GaProblem& problem, const Chromosome& chromosome) {
  validate_decode_args(problem, chromosome);
  DecodeScratch& scratch = thread_scratch();
  scratch.bind(problem);
  return batch_makespan(problem, chromosome, scratch);
}

std::span<const std::size_t> decode_order_into(
    DecodeScratch& scratch, const GaProblem& problem,
    const Chromosome& chromosome) noexcept {
  const auto sorted = scratch.prepare(problem, chromosome);
  scratch.order_.assign(sorted.begin(), sorted.end());
  return scratch.order_;
}
// GS-FASTPATH-END

std::vector<std::size_t> decode_order(const GaProblem& problem,
                                      const Chromosome& chromosome) {
  // One definition of the golden order: the retained reference (which the
  // scratch path is tested against bit for bit).
  return decode_order_reference(problem, chromosome);
}

bool is_feasible(const GaProblem& problem, const Chromosome& chromosome) {
  if (chromosome.size() != problem.n_jobs()) return false;
  for (std::size_t j = 0; j < chromosome.size(); ++j) {
    const auto& domain = problem.domains[j];
    if (std::find(domain.begin(), domain.end(),
                  chromosome[j]) == domain.end()) {
      return false;
    }
  }
  return true;
}

}  // namespace gridsched::core
