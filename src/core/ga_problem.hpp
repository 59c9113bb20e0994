// The GA's view of one scheduling round: the schedulable subset of the
// batch, per-job site domains (risk-filtered), execution times, and the
// committed availability profiles. The chromosome encoding is the paper's
// Fig. 4: an array with one site gene per batch job.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "security/security.hpp"
#include "sim/scheduling.hpp"

namespace gridsched::core {

using Chromosome = std::vector<sim::SiteId>;

struct GaProblem {
  sim::Time now = 0.0;
  std::vector<sim::BatchJob> jobs;          ///< GA-schedulable jobs
  std::vector<std::size_t> batch_index;     ///< original indices in the context
  std::vector<sim::SiteConfig> sites;
  std::vector<sim::NodeAvailability> avail; ///< committed profiles, per site
  /// The context's site-availability mask (empty = all usable). Domains
  /// already exclude masked-out sites; the mask is retained so
  /// sub-schedulers run on this problem (heuristic population seeds) see
  /// the same availability the GA did.
  std::vector<std::uint8_t> site_up;
  /// Admissible sites per job (never empty for jobs kept in `jobs`).
  std::vector<std::vector<sim::SiteId>> domains;
  /// Flattened jobs x sites execution times (infinity when infeasible),
  /// resolved through each job's `etc_row`: raw ETC cells when the job
  /// carries a row, work/speed otherwise. The rows stay on `jobs`, so
  /// sub-schedulers built from this problem (heuristic population seeds)
  /// resolve exec times the same way, within the schedule_into call.
  std::vector<double> exec;
  /// Flattened jobs x sites Eq. 1 failure probabilities.
  std::vector<double> pfail;
  /// Identity stamp: build_problem assigns a process-unique non-zero value,
  /// letting DecodeScratch::bind skip rebinding when called again with the
  /// same problem. Built problems must be treated as immutable for the
  /// stamp to stay truthful; hand-assembled problems keep 0 (= always
  /// rebind fully). Copies drop the stamp — a copy is a distinct object the
  /// caller may mutate, so it must never alias a cached binding.
  std::uint64_t epoch = 0;

  GaProblem() = default;
  GaProblem(GaProblem&&) = default;
  GaProblem& operator=(GaProblem&&) = default;
  GaProblem(const GaProblem& other) { *this = other; }
  GaProblem& operator=(const GaProblem& other) {
    if (this != &other) {
      now = other.now;
      jobs = other.jobs;
      batch_index = other.batch_index;
      sites = other.sites;
      avail = other.avail;
      site_up = other.site_up;
      domains = other.domains;
      exec = other.exec;
      pfail = other.pfail;
      epoch = 0;  // unstamped: see above
    }
    return *this;
  }

  [[nodiscard]] std::size_t n_jobs() const noexcept { return jobs.size(); }
  [[nodiscard]] std::size_t n_sites() const noexcept { return sites.size(); }
  [[nodiscard]] double exec_at(std::size_t j, std::size_t s) const noexcept {
    return exec[j * n_sites() + s];
  }
  [[nodiscard]] double pfail_at(std::size_t j, std::size_t s) const noexcept {
    return pfail[j * n_sites() + s];
  }
};

/// Reusable decode workspace: a gene-order bitmap, a gather of the exec/
/// pfail/node-count columns the decode loop touches (dense per-job arrays,
/// so the loop never random-accesses the jobs x sites matrices), and a flat
/// copy-on-decode availability arena (all sites' free times in one
/// contiguous buffer with a pristine snapshot, so resetting to the
/// committed profiles is an O(total nodes) copy instead of a
/// vector-of-vectors deep copy). Each site's segment holds its n free
/// times followed by +inf up to n + lanes entries, lanes = n rounded up to
/// 4, so reserve() can merge whole 4-lane steps without a data-dependent
/// branch.
///
/// Ordering exploits that the exec matrix is fixed per problem. When every
/// cell a gene can name holds one exec value per job (bit for bit; every
/// site whose profile fits the job counts, in the job's domain or not), the
/// order by (exec, job) is the same for every chromosome: bind() computes
/// it once and prepare() returns it. Uniform-speed grids such as the NAS
/// testbed take this per-batch order. Otherwise bind() ranks every
/// (job, site) cell by (exec, job, site), giving each cell a unique rank
/// and a rank -> job table; prepare() sets one bit per gene in a jobs x
/// sites-bit bitmap, and the decode order is the set bits read in
/// ascending order. A chromosome holds exactly one cell per job, so either
/// way that is stable_sort's order by exec with ties on the gene index.
/// After bind() the steady-state decode path performs zero heap
/// allocations; each evolve() keeps one scratch, so its ~20k evaluations
/// per batch reuse the same buffers. A scratch is single-threaded state.
class DecodeScratch {
 public:
  /// Capture `problem`'s committed availability profiles, derive its
  /// decode order (per batch, or else the cell ranks), and size every
  /// buffer for its job/site counts, refilling the previous binding's
  /// buffers in place. Binding again with the same built problem
  /// (matching GaProblem::epoch) is a no-op. Throws std::length_error,
  /// before touching the current binding, when jobs x sites exceeds the
  /// 32-bit rank range.
  void bind(const GaProblem& problem);

  /// True when the bound problem's decode order is the same for every
  /// chromosome, so prepare() returns it without sorting (see above).
  [[nodiscard]] bool per_batch_order() const noexcept {
    return binding_.per_batch_order;
  }

  /// Reset the arena to the bound profiles, gather the chromosome's exec/
  /// pfail columns, and return the shortest-execution-first decode order
  /// (stable for ties, bit-identical to decode_order) as gene indices.
  /// The span is valid until the next prepare()/bind(). Preconditions
  /// (enforced by evolve's seed validation, not re-checked here):
  /// bind(problem) was called and chromosome.size() == problem.n_jobs().
  std::span<const std::uint32_t> prepare(const GaProblem& problem,
                                         const Chromosome& chromosome) noexcept;

  /// Gathered columns for gene j, valid after prepare().
  [[nodiscard]] double exec_of(std::uint32_t j) const noexcept {
    return exec_gather_[j];
  }
  [[nodiscard]] double pfail_of(std::uint32_t j) const noexcept {
    return pfail_gather_[j];
  }
  [[nodiscard]] unsigned nodes_of(std::uint32_t j) const noexcept {
    return binding_.nodes[j];
  }

  /// Arena equivalent of NodeAvailability::reserve on site `s`: occupy the
  /// k earliest-free nodes for `exec` seconds starting no earlier than
  /// `now`, keeping the profile sorted: one fixed-width min/max merge over
  /// the padded segment, bit-identical to NodeAvailability::reserve.
  /// Requires 1 <= k <= nodes(s).
  sim::NodeAvailability::Window reserve(sim::SiteId s, unsigned k, double exec,
                                        sim::Time now) noexcept;

 private:
  /// One jobs x sites entry with everything the gather pass reads,
  /// interleaved so each gene costs one cache line instead of three.
  struct Cell {
    double exec = 0.0;
    double pfail = 0.0;
    std::uint32_t rank = 0;  ///< unique: position in (exec, job, site)
  };

  /// One site's slice of the arena: `nodes` free times from `offset`, then
  /// +inf up to offset + nodes + lanes, lanes = nodes rounded up to 4.
  struct Segment {
    std::size_t offset = 0;
    unsigned nodes = 0;
    unsigned lanes = 0;
  };

  /// Everything derived from the (immutable) bound problem.
  struct ProblemBinding {
    std::vector<Cell> cells;            ///< exec/pfail/rank, jobs x sites
    /// Jobs by (exec, job) when per_batch_order; else empty.
    std::vector<std::uint32_t> batch_order;
    /// Cell rank -> job index; empty when per_batch_order (no ranks).
    std::vector<std::uint32_t> rank_job;
    std::vector<unsigned> nodes;        ///< jobs[j].nodes
    std::vector<sim::Time> pristine;    ///< padded committed free times
    std::vector<Segment> segments;      ///< per-site arena slice
    std::size_t n_jobs = 0;
    std::uint64_t epoch = 0;            ///< GaProblem::epoch (0 = unstamped)
    bool per_batch_order = false;
  };

  /// Two free times in one SSE2 register. The selects in merge_pair lower
  /// to minpd/maxpd with no -march flag and no intrinsics header.
  using TimePair = sim::Time __attribute__((vector_size(16)));

  static TimePair load_pair(const sim::Time* at) noexcept {
    TimePair pair;
    std::memcpy(&pair, at, sizeof pair);
    return pair;
  }
  static void store_pair(sim::Time* at, TimePair pair) noexcept {
    std::memcpy(at, &pair, sizeof pair);
  }
  /// max(own, min(next, end)) per lane, operands ordered as minpd/maxpd.
  static TimePair merge_pair(TimePair own, TimePair next,
                             TimePair end) noexcept {
    const TimePair low = next < end ? next : end;
    return own > low ? own : low;
  }

  std::span<const std::uint32_t> sort_genes(std::size_t n) noexcept;

  ProblemBinding binding_;
  std::vector<std::uint64_t> bits_;       ///< one bit per cell rank; 0 at rest
                                          ///< (empty under per_batch_order)
  std::vector<std::uint32_t> genes_;      ///< sort_genes output
  std::vector<std::size_t> order_;        ///< decode_order_into output
  std::vector<double> exec_gather_;       ///< exec_at(j, chromosome[j])
  std::vector<double> pfail_gather_;      ///< pfail_at(j, chromosome[j])
  std::vector<sim::Time> working_;        ///< decode-mutable profile copy

  friend std::span<const std::size_t> decode_order_into(
      DecodeScratch& scratch, const GaProblem& problem,
      const Chromosome& chromosome) noexcept;
};

// GS-FASTPATH-BEGIN: the inlined per-gene reserve and per-evaluation loop
// (GS-R01 no-alloc).
inline sim::NodeAvailability::Window DecodeScratch::reserve(
    sim::SiteId s, unsigned k, double exec, sim::Time now) noexcept {
  const Segment segment = binding_.segments[s];
  sim::Time* free_times = working_.data() + segment.offset;
  assert(k >= 1 && k <= segment.nodes &&
         "DecodeScratch::reserve: bad node count");
  const sim::Time start = std::max(now, free_times[k - 1]);
  const sim::Time end = start + exec;
  // The k earliest-free nodes become free at `end`; restore sorted order
  // as one fixed-width merge with no data-dependent branch. If c entries
  // of [k, n) are below `end`, lane i < c takes free_times[i + k], lanes
  // [c, c + k) take `end` and the rest keep their own value, which is
  // exactly max(own, min(free_times[i + k], end)). The +inf padding keeps
  // lanes [n, lanes) at +inf and bounds the reads past n. Each step loads
  // its lanes before storing them, and later steps read only lanes above
  // the ones stored, so the merge runs in place.
  const TimePair ends = {end, end};
  for (std::size_t i = 0; i < segment.lanes; i += 4) {
    const TimePair own_lo = load_pair(free_times + i);
    const TimePair own_hi = load_pair(free_times + i + 2);
    const TimePair next_lo = load_pair(free_times + i + k);
    const TimePair next_hi = load_pair(free_times + i + k + 2);
    store_pair(free_times + i, merge_pair(own_lo, next_lo, ends));
    store_pair(free_times + i + 2, merge_pair(own_hi, next_hi, ends));
  }
  return {start, end};
}

/// Decode `chromosome` with zero steady-state allocations: reserve
/// shortest-first in the scratch arena and feed each job's expected
/// completion to `consume(job_index, expected_completion)`. This is the hot
/// primitive under decode_fitness/batch_makespan; the chromosome must be
/// feasible (validated once by evolve, not per call).
template <typename Consume>
void decode_into(DecodeScratch& scratch, const GaProblem& problem,
                 const Chromosome& chromosome, double risk_penalty,
                 Consume&& consume) {
  for (const std::uint32_t j : scratch.prepare(problem, chromosome)) {
    const double exec = scratch.exec_of(j);
    const auto window = scratch.reserve(chromosome[j], scratch.nodes_of(j),
                                        exec, problem.now);
    consume(j, window.end + risk_penalty * scratch.pfail_of(j) * exec);
  }
}
// GS-FASTPATH-END

/// Build the GA subproblem from a scheduler context. Jobs whose admissible
/// set under `policy` is empty are dropped (they stay pending in the
/// engine). The fail-stop rule for secure_only jobs is enforced by the
/// admissibility filter regardless of `policy`. `context.lambda` feeds the
/// failure-probability matrix.
GaProblem build_problem(const sim::SchedulerContext& context,
                        const security::RiskPolicy& policy);

/// Fitness shaping knobs (see decode_fitness).
struct FitnessParams {
  /// Weight of the mean expected completion (flow time) relative to the
  /// batch makespan. 0 = pure makespan, the paper's stated objective; a
  /// small positive weight also serves average response time.
  double flowtime_weight = 0.6;
  /// Weight of the expected rework term p_fail * exec added to each job's
  /// completion. A fail-stop restart costs roughly the wasted half run plus
  /// a re-queue and a full re-execution on a safe site, i.e. ~2x exec.
  double risk_penalty_weight = 2.0;
};

/// Decode a chromosome into a schedule and score it (lower is better).
/// Jobs are reserved shortest-execution-first (the dispatch order the
/// GaScheduler realises). Each job's expected completion is
///   c_j + risk_penalty_weight * pfail_j * exec_j
/// and the fitness is max_j(expected) + flowtime_weight * mean_j(expected
/// - now). Genes must lie in the job's domain. Validates the chromosome and
/// throws std::invalid_argument on length/site mismatches; the scratch
/// overload below is the validated hot path.
double decode_fitness(const GaProblem& problem, const Chromosome& chromosome,
                      const FitnessParams& params);

/// Allocation-free fast path: identical value to the validating overload,
/// bit for bit. `scratch` must be bound to `problem` and the chromosome
/// must be feasible (evolve validates seeds once; operators preserve
/// feasibility, so per-evaluation checks are unnecessary).
double decode_fitness(const GaProblem& problem, const Chromosome& chromosome,
                      const FitnessParams& params,
                      DecodeScratch& scratch) noexcept;

/// Pure realized batch makespan (absolute latest completion; no risk or
/// flowtime shaping), with the same shortest-first decode order.
double batch_makespan(const GaProblem& problem, const Chromosome& chromosome);

/// Allocation-free fast path for batch_makespan (same contract as the
/// decode_fitness scratch overload).
double batch_makespan(const GaProblem& problem, const Chromosome& chromosome,
                      DecodeScratch& scratch) noexcept;

/// The shortest-execution-first order in which a chromosome's assignments
/// are reserved/dispatched (stable for ties).
std::vector<std::size_t> decode_order(const GaProblem& problem,
                                      const Chromosome& chromosome);

/// Allocation-free decode_order: the returned span aliases the scratch and
/// is valid until its next prepare()/bind(). Also resets the scratch arena.
std::span<const std::size_t> decode_order_into(
    DecodeScratch& scratch, const GaProblem& problem,
    const Chromosome& chromosome) noexcept;

/// Retained pre-fast-path implementations (fresh decode-order vector,
/// comparator-driven stable_sort, deep-copied availability profiles).
/// Golden references for tests and the bench_decode speedup baseline — the
/// fast path must stay bit-identical to these.
double decode_fitness_reference(const GaProblem& problem,
                                const Chromosome& chromosome,
                                const FitnessParams& params);
double batch_makespan_reference(const GaProblem& problem,
                                const Chromosome& chromosome);
std::vector<std::size_t> decode_order_reference(const GaProblem& problem,
                                                const Chromosome& chromosome);

/// True iff every gene is a member of the corresponding job's domain.
bool is_feasible(const GaProblem& problem, const Chromosome& chromosome);

}  // namespace gridsched::core
