#include "sched/site_tree.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "sched/risk_filter.hpp"
#include "sched/scan.hpp"

namespace gridsched::sched {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kNoTree = std::numeric_limits<std::uint32_t>::max();

/// Leaf value of site `s` in the tree for `nodes`-node jobs.
double leaf_start(const sim::SchedulerContext& context,
                  const std::vector<sim::NodeAvailability>& avail,
                  unsigned nodes, std::size_t s) noexcept {
  return scan::fits(context, nodes, s)
             ? scan::start_time(avail[s], nodes, context.now)
             : kInf;
}

}  // namespace

/// One query's depth-first branch and bound. (best, best_site) starts at
/// (infinity, 0), so only finite completions are ever accepted, exactly
/// like the scan's `< infinity` start.
struct SiteTree::Search {
  const sim::SchedulerContext& context;
  const security::RiskPolicy& policy;
  const sim::BatchJob& job;
  const sim::JobExecRow exec;
  const std::size_t leaves;
  const Node* nodes;
  const double* start;
  double best = kInf;
  std::uint32_t best_site = 0;

  /// The scan's acceptance order: strictly earlier, or equal and at a
  /// lower site index.
  [[nodiscard]] static bool before(double a, std::uint32_t a_site, double b,
                                   std::uint32_t b_site) noexcept {
    return a < b || (a == b && a_site < b_site);
  }

  /// Depth-first, the child with the better (bound, smallest index) first.
  /// `bound` is node i's lower bound start[i] + work * inv_lo. A leaf is
  /// then priced exactly (scan::completion) and accepted under the same
  /// test plus admissible().
  void visit(std::size_t i, double bound) {
    if (!before(bound, nodes[i].min_index, best, best_site)) return;
    if (i >= leaves) {
      const std::uint32_t s = nodes[i].fastest;
      const double completion = start[i] + exec[s];
      if (before(completion, s, best, best_site) &&
          admissible(context, job, s, policy)) {
        best = completion;
        best_site = s;
      }
      return;
    }
    const std::size_t l = 2 * i;
    const std::size_t r = l + 1;
    const double bound_l = start[l] + job.work * nodes[l].inv_lo;
    const double bound_r = start[r] + job.work * nodes[r].inv_lo;
    if (before(bound_r, nodes[r].min_index, bound_l, nodes[l].min_index)) {
      visit(r, bound_r);
      visit(l, bound_l);
    } else {
      visit(l, bound_l);
      visit(r, bound_r);
    }
  }
};

bool SiteTree::applies(const sim::SchedulerContext& context) {
  if (context.sites.size() < kMinSites) return false;
  for (const sim::SiteConfig& site : context.sites) {
    if (!(site.speed > 0.0)) return false;
  }
  for (const sim::BatchJob& job : context.jobs) {
    if (job.etc_row != nullptr || !(job.work >= 0.0)) return false;
  }
  return true;
}

bool SiteTree::speeds_match(
    const std::vector<sim::SiteConfig>& sites) const noexcept {
  if (sites.size() != speeds_.size()) return false;
  for (std::size_t s = 0; s < sites.size(); ++s) {
    if (std::bit_cast<std::uint64_t>(sites[s].speed) !=
        std::bit_cast<std::uint64_t>(speeds_[s])) {
      return false;
    }
  }
  return true;
}

void SiteTree::build_order(const std::vector<sim::SiteConfig>& sites) {
  const std::size_t n_sites = sites.size();
  leaves_ = std::bit_ceil(std::max<std::size_t>(n_sites, 1));
  speeds_.resize(n_sites);
  for (std::size_t s = 0; s < n_sites; ++s) speeds_[s] = sites[s].speed;

  order_.resize(n_sites);
  for (std::size_t s = 0; s < n_sites; ++s) {
    order_[s] = static_cast<std::uint32_t>(s);
  }
  // A total order, so std::sort is deterministic; std::stable_sort would
  // allocate a buffer.
  std::sort(order_.begin(), order_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const double speed_a = speeds_[a];
              const double speed_b = speeds_[b];
              return speed_a > speed_b || (speed_a == speed_b && a < b);
            });

  // Padding leaves (right of the real ones) never bound anything: their
  // start is infinity and their reciprocal 0. Their fastest site 0 only
  // keeps lookups in range.
  nodes_.assign(2 * leaves_, Node{0.0, 0, sim::kInvalidSite});
  leaf_of_site_.resize(n_sites);
  for (std::size_t p = 0; p < n_sites; ++p) {
    nodes_[leaves_ + p] =
        Node{inv_lo(speeds_[order_[p]]), order_[p], order_[p]};
    leaf_of_site_[order_[p]] = leaves_ + p;
  }
  for (std::size_t i = leaves_ - 1; i >= 1; --i) {
    const Node& left = nodes_[2 * i];
    const Node& right = nodes_[2 * i + 1];
    nodes_[i] = Node{left.inv_lo, left.fastest,
                     std::min(left.min_index, right.min_index)};
  }
}

void SiteTree::build(const sim::SchedulerContext& context) {
  // The speed order and its per-node data depend on the site speeds
  // alone, which a run never changes: rebuild them only when the speeds
  // differ from the ones they were built from.
  if (!speeds_match(context.sites)) build_order(context.sites);
  const std::size_t n_sites = context.sites.size();

  // One tree per node count the batch requests that some site can hold.
  unsigned max_nodes = 0;
  for (const sim::SiteConfig& site : context.sites) {
    max_nodes = std::max(max_nodes, site.nodes);
  }
  tree_of_.assign(static_cast<std::size_t>(max_nodes) + 1, kNoTree);
  tree_nodes_.clear();
  for (const sim::BatchJob& job : context.jobs) {
    if (job.nodes <= max_nodes && tree_of_[job.nodes] == kNoTree) {
      tree_of_[job.nodes] = static_cast<std::uint32_t>(tree_nodes_.size());
      tree_nodes_.push_back(job.nodes);
    }
  }
  start_.resize(tree_nodes_.size() * 2 * leaves_);
  for (std::size_t t = 0; t < tree_nodes_.size(); ++t) {
    double* tree = start_.data() + t * 2 * leaves_;
    const unsigned k = tree_nodes_[t];
    for (std::size_t p = 0; p < n_sites; ++p) {
      tree[leaves_ + p] = leaf_start(context, context.avail, k, order_[p]);
    }
    std::fill(tree + leaves_ + n_sites, tree + 2 * leaves_, kInf);
    for (std::size_t i = leaves_ - 1; i >= 1; --i) {
      tree[i] = std::min(tree[2 * i], tree[2 * i + 1]);
    }
  }
}

sim::SiteId SiteTree::best_site(const sim::SchedulerContext& context,
                                const security::RiskPolicy& policy,
                                const sim::BatchJob& job) const {
  // No tree: no site has job.nodes nodes (or the job is not from the
  // batch the tree was built for).
  if (job.nodes >= tree_of_.size() || tree_of_[job.nodes] == kNoTree) {
    return sim::kInvalidSite;
  }
  const double* tree =
      start_.data() + std::size_t{tree_of_[job.nodes]} * 2 * leaves_;
  Search search{context, policy, job, context.exec_row(job),
                leaves_, nodes_.data(), tree};
  search.visit(1, tree[1] + job.work * nodes_[1].inv_lo);
  return search.best < kInf ? search.best_site : sim::kInvalidSite;
}

void SiteTree::update(const sim::SchedulerContext& context,
                      const std::vector<sim::NodeAvailability>& avail,
                      std::size_t s) {
  const std::size_t leaf = leaf_of_site_[s];
  for (std::size_t t = 0; t < tree_nodes_.size(); ++t) {
    double* tree = start_.data() + t * 2 * leaves_;
    tree[leaf] = leaf_start(context, avail, tree_nodes_[t], s);
    // Stop at the first ancestor whose minimum did not change: the ones
    // above it read only it and unchanged siblings.
    for (std::size_t i = leaf / 2; i >= 1; i /= 2) {
      const double low = std::min(tree[2 * i], tree[2 * i + 1]);
      if (low == tree[i]) break;
      tree[i] = low;
    }
  }
}

}  // namespace gridsched::sched
