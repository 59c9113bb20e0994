#include "core/history.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gridsched::core {

namespace {

double max_abs_entry(std::span<const double> v) {
  double peak = 0.0;
  for (const double x : v) peak = std::max(peak, std::abs(x));
  return peak;
}

}  // namespace

double similarity_raw(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size() || a.empty()) {
    throw std::invalid_argument("similarity_raw: need equal non-zero lengths");
  }
  double distance = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) distance += std::abs(a[i] - b[i]);
  const double denom = std::max(max_abs_entry(a), max_abs_entry(b));
  if (denom == 0.0) return 1.0;  // both all-zero: identical
  return 1.0 - distance / denom;
}

double vector_similarity(std::span<const double> a, std::span<const double> b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  // Unequal lengths compare both vectors nearest-neighbour resampled to the
  // longer length n: element i of the shorter one (length m) is
  // v[floor(i * m / n)], read on the fly instead of copied. The index steps
  // by an add-and-compare on the remainder i * m mod n; m <= n, so it moves
  // by at most one per step and stays < m. Upsampling visits every source
  // element, so the peaks of the originals, taken in the same pass, are
  // the peaks of the resampled vectors, and the distance sums in the same
  // order (|x - y| and |y - x| are the same double).
  const std::span<const double> longer = a.size() >= b.size() ? a : b;
  const std::span<const double> shorter = a.size() >= b.size() ? b : a;
  const std::size_t n = longer.size();
  const std::size_t m = shorter.size();
  double distance = 0.0;
  double peak_long = 0.0;
  double peak_short = 0.0;
  std::size_t k = 0;          // floor(i * m / n)
  std::size_t remainder = 0;  // i * m mod n
  for (std::size_t i = 0; i < n; ++i) {
    const double x = longer[i];
    const double y = shorter[k];
    distance += std::abs(x - y);
    peak_long = std::max(peak_long, std::abs(x));
    peak_short = std::max(peak_short, std::abs(y));
    remainder += m;
    if (remainder >= n) {
      remainder -= n;
      ++k;
    }
  }
  const double denom = std::max(peak_long, peak_short);
  if (denom == 0.0) return 1.0;
  const double mean_distance = distance / static_cast<double>(n);
  return 1.0 - mean_distance / denom;
}

BatchSignature make_signature(const GaProblem& problem) {
  BatchSignature signature;
  signature.avail.reserve(problem.n_sites());
  for (const auto& profile : problem.avail) {
    double sum = 0.0;
    for (const double t : profile.free_times()) {
      sum += std::max(0.0, t - problem.now);  // backlog relative to now
    }
    signature.avail.push_back(sum / static_cast<double>(profile.nodes()));
  }
  signature.etc.reserve(problem.exec.size());
  for (const double x : problem.exec) {
    signature.etc.push_back(std::isfinite(x) ? x : 0.0);
  }
  signature.demands.reserve(problem.n_jobs());
  for (const auto& job : problem.jobs) signature.demands.push_back(job.demand);
  return signature;
}

double signature_similarity(const BatchSignature& a, const BatchSignature& b) {
  return (vector_similarity(a.avail, b.avail) +
          vector_similarity(a.etc, b.etc) +
          vector_similarity(a.demands, b.demands)) /
         3.0;
}

HistoryTable::HistoryTable(std::size_t capacity, double threshold)
    : capacity_(capacity), threshold_(threshold) {
  if (capacity_ == 0) throw std::invalid_argument("HistoryTable: capacity 0");
  entries_.reserve(capacity_);
}

std::vector<HistoryTable::Match> HistoryTable::lookup(
    const BatchSignature& signature, std::size_t max_matches) {
  struct Scored {
    std::size_t index;
    double similarity;
  };
  std::vector<Scored> scored;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const double sim = signature_similarity(signature, entries_[i].signature);
    if (sim >= threshold_) scored.push_back({i, sim});
  }
  std::sort(scored.begin(), scored.end(), [](const Scored& x, const Scored& y) {
    return x.similarity > y.similarity;
  });
  if (scored.size() > max_matches) scored.resize(max_matches);

  std::vector<Match> matches;
  matches.reserve(scored.size());
  for (const Scored& s : scored) {
    entries_[s.index].stamp = ++clock_;  // LRU touch
    matches.push_back({&entries_[s.index].best, s.similarity});
  }
  if (matches.empty()) {
    ++misses_;
  } else {
    ++hits_;
  }
  return matches;
}

void HistoryTable::insert(BatchSignature signature, Chromosome best) {
  // Near-duplicate: refresh in place instead of storing a twin.
  for (Entry& entry : entries_) {
    if (signature_similarity(signature, entry.signature) >= 0.999) {
      entry.signature = std::move(signature);
      entry.best = std::move(best);
      entry.stamp = ++clock_;
      return;
    }
  }
  if (entries_.size() >= capacity_) {
    const auto victim = std::min_element(
        entries_.begin(), entries_.end(),
        [](const Entry& a, const Entry& b) { return a.stamp < b.stamp; });
    *victim = {std::move(signature), std::move(best), ++clock_};
    ++evictions_;
    return;
  }
  entries_.push_back({std::move(signature), std::move(best), ++clock_});
}

}  // namespace gridsched::core
