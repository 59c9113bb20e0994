// The "time" dimension of the STGA (paper Section 3): an LRU lookup table
// mapping batch signatures — (site availability, ETC matrix, security
// demands), each flattened to a vector — to the best schedule previously
// found for a similar batch. Similarity follows Eq. 2, normalised as
// README "Model parameters" records.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/ga_problem.hpp"

namespace gridsched::core {

/// Eq. 2 exactly as printed: 1 - sum|a_i-b_i| / max{max a, max b}. Included
/// for reference/tests; unnormalised, so it is negative for long distant
/// vectors. Vectors must have equal, non-zero length.
double similarity_raw(std::span<const double> a, std::span<const double> b);

/// Normalised Eq. 2 (default): 1 - mean|a_i-b_i| / max{max a, max b}, with
/// nearest-neighbour resampling when lengths differ. 1 for identical
/// vectors, scale-invariant, >= 0 when entries are non-negative. Two empty
/// vectors are identical (1); empty vs non-empty is 0.
double vector_similarity(std::span<const double> a, std::span<const double> b);

/// The three lookup-key parameters of paper Section 3.
struct BatchSignature {
  std::vector<double> avail;    ///< per site: mean node free time - now
  std::vector<double> etc;      ///< flattened exec matrix (0 where infeasible)
  std::vector<double> demands;  ///< per job SD
};

BatchSignature make_signature(const GaProblem& problem);

/// Average of the three per-parameter similarities (paper Section 3).
double signature_similarity(const BatchSignature& a, const BatchSignature& b);

class HistoryTable {
 public:
  explicit HistoryTable(std::size_t capacity = 150, double threshold = 0.8);

  struct Match {
    const Chromosome* chromosome = nullptr;
    double similarity = 0.0;
  };

  /// Entries with similarity >= threshold, best first, at most
  /// `max_matches`. Matched entries are marked recently-used.
  std::vector<Match> lookup(const BatchSignature& signature,
                            std::size_t max_matches = 8);

  /// Insert a solved batch. A near-duplicate entry (similarity >= 0.999) is
  /// overwritten in place; otherwise the least recently used entry is
  /// evicted once the table is full.
  void insert(BatchSignature signature, Chromosome best);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] double threshold() const noexcept { return threshold_; }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }

 private:
  struct Entry {
    BatchSignature signature;
    Chromosome best;
    std::uint64_t stamp = 0;
  };

  std::size_t capacity_;
  double threshold_;
  std::vector<Entry> entries_;
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace gridsched::core
