// Fixed-range linear histogram: the bucketed shape behind the kernel
// metric snapshot's distributions.
#pragma once

#include <cstddef>
#include <vector>

namespace gridsched::util {

class Histogram {
 public:
  /// Buckets span [lo, hi); values outside are counted in under/overflow.
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x) noexcept;

  [[nodiscard]] double lo() const noexcept { return lo_; }
  [[nodiscard]] double hi() const noexcept { return hi_; }
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return counts_.size();
  }
  [[nodiscard]] std::size_t count(std::size_t bucket) const {
    return counts_.at(bucket);
  }
  [[nodiscard]] std::size_t underflow() const noexcept { return underflow_; }
  [[nodiscard]] std::size_t overflow() const noexcept { return overflow_; }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }

 private:
  double lo_;
  double hi_;
  double bucket_width_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

}  // namespace gridsched::util
