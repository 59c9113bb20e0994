#include "util/histogram.hpp"

#include <algorithm>
#include <stdexcept>

namespace gridsched::util {

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), bucket_width_((hi - lo) / static_cast<double>(buckets)),
      counts_(buckets, 0) {
  if (buckets == 0)
    throw std::invalid_argument("Histogram: buckets must be > 0");
  if (!(hi > lo)) throw std::invalid_argument("Histogram: need hi > lo");
}

void Histogram::add(double x) noexcept {
  ++total_;
  if (x < lo_) {
    ++underflow_;
  } else if (x >= hi_) {
    ++overflow_;
  } else {
    auto bucket = static_cast<std::size_t>((x - lo_) / bucket_width_);
    bucket = std::min(bucket, counts_.size() - 1);  // FP edge at hi boundary
    ++counts_[bucket];
  }
}

}  // namespace gridsched::util
