#include "util/rng.hpp"

#include <cmath>

namespace gridsched::util {

Rng SeedMix::rng() const noexcept { return Rng(seed()); }

Xoshiro256StarStar::Xoshiro256StarStar(std::uint64_t seed) noexcept {
  SplitMix64 mix(seed);
  for (auto& word : s_) word = mix.next();
}

void Xoshiro256StarStar::long_jump() noexcept {
  static constexpr std::array<std::uint64_t, 4> kJump = {
      0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL,
      0x77710069854ee241ULL, 0x39109bb02acbe635ULL};
  std::array<std::uint64_t, 4> acc = {0, 0, 0, 0};
  for (const std::uint64_t jump : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (1ULL << b)) {
        for (std::size_t i = 0; i < 4; ++i) acc[i] ^= s_[i];
      }
      (*this)();
    }
  }
  s_ = acc;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  // Lemire's nearly-divisionless bounded draw with rejection for exactness.
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) {  // full 64-bit range requested
    return static_cast<std::int64_t>(gen_());
  }
  std::uint64_t x = gen_();
  __uint128_t m = static_cast<__uint128_t>(x) * range;
  auto l = static_cast<std::uint64_t>(m);
  if (l < range) {
    const std::uint64_t threshold = (0ULL - range) % range;
    while (l < threshold) {
      x = gen_();
      m = static_cast<__uint128_t>(x) * range;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return lo + static_cast<std::int64_t>(m >> 64);
}

double Rng::exponential(double rate) noexcept {
  // Inversion; guard against log(0).
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -std::log(u) / rate;
}

double Rng::normal() noexcept {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * factor;
  has_spare_ = true;
  return u * factor;
}

}  // namespace gridsched::util
