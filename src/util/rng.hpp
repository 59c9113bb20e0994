// Deterministic random number generation for the simulator.
//
// Every stochastic component of the library draws from an explicitly seeded
// Rng instance. Replication streams are derived from a master seed with
// SplitMix64 so that runs are bit-reproducible regardless of thread count.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

namespace gridsched::util {

/// SplitMix64: used to expand a 64-bit seed into xoshiro state and to derive
/// independent child-stream seeds. Passes BigCrush when used as a generator.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

class Rng;

/// Deterministic 64-bit seed derivation from a master seed and an ordered
/// sequence of mixed-in coordinates (integers and/or strings). Each mix is
/// a full SplitMix64-style avalanche, so adjacent coordinates land far
/// apart and order matters: mix(1).mix(2) != mix(2).mix(1). This is the
/// canonical replacement for ad-hoc `seed + i` stream derivation in sweep
/// and bench loops — and the campaign layer's per-cell seeding
/// (seed = SeedMix(spec_seed).mix(scenario).mix(rep), shared by every
/// policy of a replication), which makes cell results independent of
/// shard order and thread count.
class SeedMix {
 public:
  explicit constexpr SeedMix(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr SeedMix& mix(std::uint64_t value) noexcept {
    state_ = avalanche(state_ ^ (value + 0x9e3779b97f4a7c15ULL));
    return *this;
  }

  /// Strings hash as FNV-1a(bytes) then length, so "ab","c" and "a","bc"
  /// derive different seeds.
  constexpr SeedMix& mix(std::string_view text) noexcept {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char ch : text) {
      hash ^= static_cast<unsigned char>(ch);
      hash *= 0x100000001b3ULL;
    }
    mix(hash);
    return mix(text.size());
  }

  /// Finalized seed (state through one more avalanche, so a bare
  /// SeedMix(s).seed() already decorrelates adjacent master seeds).
  [[nodiscard]] constexpr std::uint64_t seed() const noexcept {
    return avalanche(state_);
  }

  /// Generator seeded with seed().
  [[nodiscard]] Rng rng() const noexcept;

 private:
  /// SplitMix64 finalizer: bijective, full avalanche.
  static constexpr std::uint64_t avalanche(std::uint64_t z) noexcept {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna). Fast, high-quality, 2^256-1 period.
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256StarStar(std::uint64_t seed =
                              0x9a1b3c5d7e9f0123ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Inline: the GA draws once per gene per child (mutation), so an
  /// out-of-line call here is a per-gene cost on the STGA hot loop.
  result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Equivalent to 2^128 calls to operator(); used to create non-overlapping
  /// subsequences.
  void long_jump() noexcept;

  [[nodiscard]] std::array<std::uint64_t, 4> state() const noexcept {
    return s_;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_;
};

/// Convenience façade bundling a generator with the distributions the
/// simulator needs. All draws are inline-able and allocation-free.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 42) noexcept : gen_(seed) {}

  /// Derive an independent child stream; deterministic in (seed, index).
  [[nodiscard]] static Rng child(std::uint64_t master_seed,
                                 std::uint64_t index) noexcept {
    SplitMix64 mix(master_seed ^ (0xc2b2ae3d27d4eb4fULL * (index + 1)));
    return Rng(mix.next());
  }

  std::uint64_t next_u64() noexcept { return gen_(); }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(gen_() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform index in [0, n). Requires n > 0.
  std::size_t index(std::size_t n) noexcept {
    return static_cast<std::size_t>(uniform_int(0,
                                                static_cast<std::int64_t>(n) -
                                                    1));
  }

  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Exponential with given rate (mean 1/rate).
  double exponential(double rate) noexcept;

  /// Standard normal via Marsaglia polar method (cached spare).
  double normal() noexcept;
  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Lognormal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma) noexcept {
    return std::exp(normal(mu, sigma));
  }

  /// Pick an element uniformly from a non-empty span.
  template <typename T>
  const T& pick(std::span<const T> items) noexcept {
    return items[index(items.size())];
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[index(i)]);
    }
  }

 private:
  Xoshiro256StarStar gen_;
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace gridsched::util
