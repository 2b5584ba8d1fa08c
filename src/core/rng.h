// Deterministic pseudo-random number generation.
//
// Every stochastic component in the library (RANSAC sampling, random frame
// dropping, synthetic video noise, fault-site selection) draws from an
// explicitly seeded vs::rng so that a run is a pure function of its
// configuration.  Determinism is load-bearing: the fault-injection campaign
// plans an injection at a dynamic-operation index measured on a golden run
// and replays the exact same operation stream.
#pragma once

#include <cstdint>
#include <vector>

namespace vs {

/// splitmix64 — used to expand a single seed into stream seeds.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** PRNG.  Fast, high quality, fully deterministic across
/// platforms (unlike std::mt19937 distributions, whose mapping to ranges is
/// implementation-defined via std::uniform_int_distribution).
class rng {
 public:
  /// Seeds the four lanes from `seed` via splitmix64.
  explicit rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Next raw 64-bit draw.
  std::uint64_t next() noexcept;

  /// Uniform integer in [0, bound).  bound == 0 returns 0.
  std::uint64_t uniform(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  std::int64_t uniform_in(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double uniform01() noexcept;

  /// Uniform double in [lo, hi).
  double uniform_real(double lo, double hi) noexcept;

  /// Standard normal draw (Box–Muller, deterministic).
  double normal() noexcept;

  /// Bernoulli draw with probability p of true.
  bool chance(double p) noexcept;

  /// Derive an independent child stream (for per-frame / per-run streams).
  [[nodiscard]] rng fork() noexcept;

  /// k distinct indices drawn uniformly from [0, n).  Requires k <= n.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  bool operator==(const rng&) const = default;

 private:
  std::uint64_t s_[4];
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace vs
