// Capped exponential backoff with deterministic jitter.
//
// The supervisor (src/supervise/) retries transient worker deaths; naive
// fixed-delay retries synchronize a fleet of workers into retry storms, and
// wall-clock-seeded jitter would make campaign runs irreproducible.  The
// jitter here is drawn from core::rng seeded by (policy.seed, attempt), so a
// given policy always produces the same delay sequence — test-assertable,
// replayable, still decorrelated across shards (each shard derives its own
// policy seed).
#pragma once

#include <cstdint>

#include "core/rng.h"

namespace vs::core {

struct backoff_policy {
  int max_attempts = 4;        ///< total tries (first attempt + retries)
  double base_delay_ms = 25.0; ///< delay after the first failure
  double max_delay_ms = 2000.0;  ///< cap applied to the nominal delay
  double multiplier = 2.0;     ///< nominal delay growth per failed attempt
  double jitter = 0.5;         ///< delay scaled by U[1-jitter, 1+jitter)
  std::uint64_t seed = 0x5eedULL;

  /// Delay before retry number `attempt` (1-based: the delay slept after the
  /// `attempt`-th failure).  Deterministic: the nominal delay is
  /// min(max_delay_ms, base * multiplier^(attempt-1)), then scaled by a
  /// jitter factor drawn from rng(seed, attempt).
  [[nodiscard]] double delay_ms(int attempt) const noexcept {
    if (attempt < 1) attempt = 1;
    double nominal = base_delay_ms;
    for (int i = 1; i < attempt && nominal < max_delay_ms; ++i) {
      nominal *= multiplier;
    }
    if (nominal > max_delay_ms) nominal = max_delay_ms;
    if (jitter <= 0.0) return nominal;
    std::uint64_t stream =
        seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(attempt);
    rng gen(splitmix64(stream));
    const double factor = 1.0 - jitter + 2.0 * jitter * gen.uniform01();
    return nominal * factor;
  }
};

}  // namespace vs::core
