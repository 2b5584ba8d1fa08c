// core::backoff_policy — the delay schedule behind every retry loop (the
// client, the supervisor and the respawn loop), pinned in isolation:
// exponential growth, cap, and deterministic bounded jitter.
#include <gtest/gtest.h>

#include "core/retry.h"

namespace vs::core {
namespace {

backoff_policy no_jitter() {
  backoff_policy p;
  p.base_delay_ms = 10.0;
  p.max_delay_ms = 100.0;
  p.multiplier = 2.0;
  p.jitter = 0.0;
  return p;
}

TEST(Retry, DelayGrowsExponentiallyThenCaps) {
  const backoff_policy p = no_jitter();
  EXPECT_DOUBLE_EQ(p.delay_ms(1), 10.0);
  EXPECT_DOUBLE_EQ(p.delay_ms(2), 20.0);
  EXPECT_DOUBLE_EQ(p.delay_ms(3), 40.0);
  EXPECT_DOUBLE_EQ(p.delay_ms(4), 80.0);
  EXPECT_DOUBLE_EQ(p.delay_ms(5), 100.0);   // capped
  EXPECT_DOUBLE_EQ(p.delay_ms(50), 100.0);  // stays capped, no overflow
  EXPECT_DOUBLE_EQ(p.delay_ms(0), 10.0);    // clamped to the first attempt
}

TEST(Retry, JitterIsBoundedAndDeterministic) {
  backoff_policy p = no_jitter();
  p.jitter = 0.5;
  for (int attempt = 1; attempt <= 12; ++attempt) {
    const double nominal = no_jitter().delay_ms(attempt);
    const double d = p.delay_ms(attempt);
    EXPECT_GE(d, nominal * 0.5) << "attempt " << attempt;
    EXPECT_LT(d, nominal * 1.5) << "attempt " << attempt;
    // Same policy, same attempt => same delay (replayable schedules).
    EXPECT_DOUBLE_EQ(d, p.delay_ms(attempt));
  }
  // Different seeds decorrelate the schedules.
  backoff_policy q = p;
  q.seed = p.seed + 1;
  bool any_differs = false;
  for (int attempt = 1; attempt <= 12; ++attempt) {
    any_differs = any_differs || p.delay_ms(attempt) != q.delay_ms(attempt);
  }
  EXPECT_TRUE(any_differs);
}

}  // namespace
}  // namespace vs::core
