// Shared worker-slot budget (core/pool_budget.h): grant arithmetic, FIFO
// fairness, RAII release, and — the invariant the serving and fleet layers
// depend on — a live-thread ceiling under concurrent leaseholders.
#include "core/pool_budget.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/thread_pool.h"

namespace vs::core {
namespace {

TEST(PoolArbiter, ExplicitBudgetIsRespected) {
  pool_arbiter arbiter(3);
  EXPECT_EQ(arbiter.budget(), 3u);
  EXPECT_EQ(arbiter.in_use(), 0u);
}

TEST(PoolArbiter, AutoBudgetIsAtLeastOne) {
  pool_arbiter arbiter(0);
  EXPECT_GE(arbiter.budget(), 1u);
}

TEST(PoolArbiter, GrantsUpToMaxWhenFree) {
  pool_arbiter arbiter(4);
  pool_lease lease = arbiter.acquire(1, 3);
  EXPECT_TRUE(static_cast<bool>(lease));
  EXPECT_EQ(lease.width(), 3u);
  EXPECT_EQ(arbiter.in_use(), 3u);
}

TEST(PoolArbiter, GrantClampsToFreeSlots) {
  pool_arbiter arbiter(4);
  pool_lease big = arbiter.acquire(1, 3);
  pool_lease rest = arbiter.acquire(1, 4);  // only 1 slot left
  EXPECT_EQ(rest.width(), 1u);
  EXPECT_EQ(arbiter.in_use(), 4u);
}

TEST(PoolArbiter, RequestsClampToBudget) {
  pool_arbiter arbiter(2);
  pool_lease lease = arbiter.acquire(8, 16);  // both above budget
  EXPECT_EQ(lease.width(), 2u);
}

TEST(PoolArbiter, ReleaseReturnsSlots) {
  pool_arbiter arbiter(2);
  {
    pool_lease lease = arbiter.acquire(1, 2);
    EXPECT_EQ(arbiter.in_use(), 2u);
  }
  EXPECT_EQ(arbiter.in_use(), 0u);
  EXPECT_EQ(arbiter.peak_in_use(), 2u);  // high-water survives release
}

TEST(PoolArbiter, MoveTransfersOwnership) {
  pool_arbiter arbiter(2);
  pool_lease a = arbiter.acquire(1, 2);
  pool_lease b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_EQ(b.width(), 2u);
  EXPECT_EQ(arbiter.in_use(), 2u);
  b.release();
  EXPECT_EQ(arbiter.in_use(), 0u);
}

TEST(PoolArbiter, AcquireBlocksUntilSlotsFree) {
  pool_arbiter arbiter(1);
  pool_lease held = arbiter.acquire(1, 1);
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    pool_lease lease = arbiter.acquire(1, 1);
    acquired = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquired.load());
  held.release();
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

TEST(PoolArbiter, LeasePoolMatchesWidth) {
  pool_arbiter arbiter(3);
  pool_lease lease = arbiter.acquire(1, 3);
  EXPECT_EQ(lease.pool().thread_count(), lease.width());
}

TEST(PoolArbiter, PoolScopeRoutesCurrentToLeasedPool) {
  pool_arbiter arbiter(2);
  pool_lease lease = arbiter.acquire(1, 2);
  {
    const pool_scope scope(lease.pool());
    EXPECT_EQ(&thread_pool::current(), &lease.pool());
  }
  EXPECT_EQ(&thread_pool::current(), &thread_pool::global());
}

// The acceptance invariant: M=4 concurrent jobs against a budget of N
// never have more than N live worker threads between them.  Every thread
// that executes chunk bodies — leaseholder or pool worker — bumps a live
// counter; the high-water mark must stay within the budget.
TEST(PoolArbiter, LiveThreadsNeverExceedBudgetUnderConcurrentJobs) {
  constexpr unsigned kBudget = 3;
  constexpr int kJobs = 4;
  pool_arbiter arbiter(kBudget);

  std::atomic<int> live{0};
  std::atomic<int> peak{0};
  const auto enter = [&] {
    const int now = ++live;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
  };

  std::vector<std::thread> jobs;
  for (int j = 0; j < kJobs; ++j) {
    jobs.emplace_back([&] {
      for (int round = 0; round < 3; ++round) {
        pool_lease lease = arbiter.acquire(1, kBudget);
        lease.pool().parallel_for(
            0, 64, 4, [&](std::int64_t, std::int64_t, std::size_t) {
              enter();
              std::this_thread::sleep_for(std::chrono::microseconds(200));
              --live;
            });
      }
    });
  }
  for (auto& t : jobs) t.join();

  EXPECT_LE(peak.load(), static_cast<int>(kBudget));
  EXPECT_LE(arbiter.peak_in_use(), kBudget);
  EXPECT_EQ(arbiter.in_use(), 0u);
}

// FIFO fairness: with the budget fully leased and two queued acquirers,
// slots go to the earlier arrival first.
TEST(PoolArbiter, QueuedAcquirersAreServedInArrivalOrder) {
  pool_arbiter arbiter(1);
  pool_lease held = arbiter.acquire(1, 1);

  std::atomic<int> order{0};
  std::atomic<int> first_got{-1};
  std::atomic<int> second_got{-1};

  std::thread first([&] {
    pool_lease lease = arbiter.acquire(1, 1);
    first_got = order++;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread second([&] {
    pool_lease lease = arbiter.acquire(1, 1);
    second_got = order++;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  held.release();
  first.join();
  second.join();
  EXPECT_LT(first_got.load(), second_got.load());
}

}  // namespace
}  // namespace vs::core
