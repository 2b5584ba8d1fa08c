// Unit tests for the batched acquisition scheduler (pipeline/scheduler.h):
// the grouped-submit pool primitive it dispatches through, the batch limit
// it takes from the dispatch pool's width, ticket resolution, per-item
// eviction, withdrawal of queued tickets, and the stats counters.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <future>
#include <latch>
#include <vector>

#include "core/error.h"
#include "core/thread_pool.h"
#include "image/image.h"
#include "pipeline/scheduler.h"

namespace vs {
namespace {

using pipeline::prefetched;
using pipeline::stage_scheduler;

// ---------------------------------------------------------------------------
// thread_pool::run_tasks — the grouped-submit primitive batches ride on.
// ---------------------------------------------------------------------------

TEST(RunTasks, RunsEveryTaskExactlyOnce) {
  core::thread_pool pool(4);
  std::atomic<int> ran{0};
  // One byte per task: std::vector<bool> packs bits into shared words, so
  // tasks on different workers setting neighbouring flags would race.
  std::vector<unsigned char> hit(23, 0);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < hit.size(); ++i) {
    tasks.push_back([&ran, &hit, i] {
      hit[i] = 1;  // distinct slots: no two tasks share an index
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.run_tasks(tasks);
  EXPECT_EQ(ran.load(), static_cast<int>(hit.size()));
  for (std::size_t i = 0; i < hit.size(); ++i) {
    EXPECT_TRUE(hit[i]) << "task " << i;
  }
}

TEST(RunTasks, EmptyGroupIsANoop) {
  core::thread_pool pool(2);
  pool.run_tasks({});
}

// ---------------------------------------------------------------------------
// stage_scheduler behaviour.
// ---------------------------------------------------------------------------

prefetched stamped_frame(int index) {
  prefetched out;
  out.frame = img::image_u8(4, 1, 1, static_cast<std::uint8_t>(index));
  return out;
}

/// Holds the dispatcher inside one acquisition until released, so the
/// tickets submitted behind it stay queued for as long as a test needs.
struct dispatch_hold {
  std::latch entered{1};
  std::latch release{1};

  [[nodiscard]] stage_scheduler::prefetch_step step() {
    return [this] {
      entered.count_down();
      release.wait();
      return stamped_frame(0xff);
    };
  }
};

TEST(StageScheduler, TicketsResolveWithTheirOwnFramesWork) {
  core::thread_pool pool(2);
  stage_scheduler scheduler(pool);
  const std::uint64_t job = scheduler.attach();
  EXPECT_EQ(scheduler.batch_limit(), 2);  // the pool width

  constexpr int kFrames = 9;
  std::vector<std::future<prefetched>> tickets;
  for (int i = 0; i < kFrames; ++i) {
    tickets.push_back(scheduler.submit(job, i, [i] { return stamped_frame(i); }));
  }
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(tickets[static_cast<std::size_t>(i)].get().frame.at(0, 0),
              static_cast<std::uint8_t>(i));
  }

  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.jobs, 1u);
  EXPECT_EQ(stats.frames, static_cast<std::uint64_t>(kFrames));
  // Every frame crosses the one acquisition queue, capped at the pool
  // width per dispatch.
  EXPECT_GE(stats.batches, static_cast<std::uint64_t>((kFrames + 1) / 2));
  EXPECT_GE(stats.peak_batch, 1u);
  EXPECT_LE(stats.peak_batch, 2u);
  EXPECT_EQ(stats.evicted, 0u);
}

TEST(StageScheduler, EvictionPoisonsOnlyTheThrowingFrame) {
  // Wide enough that the faulty frame shares a batch.
  core::thread_pool pool(4);
  stage_scheduler scheduler(pool);
  const std::uint64_t job = scheduler.attach();
  EXPECT_EQ(scheduler.batch_limit(), 4);

  constexpr int kFrames = 8;
  constexpr int kFaulty = 3;
  std::vector<std::future<prefetched>> tickets;
  for (int i = 0; i < kFrames; ++i) {
    tickets.push_back(scheduler.submit(job, i, [i] {
      if (i == kFaulty) {
        throw crash_error(crash_kind::segfault, "acquire fault (test)");
      }
      return stamped_frame(i);
    }));
  }
  for (int i = 0; i < kFrames; ++i) {
    auto& ticket = tickets[static_cast<std::size_t>(i)];
    if (i == kFaulty) {
      EXPECT_THROW((void)ticket.get(), crash_error) << "frame " << i;
    } else {
      EXPECT_EQ(ticket.get().frame.at(0, 0), static_cast<std::uint8_t>(i))
          << "frame " << i;
    }
  }
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.frames, static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(stats.evicted, 1u);
}

TEST(StageScheduler, SharedAcrossJobsKeepsTicketsSeparate) {
  // Two producers feed one external scheduler.  Frames from different
  // jobs may share a batch, but each ticket resolves with its own job's
  // work.
  core::thread_pool pool(2);
  stage_scheduler scheduler(pool);
  const std::uint64_t job_a = scheduler.attach();
  const std::uint64_t job_b = scheduler.attach();
  EXPECT_NE(job_a, job_b);

  std::vector<std::future<prefetched>> a;
  std::vector<std::future<prefetched>> b;
  for (int i = 0; i < 6; ++i) {
    a.push_back(scheduler.submit(job_a, i, [i] { return stamped_frame(i); }));
    b.push_back(
        scheduler.submit(job_b, i, [i] { return stamped_frame(100 + i); }));
  }
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(a[static_cast<std::size_t>(i)].get().frame.at(0, 0),
              static_cast<std::uint8_t>(i));
    EXPECT_EQ(b[static_cast<std::size_t>(i)].get().frame.at(0, 0),
              static_cast<std::uint8_t>(100 + i));
  }
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.jobs, 2u);
  EXPECT_EQ(stats.frames, 12u);
}

TEST(StageScheduler, DestructorDrainsUnconsumedTickets) {
  // Tickets the consumer abandoned (the RFD skip path, or an executor torn
  // down mid-run) must still be fulfilled before the dispatcher exits — a
  // promise destroyed unfulfilled would turn future::get into
  // broken_promise at some later consumer.
  core::thread_pool pool(1);
  std::future<prefetched> abandoned;
  {
    stage_scheduler scheduler(pool);
    const std::uint64_t job = scheduler.attach();
    EXPECT_EQ(scheduler.batch_limit(), 1);
    abandoned = scheduler.submit(job, 0, [] { return stamped_frame(7); });
    // Scheduler destroyed here with the ticket possibly still queued.
  }
  EXPECT_EQ(abandoned.get().frame.at(0, 0), 7);
}

TEST(StageScheduler, WithdrawTakesBackOnlyAQueuedTicket) {
  // Pool width 1: one ticket per dispatch.  Frame 0 is held inside its
  // dispatch, so frames 1 and 2 stay queued behind it.
  core::thread_pool pool(1);
  stage_scheduler scheduler(pool);
  const std::uint64_t job = scheduler.attach();
  dispatch_hold hold;
  std::array<std::atomic<int>, 3> acquired{};
  const auto counted = [&acquired](int i) {
    return [&acquired, i] {
      ++acquired[static_cast<std::size_t>(i)];
      return stamped_frame(i);
    };
  };
  auto running = scheduler.submit(job, 0, hold.step());
  hold.entered.wait();
  auto queued = scheduler.submit(job, 1, counted(1));
  auto kept = scheduler.submit(job, 2, counted(2));

  EXPECT_FALSE(scheduler.withdraw(job, 0));      // in a running dispatch
  EXPECT_TRUE(scheduler.withdraw(job, 1));       // still queued
  EXPECT_FALSE(scheduler.withdraw(job, 1));      // already withdrawn
  EXPECT_FALSE(scheduler.withdraw(job + 1, 2));  // another job's key
  hold.release.count_down();

  EXPECT_EQ(running.get().frame.at(0, 0), 0xff);
  EXPECT_EQ(kept.get().frame.at(0, 0), 2);
  EXPECT_FALSE(scheduler.withdraw(job, 2));  // done
  // The withdrawn ticket's step never ran and its future is abandoned.
  EXPECT_THROW((void)queued.get(), std::future_error);
  EXPECT_EQ(acquired[1].load(), 0);
  EXPECT_EQ(acquired[2].load(), 1);
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.frames, 3u);
  EXPECT_EQ(stats.withdrawn, 1u);
  EXPECT_EQ(stats.batches, 2u);
}

TEST(StageScheduler, DestructorDrainsCleanlyWithWithdrawnTickets) {
  // Tickets withdrawn from the middle of the queue leave no hole: the
  // destructor still runs every ticket left queued, and never the
  // withdrawn ones.
  core::thread_pool pool(1);
  dispatch_hold hold;
  std::array<std::atomic<int>, 5> acquired{};
  std::vector<std::future<prefetched>> tickets;
  {
    stage_scheduler scheduler(pool);
    const std::uint64_t job = scheduler.attach();
    tickets.push_back(scheduler.submit(job, 0, hold.step()));
    hold.entered.wait();
    for (int i = 1; i < 5; ++i) {
      tickets.push_back(scheduler.submit(job, i, [&acquired, i] {
        ++acquired[static_cast<std::size_t>(i)];
        return stamped_frame(i);
      }));
    }
    EXPECT_TRUE(scheduler.withdraw(job, 2));
    EXPECT_TRUE(scheduler.withdraw(job, 4));
    hold.release.count_down();
    // Scheduler destroyed here with frames 1 and 3 possibly still queued.
  }
  EXPECT_EQ(tickets[0].get().frame.at(0, 0), 0xff);
  for (const int i : {1, 3}) {
    EXPECT_EQ(tickets[static_cast<std::size_t>(i)].get().frame.at(0, 0), i);
    EXPECT_EQ(acquired[static_cast<std::size_t>(i)].load(), 1) << i;
  }
  for (const int i : {2, 4}) {
    EXPECT_THROW((void)tickets[static_cast<std::size_t>(i)].get(),
                 std::future_error);
    EXPECT_EQ(acquired[static_cast<std::size_t>(i)].load(), 0) << i;
  }
}

}  // namespace
}  // namespace vs
