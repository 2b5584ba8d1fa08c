// Unit tests for the per-stage batched scheduler (pipeline/scheduler.h):
// the grouped-submit pool primitive it dispatches through, the batch limit
// it takes from the dispatch pool's width, ticket resolution, per-item
// eviction, and the stats counters.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <vector>

#include "core/error.h"
#include "core/thread_pool.h"
#include "image/image.h"
#include "pipeline/scheduler.h"

namespace vs {
namespace {

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

img::image_u8 stamped_frame(int index) {
  return img::image_u8(4, 1, 1, static_cast<std::uint8_t>(index));
}

feat::frame_features stamped_features(const img::image_u8& frame) {
  feat::frame_features f;
  feat::keypoint kp;
  kp.x = static_cast<float>(frame.at(0, 0));
  f.keypoints.push_back(kp);
  return f;
}

TEST(StageScheduler, TicketsResolveWithTheirOwnFramesWork) {
  core::thread_pool pool(2);
  stage_scheduler scheduler(pool);
  const std::uint64_t job = scheduler.attach();
  EXPECT_EQ(scheduler.batch_limit(), 2);  // the pool width

  constexpr int kFrames = 9;
  std::vector<std::future<pipeline::frame_work>> tickets;
  for (int i = 0; i < kFrames; ++i) {
    tickets.push_back(scheduler.submit(
        job, i, [i] { return stamped_frame(i); },
        [](const img::image_u8& frame) { return stamped_features(frame); }));
  }
  for (int i = 0; i < kFrames; ++i) {
    auto work = tickets[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(work.frame.at(0, 0), static_cast<std::uint8_t>(i));
    ASSERT_EQ(work.features.keypoints.size(), 1u);
    EXPECT_EQ(work.features.keypoints[0].x, static_cast<float>(i));
  }

  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.jobs, 1u);
  EXPECT_EQ(stats.frames, static_cast<std::uint64_t>(kFrames));
  // Every frame crosses two queues (acquire, then detect), capped at the
  // pool width per dispatch.
  EXPECT_GE(stats.batches, static_cast<std::uint64_t>(kFrames));
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
  std::vector<std::future<pipeline::frame_work>> tickets;
  for (int i = 0; i < kFrames; ++i) {
    tickets.push_back(scheduler.submit(
        job, i,
        [i] {
          if (i == kFaulty) {
            throw crash_error(crash_kind::segfault, "acquire fault (test)");
          }
          return stamped_frame(i);
        },
        [](const img::image_u8& frame) { return stamped_features(frame); }));
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

TEST(StageScheduler, ExtractionFaultsPoisonTheTicketToo) {
  core::thread_pool pool(2);
  stage_scheduler scheduler(pool);
  const std::uint64_t job = scheduler.attach();
  EXPECT_EQ(scheduler.batch_limit(), 2);
  auto poisoned = scheduler.submit(
      job, 0, [] { return stamped_frame(0); },
      [](const img::image_u8&) -> feat::frame_features {
        throw detected_error(detect_kind::replica_divergence,
                             "extraction fault (test)");
      });
  auto healthy = scheduler.submit(
      job, 1, [] { return stamped_frame(1); },
      [](const img::image_u8& frame) { return stamped_features(frame); });
  EXPECT_THROW((void)poisoned.get(), detected_error);
  EXPECT_EQ(healthy.get().frame.at(0, 0), 1);
  EXPECT_EQ(scheduler.stats().evicted, 1u);
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

  std::vector<std::future<pipeline::frame_work>> a;
  std::vector<std::future<pipeline::frame_work>> b;
  for (int i = 0; i < 6; ++i) {
    a.push_back(scheduler.submit(
        job_a, i, [i] { return stamped_frame(i); },
        [](const img::image_u8& frame) { return stamped_features(frame); }));
    b.push_back(scheduler.submit(
        job_b, i, [i] { return stamped_frame(100 + i); },
        [](const img::image_u8& frame) { return stamped_features(frame); }));
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
  std::future<pipeline::frame_work> abandoned;
  {
    stage_scheduler scheduler(pool);
    const std::uint64_t job = scheduler.attach();
    EXPECT_EQ(scheduler.batch_limit(), 1);
    abandoned = scheduler.submit(
        job, 0, [] { return stamped_frame(7); },
        [](const img::image_u8& frame) { return stamped_features(frame); });
    // Scheduler destroyed here with the ticket possibly still queued.
  }
  EXPECT_EQ(abandoned.get().frame.at(0, 0), 7);
}

}  // namespace
}  // namespace vs
