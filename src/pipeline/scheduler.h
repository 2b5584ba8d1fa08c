// stage_scheduler — per-stage batched work queues, the clean lane's only
// prefetch producer behind the frame_executor.
//
// The executor's lookahead (pipeline_config::frames_in_flight) submits the
// prefetchable stage prefix of frames t+1..t+k as tickets into per-stage
// work queues keyed by (job, frame):
//
//   * submit() enqueues a frame ticket at the acquire queue and hands the
//     consumer a future; an acquired frame with an extraction step moves on
//     to the detect queue (describe is fused into detect's queue, exactly
//     as the executor fuses their stage scopes);
//   * one dispatcher thread forms batches: it scans the queues in REVERSE
//     dataflow order (extraction before admission, so in-flight frames
//     finish first and queue memory stays bounded by the executors'
//     lookahead depths), pops up to batch_limit() items — the dispatch
//     width — and issues ONE core::thread_pool::run_tasks dispatch over the
//     batch: k frames' FAST pyramids in one fan-out;
//   * an item whose step throws is EVICTED from its batch: its ticket is
//     poisoned (future::get rethrows at the consumer, inside the acquire
//     stage guard, where the recovery boundary contains it like an inline
//     failure) while the batch's other items complete and advance
//     untouched.  The consumer's retry then recomputes inline, bypassing
//     the queues.
//
// Determinism: each frame's stage work is a pure function of the frame
// index, each run_tasks task is exactly one chunk of the pool's fixed
// tiling, and tickets are fulfilled per frame — so consumption order,
// chunk shapes and therefore every output byte are identical at any batch
// size, any pool width, and any interleaving of jobs in the queues.  The
// instrumented lane never touches the scheduler at all.
//
// Serving: one scheduler is shared across every admitted job, so deep
// admission queues batch frames from different clips into one dispatch.
// Batches run under non-blocking core::pool_arbiter leases — the runner
// threads hold blocking leases for whole jobs while they wait on tickets,
// so a blocking acquire here could deadlock the fleet; when no slots are
// free the batch runs inline on the dispatcher thread (a bounded,
// transient extra lane of compute that keeps tickets flowing).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "features/keypoint.h"
#include "image/image.h"
#include "pipeline/stage.h"

namespace vs::core {
class pool_arbiter;
class thread_pool;
}  // namespace vs::core

namespace vs::pipeline {

/// What the prefetchable stage prefix (acquire + detect + describe)
/// produces for one frame.
struct frame_work {
  img::image_u8 frame;
  feat::frame_features features;
};

/// Live counters over a scheduler's lifetime (relaxed reads; exact once the
/// producers quiesce).
struct scheduler_stats {
  std::uint64_t jobs = 0;            ///< attach() calls
  std::uint64_t frames = 0;          ///< tickets submitted
  std::uint64_t batches = 0;         ///< grouped dispatches issued
  std::uint64_t peak_batch = 0;      ///< widest batch dispatched
  std::uint64_t inline_batches = 0;  ///< ran on the dispatcher (no lease free)
  std::uint64_t evicted = 0;         ///< items poisoned out of a batch
};

class stage_scheduler {
 public:
  using acquire_step = std::function<img::image_u8()>;
  using extract_step =
      std::function<feat::frame_features(const img::image_u8&)>;

  struct options {
    /// Fixed dispatch pool (standalone summarize: the executor passes the
    /// pool its own kernels dispatch to, so a leased-width job keeps its
    /// batches on the leased pool).  Ignored when `arbiter` is set.
    core::thread_pool* pool = nullptr;
    /// Leased dispatch (serving): every batch runs under a NON-BLOCKING
    /// try_acquire lease; no free slots -> the batch runs inline on the
    /// dispatcher thread.  Blocking would deadlock: runner threads hold
    /// their job leases while waiting on tickets only this thread resolves.
    core::pool_arbiter* arbiter = nullptr;
  };

  explicit stage_scheduler(const options& opt);
  /// Drains every queued item (poisoning is not an option for work whose
  /// consumer may still hold a ticket), then joins the dispatcher.
  ~stage_scheduler();
  stage_scheduler(const stage_scheduler&) = delete;
  stage_scheduler& operator=(const stage_scheduler&) = delete;

  /// Registers a producer (one executor run) and returns its job key.
  [[nodiscard]] std::uint64_t attach() noexcept;

  /// Enqueues (job, frame) at the acquire queue and returns the ticket its
  /// consumer waits on.  Each step runs exactly once, inside a grouped
  /// dispatch; an exception from either step poisons the ticket (eviction —
  /// the batch's other items still complete) and rethrows at get().
  [[nodiscard]] std::future<frame_work> submit(std::uint64_t job, int frame,
                                               acquire_step acquire,
                                               extract_step extract);

  /// Most frames one dispatch may take: the dispatch width (arbiter budget
  /// or pool width; 1 when neither is set).
  [[nodiscard]] int batch_limit() const noexcept;

  [[nodiscard]] scheduler_stats stats() const noexcept;

 private:
  struct item {
    std::uint64_t job = 0;
    int frame = -1;
    acquire_step acquire;
    extract_step extract;
    img::image_u8 image;  ///< produced by the acquire step
    std::promise<frame_work> done;
    std::exception_ptr error;  ///< set by a throwing step (-> eviction)
  };

  void dispatcher_loop();
  /// Runs one batch at `stage` via a grouped dispatch and returns the
  /// items advancing to the next queue (acquire -> detect; a detect item
  /// fulfilled its ticket instead).
  [[nodiscard]] std::vector<std::unique_ptr<item>> run_batch(
      stage_id stage, std::vector<std::unique_ptr<item>> batch);
  void dispatch(std::span<const std::function<void()>> tasks);
  [[nodiscard]] bool have_work_locked() const noexcept;

  const options opt_;
  /// Width-1 pool backing inline fallback dispatches: run_tasks on it runs
  /// the batch sequentially on the dispatcher with the nested-parallelism
  /// guard held, so kernels inside a fallback batch cannot escape to the
  /// process-wide pool behind the arbiter's back.
  std::unique_ptr<core::thread_pool> inline_pool_;

  mutable std::mutex m_;
  std::condition_variable cv_;
  bool stop_ = false;
  /// Work queues in dataflow order; only acquire's and detect's are ever
  /// populated.
  std::deque<std::unique_ptr<item>> queues_[stage_count];

  std::atomic<std::uint64_t> next_job_{0};
  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> peak_batch_{0};
  std::atomic<std::uint64_t> inline_batches_{0};
  std::atomic<std::uint64_t> evicted_{0};

  std::thread dispatcher_;  ///< last member: joined before queues die
};

}  // namespace vs::pipeline
