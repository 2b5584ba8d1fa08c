// stage_scheduler — the batched prefetch queue behind the frame_executor.
//
// The executor's lookahead (pipeline_config::frames_in_flight) submits the
// acquisition of frames t+1..t+k as tickets into one queue keyed by
// (job, frame).  On the clean lane acquisition is the only stage that runs
// ahead: extraction runs on the consuming thread at the stitch point, so at
// pool width 1 the dispatcher acquires frame t+1 while the stitch thread
// extracts, matches and composites frame t (DESIGN §5i has the measured
// per-frame split).  A counting session's ticket (pipeline/executor.h) also
// extracts when the gate is off, and carries the hook counts of its work.
//
//   * submit() enqueues a frame ticket and hands the consumer a future;
//   * one dispatcher thread pops up to batch_limit() queued tickets — the
//     dispatch width — and issues ONE core::thread_pool::run_tasks dispatch
//     over the batch;
//   * withdraw() takes back a ticket that no dispatch has taken yet, so a
//     consumer that reaches a still-queued frame acquires it inline instead
//     of idling, and a frame the consumer skipped is never acquired;
//   * an item whose acquisition throws is EVICTED from its batch: its
//     ticket is poisoned (future::get rethrows at the consumer, inside the
//     acquire stage guard, where the recovery boundary contains it like an
//     inline failure) while the batch's other items complete untouched.
//     The consumer's retry then recomputes inline, bypassing the queue.
//
// Determinism: each ticket's work is a pure function of the frame index,
// each run_tasks task is exactly one chunk of the pool's fixed
// tiling, and tickets are fulfilled per frame — so consumption order,
// chunk shapes and therefore every output byte are identical at any batch
// size, any pool width, any interleaving of jobs in the queue, and whether
// a frame was dispatched or withdrawn.  An armed session never touches the
// scheduler at all.
//
// Sharing: an executor may feed an external scheduler
// (pipeline_config::scheduler) instead of a private one; frames from
// different runs then share batches, and every ticket still resolves with
// its own run's frame.  Every batch dispatches to the one pool the
// scheduler was given.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "features/keypoint.h"
#include "image/image.h"
#include "rt/instrument.h"

namespace vs::core {
class thread_pool;
}  // namespace vs::core

namespace vs::pipeline {

/// Live counters over a scheduler's lifetime (relaxed reads; exact once the
/// producers quiesce).
struct scheduler_stats {
  std::uint64_t jobs = 0;            ///< attach() calls
  std::uint64_t frames = 0;          ///< tickets submitted
  std::uint64_t batches = 0;         ///< grouped dispatches issued
  std::uint64_t peak_batch = 0;      ///< widest batch dispatched
  std::uint64_t evicted = 0;         ///< items poisoned out of a batch
  std::uint64_t withdrawn = 0;       ///< tickets taken back before dispatch
};

/// What a ticket resolves with: the acquired frame and, for a counting
/// session's prefetch, the frame's features (gate off) and the tally of
/// the hook counts its work executed on the pool thread.
struct prefetched {
  img::image_u8 frame;
  std::optional<feat::frame_features> features;
  rt::tally counts;
};

class stage_scheduler {
 public:
  using prefetch_step = std::function<prefetched()>;

  /// Every batch dispatches to `pool` (standalone summarize: the executor
  /// passes the pool its own kernels dispatch to, so a leased-width job
  /// keeps its batches on the leased pool).  `pool` must outlive the
  /// scheduler.
  explicit stage_scheduler(core::thread_pool& pool);
  /// Drains every queued item (poisoning is not an option for work whose
  /// consumer may still hold a ticket), then joins the dispatcher.
  ~stage_scheduler();
  stage_scheduler(const stage_scheduler&) = delete;
  stage_scheduler& operator=(const stage_scheduler&) = delete;

  /// Registers a producer (one executor run) and returns its job key.
  [[nodiscard]] std::uint64_t attach() noexcept;

  /// Enqueues (job, frame) and returns the ticket its consumer waits on.
  /// The step runs at most once, inside a grouped dispatch; an exception
  /// from it poisons the ticket (eviction — the batch's other items still
  /// complete) and rethrows at get().
  [[nodiscard]] std::future<prefetched> submit(std::uint64_t job, int frame,
                                               prefetch_step step);

  /// Takes back the queued ticket (job, frame): true when no dispatch had
  /// taken it, and its step will never run (the ticket's future is
  /// abandoned: get() would throw broken_promise).  False when it is
  /// running or done — or was never submitted — and the ticket resolves
  /// as usual.
  [[nodiscard]] bool withdraw(std::uint64_t job, int frame);

  /// Most frames one dispatch may take: the dispatch pool's width.
  [[nodiscard]] int batch_limit() const noexcept;

  [[nodiscard]] scheduler_stats stats() const noexcept;

 private:
  struct item {
    std::uint64_t job = 0;
    int frame = -1;
    prefetch_step step;
    std::promise<prefetched> done;
  };

  void dispatcher_loop();
  /// Runs one batch via a grouped dispatch, fulfilling each item's ticket.
  void run_batch(const std::vector<std::unique_ptr<item>>& batch);

  core::thread_pool& pool_;

  mutable std::mutex m_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::deque<std::unique_ptr<item>> queue_;  ///< submitted, not dispatched

  std::atomic<std::uint64_t> next_job_{0};
  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> peak_batch_{0};
  std::atomic<std::uint64_t> evicted_{0};
  std::atomic<std::uint64_t> withdrawn_{0};

  std::thread dispatcher_;  ///< last member: joined before the queue dies
};

}  // namespace vs::pipeline
