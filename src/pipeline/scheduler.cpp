#include "pipeline/scheduler.h"

#include <algorithm>
#include <utility>

#include "core/thread_pool.h"

namespace vs::pipeline {

namespace {

constexpr int qidx(stage_id s) noexcept { return static_cast<int>(s); }

void bump_peak(std::atomic<std::uint64_t>& peak, std::uint64_t value) {
  std::uint64_t seen = peak.load(std::memory_order_relaxed);
  while (seen < value &&
         !peak.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

stage_scheduler::stage_scheduler(core::thread_pool& pool) : pool_(pool) {
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

stage_scheduler::~stage_scheduler() {
  {
    const std::lock_guard<std::mutex> lock(m_);
    stop_ = true;
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

std::uint64_t stage_scheduler::attach() noexcept {
  return next_job_.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::future<frame_work> stage_scheduler::submit(std::uint64_t job, int frame,
                                                acquire_step acquire,
                                                extract_step extract) {
  auto it = std::make_unique<item>();
  it->job = job;
  it->frame = frame;
  it->acquire = std::move(acquire);
  it->extract = std::move(extract);
  std::future<frame_work> ticket = it->done.get_future();
  frames_.fetch_add(1, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(m_);
    queues_[qidx(stage_id::acquire)].push_back(std::move(it));
  }
  cv_.notify_one();
  return ticket;
}

int stage_scheduler::batch_limit() const noexcept {
  return static_cast<int>(std::max(pool_.thread_count(), 1u));
}

scheduler_stats stage_scheduler::stats() const noexcept {
  scheduler_stats s;
  s.jobs = next_job_.load(std::memory_order_relaxed);
  s.frames = frames_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.peak_batch = peak_batch_.load(std::memory_order_relaxed);
  s.evicted = evicted_.load(std::memory_order_relaxed);
  return s;
}

bool stage_scheduler::have_work_locked() const noexcept {
  for (const auto& q : queues_) {
    if (!q.empty()) return true;
  }
  return false;
}

void stage_scheduler::dispatcher_loop() {
  std::unique_lock<std::mutex> lock(m_);
  for (;;) {
    cv_.wait(lock, [&] { return stop_ || have_work_locked(); });
    if (!have_work_locked()) {
      if (stop_) return;  // drained: only exit with empty queues
      continue;
    }
    // Reverse dataflow order: drain extraction before admitting more
    // acquires, so frames already in flight complete first and queued
    // memory stays bounded by the producers' lookahead depths.
    stage_id stage = stage_id::acquire;
    for (int s = stage_count - 1; s >= 0; --s) {
      if (!queues_[s].empty()) {
        stage = static_cast<stage_id>(s);
        break;
      }
    }
    auto& queue = queues_[qidx(stage)];
    const auto limit = static_cast<std::size_t>(batch_limit());
    std::vector<std::unique_ptr<item>> batch;
    batch.reserve(std::min(queue.size(), limit));
    while (!queue.empty() && batch.size() < limit) {
      batch.push_back(std::move(queue.front()));
      queue.pop_front();
    }
    lock.unlock();
    batches_.fetch_add(1, std::memory_order_relaxed);
    bump_peak(peak_batch_, batch.size());
    std::vector<std::unique_ptr<item>> advanced =
        run_batch(stage, std::move(batch));
    lock.lock();
    if (!advanced.empty()) {
      // Only acquire and detect own queues.  Describe is fused into the
      // extraction call, so its work rides in detect's queue, just as it
      // rides in detect's watchdog scope.
      auto& next_queue = queues_[qidx(stage_id::detect)];
      for (auto& it : advanced) next_queue.push_back(std::move(it));
    }
  }
}

std::vector<std::unique_ptr<stage_scheduler::item>> stage_scheduler::run_batch(
    stage_id stage, std::vector<std::unique_ptr<item>> batch) {
  std::vector<std::function<void()>> tasks;
  tasks.reserve(batch.size());
  for (auto& slot : batch) {
    item* it = slot.get();
    tasks.push_back([it, stage] {
      try {
        if (stage == stage_id::acquire) {
          it->image = it->acquire();
          // Acquire-only tickets (a gated executor: extraction moves to the
          // stitch point, behind the frame-gate classification) complete
          // here instead of advancing to the detect queue.
          if (!it->extract) {
            it->done.set_value(frame_work{std::move(it->image), {}});
          }
        } else {
          feat::frame_features features = it->extract(it->image);
          it->done.set_value(
              frame_work{std::move(it->image), std::move(features)});
        }
      } catch (...) {
        it->error = std::current_exception();
      }
    });
  }
  pool_.run_tasks(tasks);
  std::vector<std::unique_ptr<item>> advanced;
  advanced.reserve(batch.size());
  for (auto& slot : batch) {
    if (slot->error != nullptr) {
      // Eviction: poison only this ticket.  The consumer's get() rethrows
      // inside its acquire stage guard — the recovery boundary contains it
      // like an inline failure and the retry recomputes inline.  The
      // batch's other items were untouched.
      evicted_.fetch_add(1, std::memory_order_relaxed);
      slot->done.set_exception(slot->error);
      continue;
    }
    if (stage == stage_id::acquire && slot->extract) {
      advanced.push_back(std::move(slot));
    }
  }
  return advanced;
}

}  // namespace vs::pipeline
