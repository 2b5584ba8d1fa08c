#include "pipeline/scheduler.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/thread_pool.h"

namespace vs::pipeline {

namespace {

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

std::future<prefetched> stage_scheduler::submit(std::uint64_t job, int frame,
                                                prefetch_step step) {
  auto it = std::make_unique<item>();
  it->job = job;
  it->frame = frame;
  it->step = std::move(step);
  std::future<prefetched> ticket = it->done.get_future();
  frames_.fetch_add(1, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(m_);
    queue_.push_back(std::move(it));
  }
  cv_.notify_one();
  return ticket;
}

bool stage_scheduler::withdraw(std::uint64_t job, int frame) {
  std::unique_ptr<item> taken;  // destroyed outside the lock
  {
    const std::lock_guard<std::mutex> lock(m_);
    const auto at = std::find_if(queue_.begin(), queue_.end(), [&](auto& it) {
      return it->job == job && it->frame == frame;
    });
    if (at == queue_.end()) return false;
    taken = std::move(*at);
    queue_.erase(at);
  }
  withdrawn_.fetch_add(1, std::memory_order_relaxed);
  return true;
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
  s.withdrawn = withdrawn_.load(std::memory_order_relaxed);
  return s;
}

void stage_scheduler::dispatcher_loop() {
  std::unique_lock<std::mutex> lock(m_);
  for (;;) {
    cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopped and drained
    const auto limit = static_cast<std::size_t>(batch_limit());
    std::vector<std::unique_ptr<item>> batch;
    batch.reserve(std::min(queue_.size(), limit));
    while (!queue_.empty() && batch.size() < limit) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    lock.unlock();
    batches_.fetch_add(1, std::memory_order_relaxed);
    bump_peak(peak_batch_, batch.size());
    run_batch(batch);
    batch.clear();  // steps and their captures die off the lock
    lock.lock();
  }
}

void stage_scheduler::run_batch(
    const std::vector<std::unique_ptr<item>>& batch) {
  std::vector<std::function<void()>> tasks;
  tasks.reserve(batch.size());
  for (const auto& slot : batch) {
    item* it = slot.get();
    tasks.push_back([this, it] {
      try {
        it->done.set_value(it->step());
      } catch (...) {
        // Eviction: poison only this ticket.  The consumer's get() rethrows
        // inside its acquire stage guard — the recovery boundary contains
        // it like an inline failure and the retry recomputes inline.  The
        // batch's other items are untouched.
        evicted_.fetch_add(1, std::memory_order_relaxed);
        it->done.set_exception(std::current_exception());
      }
    });
  }
  pool_.run_tasks(tasks);
}

}  // namespace vs::pipeline
