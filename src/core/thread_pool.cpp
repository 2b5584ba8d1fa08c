#include "core/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>

namespace vs::core {

namespace {

// Set for pool workers (permanently) and for any thread currently executing
// chunk bodies: a parallel_for issued from such a thread must run inline —
// both to bound recursion and because try_lock on a mutex the thread already
// holds is undefined.
thread_local bool in_parallel_region = false;

class region_guard {
 public:
  region_guard() noexcept : prev_(in_parallel_region) {
    in_parallel_region = true;
  }
  ~region_guard() { in_parallel_region = prev_; }
  region_guard(const region_guard&) = delete;
  region_guard& operator=(const region_guard&) = delete;

 private:
  bool prev_;
};

}  // namespace

unsigned resolve_threads(unsigned requested) {
  if (requested == 0) {
    if (const char* env = std::getenv("VS_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) requested = static_cast<unsigned>(std::min(v, 256L));
    }
  }
  if (requested == 0) requested = std::thread::hardware_concurrency();
  return std::clamp(requested, 1u, 256u);
}

struct thread_pool::job {
  const chunk_fn* body = nullptr;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t grain = 1;
  std::size_t chunks = 0;
  std::atomic<std::size_t> next{0};  ///< next chunk index to claim
  std::atomic<bool> failed{false};   ///< any chunk threw: stop claiming more
  int active = 0;                    ///< workers inside run_chunks (under m_)
  std::mutex err_mutex;
  std::size_t err_chunk = std::numeric_limits<std::size_t>::max();
  std::exception_ptr err;

  void record_error(std::size_t chunk) noexcept {
    const std::lock_guard<std::mutex> lock(err_mutex);
    if (chunk < err_chunk) {
      err_chunk = chunk;
      err = std::current_exception();
    }
    failed.store(true, std::memory_order_release);
  }
};

std::size_t thread_pool::chunk_count(std::int64_t begin, std::int64_t end,
                                     std::int64_t grain) noexcept {
  if (end <= begin) return 0;
  if (grain < 1) grain = 1;
  return static_cast<std::size_t>((end - begin + grain - 1) / grain);
}

thread_pool::thread_pool(unsigned threads) {
  const unsigned width = resolve_threads(threads);
  workers_.reserve(width - 1);
  for (unsigned i = 1; i < width; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

thread_pool::~thread_pool() {
  {
    const std::lock_guard<std::mutex> lock(m_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void thread_pool::run_chunks(job& j) noexcept {
  const region_guard guard;
  for (;;) {
    // Best-effort cancellation: once any chunk has thrown, the loop will
    // rethrow anyway, so claiming further chunks only risks observable side
    // effects from work "after" the failure.  Chunks already in flight on
    // other workers still finish — callers must tolerate that much.
    if (j.failed.load(std::memory_order_acquire)) return;
    const std::size_t chunk = j.next.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= j.chunks) return;
    const std::int64_t lo =
        j.begin + static_cast<std::int64_t>(chunk) * j.grain;
    const std::int64_t hi = std::min(lo + j.grain, j.end);
    try {
      (*j.body)(lo, hi, chunk);
    } catch (...) {
      j.record_error(chunk);
    }
  }
}

void thread_pool::run_inline(job& j) noexcept {
  const region_guard guard;
  for (std::size_t chunk = 0; chunk < j.chunks; ++chunk) {
    const std::int64_t lo =
        j.begin + static_cast<std::int64_t>(chunk) * j.grain;
    const std::int64_t hi = std::min(lo + j.grain, j.end);
    try {
      (*j.body)(lo, hi, chunk);
    } catch (...) {
      j.record_error(chunk);
      return;  // sequential semantics: nothing after the throwing chunk runs
    }
  }
}

void thread_pool::parallel_for(std::int64_t begin, std::int64_t end,
                               std::int64_t grain, const chunk_fn& body) {
  job j;
  j.body = &body;
  j.begin = begin;
  j.end = end;
  j.grain = grain < 1 ? 1 : grain;
  j.chunks = chunk_count(begin, end, grain);
  if (j.chunks == 0) return;

  // Inline paths: single chunk, no workers, nested call, or the pool is busy
  // with another caller's job (e.g. the pipeline's prefetch thread while the
  // stitcher fans out).  The fixed tiling keeps results identical either way.
  if (j.chunks == 1 || workers_.empty() || in_parallel_region ||
      !submit_mutex_.try_lock()) {
    run_inline(j);
  } else {
    {
      const std::lock_guard<std::mutex> lock(m_);
      current_ = &j;
      ++generation_;
    }
    work_cv_.notify_all();
    run_chunks(j);
    {
      std::unique_lock<std::mutex> lock(m_);
      done_cv_.wait(lock, [&] { return j.active == 0; });
      current_ = nullptr;
    }
    submit_mutex_.unlock();
  }
  if (j.err) std::rethrow_exception(j.err);
}

void thread_pool::run_tasks(std::span<const std::function<void()>> tasks) {
  if (tasks.empty()) return;
  parallel_for(0, static_cast<std::int64_t>(tasks.size()), 1,
               [&tasks](std::int64_t begin, std::int64_t, std::size_t chunk) {
                 (void)begin;
                 tasks[chunk]();
               });
}

void thread_pool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    job* j = nullptr;
    {
      std::unique_lock<std::mutex> lock(m_);
      work_cv_.wait(lock, [&] {
        return stop_ || (generation_ != seen && current_ != nullptr);
      });
      if (stop_) return;
      seen = generation_;
      j = current_;
      ++j->active;
    }
    run_chunks(*j);
    {
      const std::lock_guard<std::mutex> lock(m_);
      --j->active;
    }
    done_cv_.notify_all();
  }
}

namespace {

std::mutex& global_mutex() {
  static std::mutex m;
  return m;
}

std::unique_ptr<thread_pool>& global_slot() {
  static std::unique_ptr<thread_pool> pool;
  return pool;
}

}  // namespace

thread_pool& thread_pool::global() {
  const std::lock_guard<std::mutex> lock(global_mutex());
  auto& slot = global_slot();
  if (!slot) slot = std::make_unique<thread_pool>();
  return *slot;
}

namespace {
thread_local thread_pool* tls_pool_override = nullptr;
}  // namespace

thread_pool& thread_pool::current() noexcept {
  if (tls_pool_override != nullptr) return *tls_pool_override;
  return global();
}

pool_scope::pool_scope(thread_pool& pool) noexcept
    : prev_(tls_pool_override) {
  tls_pool_override = &pool;
}

pool_scope::~pool_scope() { tls_pool_override = prev_; }

void thread_pool::set_global_threads(unsigned threads) {
  const std::lock_guard<std::mutex> lock(global_mutex());
  global_slot() = std::make_unique<thread_pool>(threads);
}

}  // namespace vs::core
