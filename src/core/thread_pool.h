// Deterministic fork-join thread pool: the engine of the clean (parallel)
// execution lane.
//
// Every hot kernel in this library has two implementations:
//
//   * the *instrumented lane* — sequential, routing live values through the
//     rt:: fault-site hooks.  Fault plans address injections by dynamic-op
//     index, so this lane must execute a fixed operation stream; it cannot
//     be parallelized or reordered.
//   * the *clean lane* — the production serving path, dispatched when
//     rt::tls.enabled is false.  It runs the same arithmetic without hooks,
//     tiled over this pool.
//
// parallel_for splits [begin, end) into fixed chunks of `grain` iterations.
// Chunk boundaries depend only on (begin, end, grain) — never on the worker
// count or on scheduling — so a kernel that writes disjoint per-chunk output
// (or concatenates per-chunk results in chunk index order) produces
// bit-identical results with 1, 2 or N threads.  That invariant is what the
// parallel-equivalence tests pin: clean-lane output == instrumented-lane
// output, byte for byte.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

namespace vs::core {

/// The one place a worker width is resolved: `requested` when non-zero,
/// else the VS_THREADS environment variable when it holds a positive
/// number, else hardware concurrency — clamped to [1, 256].  Pools and the
/// serve-layer pool_arbiter budget both size themselves through it.
[[nodiscard]] unsigned resolve_threads(unsigned requested);

class thread_pool {
 public:
  /// Chunk body: half-open iteration range plus the chunk's index in the
  /// fixed tiling (for writing into per-chunk result slots).
  using chunk_fn =
      std::function<void(std::int64_t begin, std::int64_t end,
                         std::size_t chunk)>;

  /// The width is resolve_threads(threads).  The calling thread always
  /// participates, so a pool of `t` threads spawns `t - 1` workers.
  explicit thread_pool(unsigned threads = 0);
  ~thread_pool();
  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  /// Total execution width (workers + the calling thread).
  [[nodiscard]] unsigned thread_count() const noexcept {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Number of chunks the fixed tiling produces for a range — callers size
  /// their per-chunk result vectors with this before fanning out.
  [[nodiscard]] static std::size_t chunk_count(std::int64_t begin,
                                               std::int64_t end,
                                               std::int64_t grain) noexcept;

  /// Runs `body` once per chunk.  Blocks until every chunk completed.
  ///
  /// Guarantees:
  ///   * chunk boundaries are a pure function of (begin, end, grain);
  ///   * nested calls (from inside a chunk body, from a pool worker, or
  ///     while another caller holds the pool) degrade to inline sequential
  ///     execution in ascending chunk order — never deadlock;
  ///   * if bodies throw, the exception of the lowest-indexed failing chunk
  ///     is rethrown on the calling thread after the loop drains, and no new
  ///     chunks are claimed after the first failure is recorded (inline
  ///     execution stops at the throwing chunk exactly; parallel execution
  ///     stops best-effort — chunks already running elsewhere still finish).
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    const chunk_fn& body);

  /// Grouped submit: runs `tasks` as ONE pool dispatch, task i as chunk i of
  /// the fixed grain-1 tiling over [0, tasks.size()).  This is the primitive
  /// the batched stage scheduler fans a batch of frames out with: because
  /// every task is exactly one chunk, each task's work is identical to
  /// running it alone (a nested parallel_for inside a task degrades to
  /// inline, same as any chunk body), so grouping k frames into one dispatch
  /// cannot change a single output byte at any batch size or pool width.
  /// Inherits parallel_for's error contract: the lowest-indexed throwing
  /// task's exception rethrows after the group drains.
  void run_tasks(std::span<const std::function<void()>> tasks);

  /// The process-wide pool the clean lanes dispatch to.  Lazily constructed;
  /// width comes from the VS_THREADS environment variable when set, else
  /// hardware concurrency.
  static thread_pool& global();

  /// The pool the calling thread's clean-lane kernels dispatch to: the pool
  /// installed by the innermost pool_scope on this thread, else global().
  /// This is how a leased-width pool (core/pool_budget.h) reaches the
  /// kernels without threading a pool parameter through every call chain.
  static thread_pool& current() noexcept;

  /// Replaces the global pool with one of the given width (0 = auto).  Test
  /// and benchmark hook; must not be called while parallel work is in
  /// flight.
  static void set_global_threads(unsigned threads);

 private:
  struct job;

  void worker_loop();
  static void run_chunks(job& j) noexcept;
  static void run_inline(job& j) noexcept;

  std::vector<std::thread> workers_;
  std::mutex m_;
  std::condition_variable work_cv_;   ///< wakes workers on a new job
  std::condition_variable done_cv_;   ///< wakes the caller on completion
  std::mutex submit_mutex_;           ///< serializes external callers
  job* current_ = nullptr;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

/// RAII override of thread_pool::current() for the calling thread.  A job
/// that leased a bounded-width pool wraps its whole unit of work in a
/// pool_scope so every clean-lane kernel underneath tiles over the leased
/// pool instead of the process-wide one.  Scopes nest; each restores the
/// previous override on destruction.
class pool_scope {
 public:
  explicit pool_scope(thread_pool& pool) noexcept;
  ~pool_scope();
  pool_scope(const pool_scope&) = delete;
  pool_scope& operator=(const pool_scope&) = delete;

 private:
  thread_pool* prev_;
};

}  // namespace vs::core
