// Shared thread-pool budget across concurrent jobs.
//
// Before this arbiter, every concurrent clip worker (a serve job, in
// process or forked, and so every `vs fleet` clip) sized its own pool from
// hardware concurrency — M concurrent clips on an N-core host ran M*N worker
// threads.  The arbiter closes that ROADMAP item: it owns a fixed budget of
// N worker *slots* and leases between min_slots and max_slots of them to
// each job.  A slot is one live thread of execution — the job's own calling
// thread counts as its first slot, so a lease of width k backs a
// thread_pool that spawns exactly k-1 workers.  Across every outstanding
// lease, granted slots never exceed the budget, which is the invariant the
// pool-budget tests assert with a live concurrency high-water mark.
//
// acquire() blocks until min_slots are free (fairness: FIFO by arrival),
// then grants as many free slots as max_slots allows.  Leases are released
// by RAII; width-1 leases are always grantable eventually because every
// grant is bounded by the budget and every lease returns.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>

#include "core/thread_pool.h"

namespace vs::core {

class pool_arbiter;

/// RAII ownership of granted worker slots.  Movable, empty after release.
class pool_lease {
 public:
  pool_lease() = default;
  ~pool_lease() { release(); }
  pool_lease(pool_lease&& other) noexcept { *this = std::move(other); }
  pool_lease& operator=(pool_lease&& other) noexcept;
  pool_lease(const pool_lease&) = delete;
  pool_lease& operator=(const pool_lease&) = delete;

  [[nodiscard]] explicit operator bool() const noexcept {
    return owner_ != nullptr;
  }
  /// Granted execution width (calling thread + width-1 pool workers).
  [[nodiscard]] unsigned width() const noexcept { return width_; }

  /// The pool sized to this lease.  Created on first use (a width-1 lease
  /// that never asks for its pool spawns no threads at all) and joined when
  /// the lease releases, so leased threads are live only while the lease
  /// is held.
  [[nodiscard]] thread_pool& pool();

  /// Returns the slots to the arbiter and joins the lease's pool workers.
  void release() noexcept;

 private:
  friend class pool_arbiter;
  pool_lease(pool_arbiter* owner, unsigned width)
      : owner_(owner), width_(width) {}

  pool_arbiter* owner_ = nullptr;
  unsigned width_ = 0;
  std::unique_ptr<thread_pool> pool_;
};

class pool_arbiter {
 public:
  /// The budget is resolve_threads(budget), exactly as the pools size
  /// themselves (0 = VS_THREADS, else hardware concurrency).
  explicit pool_arbiter(unsigned budget = 0);

  /// Blocks until at least min_slots are free, then grants
  /// min(max_slots, free slots).  min_slots is clamped to [1, budget],
  /// max_slots to [min_slots, budget].
  [[nodiscard]] pool_lease acquire(unsigned min_slots, unsigned max_slots);

  /// Non-blocking acquire: an empty lease when min_slots aren't free.
  [[nodiscard]] pool_lease try_acquire(unsigned min_slots,
                                       unsigned max_slots);

  [[nodiscard]] unsigned budget() const noexcept { return budget_; }
  [[nodiscard]] unsigned in_use() const;
  /// High-water mark of concurrently leased slots (never exceeds budget).
  [[nodiscard]] unsigned peak_in_use() const;

 private:
  friend class pool_lease;
  void release_slots(unsigned width);
  [[nodiscard]] unsigned clamp_grant(unsigned min_slots,
                                     unsigned max_slots) const noexcept;

  const unsigned budget_;
  mutable std::mutex mutex_;
  std::condition_variable slots_cv_;
  unsigned leased_ = 0;
  unsigned peak_ = 0;
  std::uint64_t next_ticket_ = 0;    ///< FIFO fairness: arrival order
  std::uint64_t serving_ticket_ = 0; ///< lowest ticket allowed to grab slots
};

}  // namespace vs::core
