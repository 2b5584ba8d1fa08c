#include "core/pool_budget.h"

#include <algorithm>

namespace vs::core {

pool_lease& pool_lease::operator=(pool_lease&& other) noexcept {
  if (this != &other) {
    release();
    owner_ = other.owner_;
    width_ = other.width_;
    pool_ = std::move(other.pool_);
    other.owner_ = nullptr;
    other.width_ = 0;
  }
  return *this;
}

thread_pool& pool_lease::pool() {
  if (!pool_) pool_ = std::make_unique<thread_pool>(std::max(1u, width_));
  return *pool_;
}

void pool_lease::release() noexcept {
  pool_.reset();  // joins the leased workers before the slots free up
  if (owner_ != nullptr) {
    owner_->release_slots(width_);
    owner_ = nullptr;
    width_ = 0;
  }
}

pool_arbiter::pool_arbiter(unsigned budget) : budget_(resolve_threads(budget)) {}

pool_lease pool_arbiter::acquire(unsigned min_slots, unsigned max_slots) {
  const unsigned need = std::clamp(min_slots, 1u, budget_);
  const unsigned want = std::clamp(max_slots, need, budget_);

  std::unique_lock<std::mutex> lock(mutex_);
  const std::uint64_t ticket = next_ticket_++;
  slots_cv_.wait(lock, [&] {
    return ticket == serving_ticket_ && budget_ - leased_ >= need;
  });
  ++serving_ticket_;
  const unsigned grant = std::min(want, budget_ - leased_);
  leased_ += grant;
  peak_ = std::max(peak_, leased_);
  lock.unlock();
  slots_cv_.notify_all();  // the next ticket may also be satisfiable
  return pool_lease(this, grant);
}

unsigned pool_arbiter::in_use() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return leased_;
}

unsigned pool_arbiter::peak_in_use() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return peak_;
}

void pool_arbiter::release_slots(unsigned width) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    leased_ -= std::min(width, leased_);
  }
  slots_cv_.notify_all();
}

}  // namespace vs::core
