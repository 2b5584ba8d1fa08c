#include "pipeline/executor.h"

#include <algorithm>
#include <utility>

#include "core/thread_pool.h"

namespace vs::pipeline {

namespace {

// Width of the pool the tickets would dispatch to.
unsigned dispatch_width(const stage_scheduler* shared) {
  return shared != nullptr
             ? static_cast<unsigned>(shared->batch_limit())
             : core::thread_pool::current().thread_count();
}

}  // namespace

frame_executor::frame_executor(const resil::hardening_config& hardening,
                               int frame_count, int frames_in_flight,
                               acquire_fn acquire, detect_fn detect,
                               verify_fn verify, stage_scheduler* scheduler,
                               bool gated)
    : hardening_(hardening),
      hardened_(hardening.enabled()),
      frame_count_(frame_count),
      // No lookahead beyond the clip: top_up's horizon is min'd with
      // frame_count anyway, and the clamp keeps index + 1 + depth_ from
      // overflowing at any requested depth.
      depth_(std::clamp(frames_in_flight, 0, std::max(0, frame_count))),
      counting_(rt::counting() && !hardened_),
      extract_ahead_(counting_ && !gated),
      // An armed session (and a hardened one, whose stage budgets meter
      // where each op runs) never prefetches: acquisition must stay inline
      // so its hooks keep their position in the dynamic-instruction stream
      // the fault plans address.  A counting session's prefetch needs a
      // second thread; at width 1 it stays inline and starts none.
      overlap_(depth_ > 0 && frame_count > 1 &&
               (!rt::instrumented() ||
                (counting_ && dispatch_width(scheduler) > 1))),
      acquire_(std::move(acquire)),
      detect_(std::move(detect)),
      verify_(std::move(verify)) {
  if (!overlap_) return;
  if (scheduler != nullptr) {
    scheduler_ = scheduler;
  } else {
    // Batches dispatch to the pool this run's own kernels use, so a job
    // under a leased-width pool (core/pool_budget.h) keeps its prefetch on
    // the lease instead of escaping to the process-wide pool.
    owned_scheduler_ =
        std::make_unique<stage_scheduler>(core::thread_pool::current());
    scheduler_ = owned_scheduler_.get();
  }
  job_ = scheduler_->attach();
}

frame_executor::~frame_executor() { drain_stale(frame_count_); }

frame_executor::stage_guard::stage_guard(const frame_executor& exec,
                                         stage_id s) {
  const stage_desc& desc = stage_info(s);
  if (exec.hardened_ && desc.opens_scope) {
    scope_.emplace(budget_value(exec.hardening_.stage_budgets, desc.budget));
  }
  resil::mark(desc.node);
}

void frame_executor::check_extract_replica(const frame_work& work) const {
  // detect and describe are fused in one extraction call, so either
  // stage's replication bit dual-executes the pair; a divergence is
  // attributed to the stage whose bit requested the check.
  const bool detect_on = resil::stage_replicated(stage_id::detect);
  if (!detect_on && !resil::stage_replicated(stage_id::describe)) return;
  const stage_id blame = detect_on ? stage_id::detect : stage_id::describe;
  if (verify_) {
    // Per-keypoint scoring verification: O(keypoints) instead of the
    // detector's O(pixels) full-frame search, so dual-executing the
    // extraction pair costs a fraction of the primary run.
    resil::verify_checked(blame,
                          [&] { return verify_(work.frame, work.features); });
    return;
  }
  resil::verify_recomputed(blame, work.features,
                           [&] { return detect_(work.frame); },
                           std::equal_to<feat::frame_features>());
}

void frame_executor::drain_stale(int index) {
  while (!tickets_.empty() && tickets_.front().index < index) {
    ticket& t = tickets_.front();
    if (!scheduler_->withdraw(job_, t.index)) t.work.wait();
    tickets_.pop_front();
  }
}

void frame_executor::top_up(int index) {
  const int horizon = std::min(frame_count_, index + 1 + depth_);
  if (next_prefetch_ <= index) next_prefetch_ = index + 1;
  // Each frame becomes a (job, frame) ticket in the scheduler's queue; the
  // dispatcher groups queued tickets into one pool dispatch.  Acquisition
  // runs ahead: it is a pure function of the frame index.  The gate
  // classifies against the previous processed frame and decides whether
  // (and over which ROI) extraction happens, and match onward needs the
  // previous frame's features and the open canvas, so everything after
  // acquire runs at the stitch point — except in an ungated counting
  // session, whose extraction is then a pure function of the frame index
  // too, and the bulk of an instrumented frame.
  const rt::fn cur = rt::tls.cur;
  while (next_prefetch_ < horizon) {
    const int i = next_prefetch_++;
    tickets_.push_back({i, scheduler_->submit(job_, i, [this, i, cur] {
                          return prefetch(i, cur);
                        })});
  }
}

prefetched frame_executor::prefetch(int index, rt::fn cur) const {
  prefetched out;
  if (!counting_) {
    out.frame = acquire_(index);
    return out;
  }
  const rt::session session;
  const rt::scope attributed(cur);
  out.frame = acquire_(index);
  if (extract_ahead_) out.features = detect_(out.frame);
  out.counts = session.executed();
  return out;
}

frame_work frame_executor::acquire_inline(int index) const {
  // Acquire runs no replica check: it is the I/O boundary, outside the
  // sphere of replication.
  const stage_guard g = enter(stage_id::acquire);
  frame_work work;
  work.frame = acquire_(index);
  return work;
}

frame_work frame_executor::obtain(int index) {
  // Inline: no lookahead, or a recovery retry recomputing a consumed
  // ticket.
  if (!overlap_ || retrying_) return acquire_inline(index);
  drain_stale(index);
  std::future<prefetched> ticket;
  if (!tickets_.empty() && tickets_.front().index == index) {
    // A ticket no dispatch has taken yet is withdrawn: this thread
    // acquires the frame itself rather than idle behind the queue.
    if (!scheduler_->withdraw(job_, index)) {
      ticket = std::move(tickets_.front().work);
    }
    tickets_.pop_front();
  }
  // Top up before acquiring, so the dispatcher works on the next frames
  // while this one is acquired, waited for, or extracted.
  top_up(index);
  if (!ticket.valid()) return acquire_inline(index);
  // Interprocedural CFCSS: consuming a ticket signs through the prefetch
  // node, so control flow that jumps out of (or into) the prefetched path
  // is caught by the acquire transition's fan-in.
  resil::mark(resil::cfcss::node::prefetch);
  // A poisoned prefetch (the scheduler's acquisition threw) rethrows here,
  // inside the acquire stage, where the recovery boundary contains it like
  // an inline failure.
  const stage_guard g = enter(stage_id::acquire);
  prefetched done = ticket.get();
  // The inline run counts the frame's acquisition here, and (ungated)
  // nothing else before its extraction.
  if (counting_) rt::absorb(done.counts);
  frame_work work;
  work.frame = std::move(done.frame);
  if (done.features) {
    work.features = std::move(*done.features);
    work.extracted = true;
  }
  return work;
}

}  // namespace vs::pipeline
