#include "pipeline/executor.h"

#include <algorithm>
#include <utility>

#include "core/thread_pool.h"

namespace vs::pipeline {

frame_executor::frame_executor(const resil::hardening_config& hardening,
                               int frame_count, int frames_in_flight,
                               acquire_fn acquire, detect_fn detect,
                               verify_fn verify, stage_scheduler* scheduler,
                               bool acquire_only)
    : hardening_(hardening),
      hardened_(hardening.enabled()),
      frame_count_(frame_count),
      // No lookahead beyond the clip: top_up's horizon is min'd with
      // frame_count anyway, and the clamp keeps index + 1 + depth_ from
      // overflowing at any requested depth.
      depth_(std::clamp(frames_in_flight, 0, std::max(0, frame_count))),
      acquire_only_(acquire_only),
      // The instrumented lane never prefetches: acquisition must stay
      // inline so its hooks keep their position in the dynamic-instruction
      // stream the fault plans address.
      overlap_(!rt::instrumented() && depth_ > 0 && frame_count > 1),
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

frame_executor::~frame_executor() {
  for (ticket& t : tickets_) {
    if (t.work.valid()) t.work.wait();
  }
}

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
    if (tickets_.front().work.valid()) tickets_.front().work.wait();
    tickets_.pop_front();
  }
}

void frame_executor::top_up(int index) {
  const int horizon = std::min(frame_count_, index + 1 + depth_);
  if (next_prefetch_ <= index) next_prefetch_ = index + 1;
  // Each frame becomes a (job, frame) ticket in the scheduler's acquire
  // queue; the dispatcher groups queued tickets — across jobs, under
  // serving — into one pool dispatch per stage.  Only acquire, detect and
  // describe run ahead: they are pure functions of the frame index.  The
  // gate stage sits between acquire and detect but never runs ahead — it
  // classifies against the previous processed frame — so a gated executor
  // prefetches acquisition only and extracts at the stitch point.  Match
  // onward needs the previous frame's features and the open canvas.
  while (next_prefetch_ < horizon) {
    const int i = next_prefetch_++;
    stage_scheduler::extract_step extract;
    if (!acquire_only_) {
      extract = [this](const img::image_u8& frame) { return detect_(frame); };
    }
    tickets_.push_back({i, scheduler_->submit(
                               job_, i, [this, i] { return acquire_(i); },
                               std::move(extract))});
  }
}

frame_work frame_executor::obtain(int index) {
  if (overlap_ && !retrying_) {
    drain_stale(index);
    if (!tickets_.empty() && tickets_.front().index == index) {
      // Interprocedural CFCSS: consuming a ticket signs through the
      // prefetch node, so control flow that jumps out of (or into) the
      // prefetched path is caught by the acquire transition's fan-in.
      resil::mark(resil::cfcss::node::prefetch);
      std::future<frame_work> work = std::move(tickets_.front().work);
      tickets_.pop_front();
      frame_work w;
      {
        // A poisoned prefetch (the scheduler's acquisition or extraction
        // threw) rethrows here, inside the acquire stage, where the
        // recovery boundary contains it like an inline failure.
        const stage_guard g = enter(stage_id::acquire);
        w = work.get();
      }
      if (!acquire_only_) {
        // The scheduler already ran the extraction: take its product.
        extract(w,
                [&w](const img::image_u8&) { return std::move(w.features); });
      }
      top_up(index);
      return w;
    }
  }
  // Inline: the instrumented lane, depth 0, the lookahead's cold start, or
  // a recovery retry recomputing a consumed ticket.  Acquire runs no replica
  // check: it is the I/O boundary, outside the sphere of replication.
  frame_work w;
  {
    const stage_guard g = enter(stage_id::acquire);
    w.frame = acquire_(index);
  }
  if (!acquire_only_) extract(w, detect_);
  if (overlap_ && !retrying_) top_up(index);
  return w;
}

}  // namespace vs::pipeline
