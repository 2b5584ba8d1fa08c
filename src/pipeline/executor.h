// frame_executor — the one pipeline spine that drives a frame through the
// stage graph and owns every cross-cutting concern declaratively:
//
//   * CFCSS transitions   — entering a stage marks its registry node;
//   * watchdog budgets    — a stage that opens_scope runs under its
//                           budget_key's rt::stage_scope allowance;
//   * recovery boundary   — run_frame wraps the whole frame in
//                           resil::attempt with snapshot/restore and the
//                           retry -> degrade policy ladder;
//   * lane selection      — the instrumented lane executes every stage
//                           inline (fault plans address injections by
//                           dynamic-op index, so acquisition must keep its
//                           position in the hook stream), while the clean
//                           lane feeds the prefetchable stage prefix
//                           (acquire/detect/describe) of frames t+1..t+k
//                           into a stage_scheduler's per-stage batch queues
//                           while frame t is matched and composited;
//   * profiling           — attribution scopes stay inside the kernels,
//                           but the registry's fn->stage mapping is what
//                           perf and fault reports aggregate by.
//
// The scheduling invariant: prefetched stages are pure functions of the
// frame index, consumed strictly in stitch order, so the summary is
// byte-identical at any in-flight depth — and the instrumented lane never
// prefetches, so its hook stream is bit-for-bit the one the campaigns
// measured.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>

#include "features/keypoint.h"
#include "image/image.h"
#include "pipeline/scheduler.h"
#include "pipeline/stage.h"
#include "resil/hardening.h"
#include "resil/recovery.h"
#include "resil/runtime.h"
#include "rt/instrument.h"

namespace vs::pipeline {

class frame_executor {
 public:
  using acquire_fn = std::function<img::image_u8(int)>;
  using detect_fn = std::function<feat::frame_features(const img::image_u8&)>;
  /// Cheap dual check of an extraction product: true when every reported
  /// keypoint's derived fields re-verify against the frame (the
  /// per-keypoint scoring contract — see feat::orb_verify_features).
  using verify_fn =
      std::function<bool(const img::image_u8&, const feat::frame_features&)>;

  /// `hardening` must outlive the executor (it is the pipeline_config's).
  /// `frames_in_flight` is the clean-lane lookahead (clamped to
  /// [0, frame_count]); the instrumented lane ignores it and runs strictly
  /// inline.  When `verify` is provided the extraction stages' replication
  /// check uses it instead of a full recompute-and-compare of `detect`.
  ///
  /// Prefetch rides a stage_scheduler's per-stage batch queues.
  /// `scheduler` shares an external one (pipeline_config::scheduler); when
  /// null and the lookahead is active the executor owns a
  /// private one dispatching to the pool its own kernels use.  Output is
  /// byte-identical at every depth: tickets are consumed in stitch order.
  ///
  /// `acquire_only` degrades the prefetchable prefix to frame acquisition
  /// (gated runs: whether — and over which ROI — extraction happens is
  /// decided per frame at the stitch point, behind the gate stage, so it
  /// cannot run ahead).  obtain() then returns frames with empty features
  /// and the caller runs extraction through extract().
  frame_executor(const resil::hardening_config& hardening, int frame_count,
                 int frames_in_flight, acquire_fn acquire, detect_fn detect,
                 verify_fn verify = {}, stage_scheduler* scheduler = nullptr,
                 bool acquire_only = false);
  /// Drains every in-flight prefetch before the frame source can die.
  ~frame_executor();
  frame_executor(const frame_executor&) = delete;
  frame_executor& operator=(const frame_executor&) = delete;

  /// RAII stage entry: opens the stage's watchdog allowance (hardened runs,
  /// opens_scope stages only) and drives its CFCSS transition — in that
  /// order, so the transition's own signature update is metered against the
  /// stage it enters, exactly as the hand-threaded pipeline did.
  class stage_guard {
   public:
    stage_guard(const frame_executor& exec, stage_id s);
    stage_guard(const stage_guard&) = delete;
    stage_guard& operator=(const stage_guard&) = delete;

   private:
    std::optional<rt::stage_scope> scope_;
  };

  /// Enters stage `s` for the current block.
  [[nodiscard]] stage_guard enter(stage_id s) const {
    return stage_guard(*this, s);
  }

  /// Marks the frame_end CFCSS node closing the per-frame graph.
  void end_frame() const { resil::mark(resil::cfcss::node::frame_end); }

  /// Runs the prefetchable stage prefix for `index` and returns its
  /// products.  Clean lane: consumes the in-flight tickets (draining those
  /// of frames the policy skipped) and tops them up to the lookahead depth.
  /// Instrumented lane, depth 0, or a recovery retry: computes inline.
  [[nodiscard]] frame_work obtain(int index);

  /// Re-acquires a frame for the degraded placement path: always inline,
  /// never touches the tickets, launches nothing.
  [[nodiscard]] img::image_u8 reacquire(int index) const {
    return acquire_(index);
  }

  /// The extraction stages (detect + describe) over `w.frame`: enters
  /// detect, stores `run(w.frame)` in `w.features`, marks describe — a
  /// CFCSS mark only, since describe is fused into the same extraction
  /// call and rides in detect's watchdog scope — and runs the extraction
  /// pair's replica check.  `run` is the full
  /// extractor, the ROI one on a gated delta frame, or the hand-over of a
  /// prefetched ticket's features; either way the check sees only freshly
  /// extracted features (reused or cached descriptors intentionally differ
  /// from a re-derivation).
  template <class Run>
  void extract(frame_work& w, Run&& run) const {
    const stage_guard g = enter(stage_id::detect);
    w.features = run(w.frame);
    resil::mark(stage_info(stage_id::describe).node);
    check_extract_replica(w);
  }

  /// Whether the current obtain() call is a recovery retry (gated callers
  /// must invalidate learned state before trusting it on a retry).
  [[nodiscard]] bool retrying() const noexcept { return retrying_; }

  /// The frame-level recovery boundary over one frame's unit of work:
  /// re-seeds the CFCSS monitor, attempts `body`, and on a contained
  /// failure restores `st` from a pre-attempt snapshot and walks the
  /// policy ladder (retry max_frame_retries times, then `degrade`).
  /// Unhardened runs execute `body` directly with zero overhead.
  template <class State, class Body, class Degrade>
  void run_frame(State& st, Body&& body, Degrade&& degrade) {
    const auto attempt_body = [&] {
      // Interprocedural CFCSS: frame entry is a checked transition from the
      // previous frame's exit (or from the recovery node on a retry), so
      // the signature chain spans frame boundaries instead of re-seeding.
      if (resil::tls.monitor != nullptr) resil::tls.monitor->enter_frame();
      body();
    };
    if (!hardened_) {
      attempt_body();
      return;
    }
    const State snapshot = st;
    bool failed_once = false;
    int retries_left = hardening_.max_frame_retries;
    for (;;) {
      const auto failure = resil::attempt(attempt_body);
      if (!failure) {
        if (failed_once) ++resil::tls.report.frames_recovered;
        retrying_ = false;
        return;
      }
      st = snapshot;
      failed_once = true;
      // The signature register is presumed corrupt on the exception path:
      // re-anchor the chain at the recover node, from which the retry's
      // frame entry is a checked edge.
      if (resil::tls.monitor != nullptr) resil::tls.monitor->enter_recovery();
      // The failed attempt already consumed (or poisoned) this frame's
      // prefetch ticket; obtain() must bypass the tickets and recompute
      // inline rather than dequeue a later frame's work.
      retrying_ = true;
      if (retries_left-- > 0) {
        ++resil::tls.report.retries;
        continue;
      }
      degrade();
      retrying_ = false;
      return;
    }
  }

  /// Whether the clean-lane lookahead is active this run.
  [[nodiscard]] bool overlapping() const noexcept { return overlap_; }
  [[nodiscard]] int frames_in_flight() const noexcept { return depth_; }

 private:
  /// Dual-execution check of the extraction stages (selective
  /// replication): per-keypoint scoring verification when a verify_fn was
  /// supplied, full recompute-compare otherwise.  No-op unless the
  /// session's replication mask includes detect or describe.  Called
  /// inside the detect stage guard so a divergence is detected — and
  /// budgeted — in the stage it implicates.  (Acquire has no check: it is
  /// the I/O boundary, outside the sphere of replication.)
  void check_extract_replica(const frame_work& work) const;
  /// Finishes and discards tickets of frames consumption skipped past
  /// (RFD-dropped frames): the scheduler reads the source, so the ticket
  /// must complete before it dies.
  void drain_stale(int index);
  /// Schedules the prefix of frames index+1 .. index+depth.  Monotonic:
  /// a frame is scheduled at most once per run, so a retry can never
  /// double-schedule work the first attempt already launched.
  void top_up(int index);

  const resil::hardening_config& hardening_;
  const bool hardened_;
  const int frame_count_;
  const int depth_;
  const bool acquire_only_;
  const bool overlap_;
  bool retrying_ = false;
  acquire_fn acquire_;
  detect_fn detect_;
  verify_fn verify_;

  /// Private scheduler when the lookahead is active and none was shared.
  /// Declared before tickets_ and destroyed after the destructor body
  /// drains them, so every ticket resolves while the dispatcher is alive.
  std::unique_ptr<stage_scheduler> owned_scheduler_;
  stage_scheduler* scheduler_ = nullptr;  ///< null = inline only
  std::uint64_t job_ = 0;                 ///< scheduler job key

  struct ticket {
    int index = -1;
    std::future<frame_work> work;
  };
  std::deque<ticket> tickets_;  ///< in-flight frames, ascending index
  int next_prefetch_ = 0;  ///< first frame index never scheduled
};

}  // namespace vs::pipeline
