// Tests for the fault containment & recovery subsystem (src/resil/):
// CFCSS stage signatures, the composite replica, the per-stage watchdog,
// the recovery boundary (and its rt unwind-state regression guarantees),
// and the hardened end-to-end pipeline behaviour.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <stdexcept>

#include "app/pipeline.h"
#include "core/error.h"
#include "fault/campaign.h"
#include "fault/detectors.h"
#include "resil/recovery.h"
#include "resil/runtime.h"
#include "rt/instrument.h"
#include "video/generator.h"

namespace vs {
namespace {

/// Saves/restores the thread's resil state so tests can poke it directly.
struct resil_state_guard {
  resil::runtime_state saved = resil::tls;
  ~resil_state_guard() { resil::tls = saved; }
};

// ---------------------------------------------------------------------------
// CFCSS signatures
// ---------------------------------------------------------------------------

TEST(Cfcss, LegalFramePathsPass) {
  using resil::cfcss::node;
  resil::cfcss::monitor m;

  // Full aligned frame, including the homography -> affine cascade
  // (estimate -> estimate is a legal self-edge).
  m.begin_frame();
  for (const node n : {node::acquire, node::detect, node::describe,
                       node::match, node::estimate, node::estimate,
                       node::composite, node::frame_end}) {
    m.transition(n);
  }
  EXPECT_EQ(m.violations(), 0u);
  EXPECT_EQ(m.current(), node::frame_end);

  // Anchor frame: no matching, straight to compositing.
  m.begin_frame();
  for (const node n : {node::acquire, node::detect, node::describe,
                       node::composite, node::frame_end}) {
    m.transition(n);
  }
  EXPECT_EQ(m.violations(), 0u);

  // Discarded frame: matching fails, frame ends without compositing.
  m.begin_frame();
  for (const node n : {node::acquire, node::detect, node::describe,
                       node::match, node::frame_end}) {
    m.transition(n);
  }
  EXPECT_EQ(m.violations(), 0u);
}

TEST(Cfcss, IllegalTransitionThrowsAndCounts) {
  using resil::cfcss::node;
  resil::cfcss::monitor m;
  m.begin_frame();
  m.transition(node::acquire);
  try {
    m.transition(node::composite);  // acquire is not a predecessor
    FAIL() << "illegal transition not flagged";
  } catch (const detected_error& e) {
    EXPECT_EQ(e.kind(), detect_kind::control_flow);
  }
  EXPECT_EQ(m.violations(), 1u);

  // begin_frame re-seeds the signature: the next frame checks cleanly.
  m.begin_frame();
  m.transition(node::acquire);
  m.transition(node::detect);
  EXPECT_EQ(m.violations(), 1u);
}

TEST(Cfcss, SkippingAStageIsDetected) {
  using resil::cfcss::node;
  resil::cfcss::monitor m;
  m.begin_frame();
  EXPECT_THROW(m.transition(node::detect), detected_error);  // skipped acquire
}

TEST(Cfcss, InterproceduralFrameChainSpansFrameBoundaries) {
  using resil::cfcss::node;
  resil::cfcss::monitor m;

  // First frame of the run: no predecessor yet, enter_frame re-seeds.
  m.enter_frame();
  for (const node n : {node::acquire, node::detect, node::describe,
                       node::match, node::estimate, node::composite,
                       node::frame_end}) {
    m.transition(n);
  }
  // Second frame: entry is now a *checked* frame_end -> frame_begin edge.
  m.enter_frame();
  EXPECT_EQ(m.violations(), 0u);
  EXPECT_EQ(m.current(), node::frame_begin);

  // Consuming a prefetch ticket signs frame_begin -> prefetch -> acquire.
  m.transition(node::prefetch);
  m.transition(node::acquire);
  EXPECT_EQ(m.violations(), 0u);

  // But a ticket cannot be consumed mid-frame: prefetch's only legal
  // predecessor is frame_begin.
  EXPECT_THROW(m.transition(node::prefetch), detected_error);
  EXPECT_EQ(m.violations(), 1u);
}

TEST(Cfcss, RecoveryReanchorsTheSignatureChain) {
  using resil::cfcss::node;
  resil::cfcss::monitor m;
  m.enter_frame();
  m.transition(node::acquire);
  // A contained failure mid-frame presumes G corrupt: enter_recovery
  // re-seeds at the recover node instead of checking a transition.
  m.enter_recovery();
  EXPECT_EQ(m.current(), node::recover);
  // The retry's frame entry is then the checked recover -> frame_begin
  // edge, and the re-attempted frame walks cleanly.
  m.enter_frame();
  for (const node n : {node::acquire, node::detect, node::describe,
                       node::match, node::frame_end}) {
    m.transition(n);
  }
  EXPECT_EQ(m.violations(), 0u);
}

// ---------------------------------------------------------------------------
// The composite replica
// ---------------------------------------------------------------------------

TEST(Replication, RunsOnceWithoutASession) {
  resil_state_guard guard;
  resil::tls = resil::runtime_state{};  // no replica this session
  int digests = 0;
  resil::verify_replica([&] { return ++digests; }, [&] { return ++digests; });
  EXPECT_EQ(digests, 0);  // the stage ran once; nothing re-runs it
}

TEST(Replication, OnlyLevelFullReplicates) {
  resil_state_guard guard;
  resil::hardening_config config;
  for (const auto level :
       {resil::hardening_level::detectors, resil::hardening_level::cfcss}) {
    config.level = level;
    const resil::session session(config);
    EXPECT_FALSE(resil::tls.replicate_composite)
        << resil::hardening_level_name(level);
  }
  config.level = resil::hardening_level::full;
  const resil::session session(config);
  EXPECT_TRUE(resil::tls.replicate_composite);
}

TEST(Replication, AgreementPasses) {
  resil_state_guard guard;
  resil::tls = resil::runtime_state{};
  resil::tls.replicate_composite = true;
  rt::session hooks;
  bool replica_hooked = true;
  resil::verify_replica([] { return std::uint64_t{7}; },
                        [&] {
                          replica_hooked = rt::instrumented();
                          return std::uint64_t{7};
                        });
  EXPECT_FALSE(replica_hooked);  // the replica runs on the clean lane
  EXPECT_TRUE(rt::instrumented());
  EXPECT_EQ(resil::tls.report.replica_divergences, 0u);
}

TEST(Replication, DivergenceThrowsDetectedError) {
  resil_state_guard guard;
  resil::tls = resil::runtime_state{};
  resil::tls.replicate_composite = true;
  rt::session hooks;
  try {
    resil::verify_replica([] { return std::uint64_t{7}; },
                          [] { return std::uint64_t{8}; });
    FAIL() << "divergence not flagged";
  } catch (const detected_error& e) {
    EXPECT_EQ(e.kind(), detect_kind::replica_divergence);
  }
  EXPECT_EQ(resil::tls.report.replica_divergences, 1u);
  EXPECT_TRUE(rt::instrumented());  // hooks back on even on the throwing path
}

// ---------------------------------------------------------------------------
// Per-stage watchdog
// ---------------------------------------------------------------------------

TEST(StageScope, BudgetTripIsADetectedStageHang) {
  rt::session session;
  rt::stage_scope meter(16);
  try {
    for (int i = 0; i < 64; ++i) (void)rt::g64(i);
    FAIL() << "stage budget did not trip";
  } catch (const detected_error& e) {
    EXPECT_EQ(e.kind(), detect_kind::stage_hang);
  }
  // The trip disarms the stage meter so unwinding/recovery code cannot
  // re-raise from its own hooks.
  EXPECT_EQ(rt::tls.stage_budget, ~0ULL);
}

TEST(StageScope, ZeroBudgetMeansUnlimited) {
  rt::session session;
  rt::stage_scope meter(0);
  for (int i = 0; i < 1000; ++i) (void)rt::g64(i);
  SUCCEED();
}

TEST(StageScope, NestingRestoresEnclosingMeter) {
  rt::session session;
  rt::stage_scope outer(1'000'000);
  for (int i = 0; i < 10; ++i) (void)rt::g64(i);
  const std::uint64_t outer_steps = rt::tls.stage_steps;
  {
    rt::stage_scope inner(500);
    for (int i = 0; i < 20; ++i) (void)rt::g64(i);
  }
  // The enclosing stage also paid for the nested stage's steps.
  EXPECT_EQ(rt::tls.stage_steps, outer_steps + 20);
  EXPECT_EQ(rt::tls.stage_budget, 1'000'000u);
}

TEST(StageScope, GlobalWatchdogStillRaisesHangError) {
  rt::fault_plan plan;
  plan.target = ~0ULL;  // never fires
  rt::session session(plan, /*step_budget=*/16);
  rt::stage_scope meter(1'000'000);  // stage budget is not the limiter here
  EXPECT_THROW(
      {
        for (int i = 0; i < 64; ++i) (void)rt::g64(i);
      },
      hang_error);
}

// ---------------------------------------------------------------------------
// Recovery boundary (resil::attempt) — incl. the rt unwind regression tests
// ---------------------------------------------------------------------------

TEST(Attempt, ContainsCrashAndRestoresUnwindState) {
  rt::session session;
  resil_state_guard guard;
  resil::tls = resil::runtime_state{};
  const auto failure = resil::attempt([&] {
    // Simulate a kernel that corrupted thread state and then died without
    // running its RAII cleanup path.
    rt::tls.cur = rt::fn::warp;
    rt::tls.stage_steps = 123456;
    rt::tls.stage_budget = 7;
    throw crash_error(crash_kind::segfault, "injected wild pointer");
  });
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->kind, resil::failure_kind::crash_segfault);
  // S1 regression: the boundary re-asserts the pre-attempt scope and stage
  // meter, so the retry does not inherit mid-kernel attribution state.
  EXPECT_EQ(rt::tls.cur, rt::fn::other);
  EXPECT_EQ(rt::tls.stage_steps, 0u);
  EXPECT_EQ(rt::tls.stage_budget, ~0ULL);
  EXPECT_EQ(resil::tls.report.crashes_contained, 1u);
}

TEST(Attempt, RetryAfterFiredInjectionDoesNotReplayTheFault) {
  rt::fault_plan plan;
  plan.cls = rt::reg_class::gpr;
  plan.target = 3;  // fires on the fourth GPR hook
  plan.bit = 40;
  rt::session session(plan);
  resil_state_guard guard;
  resil::tls = resil::runtime_state{};

  const auto failure = resil::attempt([&] {
    for (int i = 0; i < 8; ++i) (void)rt::g64(i);
    if (!rt::tls.fired) return;  // plan must have fired by now
    throw crash_error(crash_kind::abort, "corrupted state tripped an assert");
  });
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->kind, resil::failure_kind::crash_abort);
  // Injection bookkeeping survives the boundary: the fault is spent, not
  // re-armed (a transient strikes once).
  EXPECT_TRUE(rt::tls.fired);
  EXPECT_FALSE(rt::tls.armed);
  // The retry therefore sees clean values end to end.
  std::int64_t sum = 0;
  for (int i = 0; i < 8; ++i) sum += rt::g64(1);
  EXPECT_EQ(sum, 8);
}

TEST(Attempt, GlobalHangPassesThrough) {
  rt::fault_plan plan;
  plan.target = ~0ULL;
  rt::session session(plan, /*step_budget=*/16);
  EXPECT_THROW((void)resil::attempt([&] {
                 for (int i = 0; i < 64; ++i) (void)rt::g64(i);
               }),
               hang_error);
}

TEST(Attempt, LibraryBugsAreNotSwallowed) {
  rt::session session;  // no plan armed: fired stays false
  EXPECT_THROW((void)resil::attempt([] { throw std::logic_error("bug"); }),
               std::logic_error);
  EXPECT_THROW(
      (void)resil::attempt([] { throw invalid_argument("precondition"); }),
      invalid_argument);
}

TEST(Attempt, SuccessReturnsNullopt) {
  EXPECT_FALSE(resil::attempt([] {}).has_value());
}

// ---------------------------------------------------------------------------
// Hardening configuration plumbing
// ---------------------------------------------------------------------------

TEST(Hardening, LevelNamesRoundTrip) {
  using resil::hardening_level;
  for (const auto level :
       {hardening_level::off, hardening_level::detectors,
        hardening_level::cfcss, hardening_level::full}) {
    EXPECT_EQ(resil::parse_hardening_level(resil::hardening_level_name(level)),
              level);
  }
  EXPECT_THROW((void)resil::parse_hardening_level("bogus"), invalid_argument);
}

TEST(Hardening, DeriveStageBudgetsScalesGoldenProfile) {
  const auto source = video::make_input(video::input_id::input1, 6);
  rt::counters golden;
  {
    rt::session session;
    (void)app::summarize(*source, app::pipeline_config{});
    golden = session.stats();
  }
  const auto budgets = resil::derive_stage_budgets(golden, 6);
  EXPECT_GE(budgets.extract, 1024u);
  EXPECT_GE(budgets.align, 1024u);
  EXPECT_GE(budgets.composite, 1024u);
  // A generous multiple of the mean per-frame cost, not the whole run.
  EXPECT_LT(budgets.extract, (golden.fn_total(rt::fn::fast_detect) +
                              golden.fn_total(rt::fn::orb_describe)) *
                                 100);

  const auto none = resil::derive_stage_budgets(golden, 0);
  EXPECT_EQ(none.extract, 0u);  // 0 frames -> unlimited budgets
}

TEST(Hardening, SessionPublishesAndRestores) {
  resil_state_guard guard;
  resil::tls = resil::runtime_state{};
  resil::clear_last_run_report();
  resil::hardening_config config;
  config.level = resil::hardening_level::full;
  {
    resil::session session(config);
    EXPECT_TRUE(resil::tls.active);
    EXPECT_TRUE(resil::tls.replicate_composite);
    ASSERT_NE(resil::tls.monitor, nullptr);
    ++resil::tls.report.retries;
  }
  EXPECT_FALSE(resil::tls.active);
  EXPECT_EQ(resil::tls.monitor, nullptr);
  EXPECT_EQ(resil::last_run_report().retries, 1u);
  resil::clear_last_run_report();
  EXPECT_EQ(resil::last_run_report().retries, 0u);
}

// ---------------------------------------------------------------------------
// Hardened pipeline, end to end
// ---------------------------------------------------------------------------

app::pipeline_config hardened_config(const video::video_source& source,
                                     resil::hardening_level level) {
  app::pipeline_config config;
  config.hardening.level = level;
  app::calibrate_hardening(source, config, source.frame_count())
      .apply_to(config.hardening);
  return config;
}

TEST(HardenedPipeline, FaultFreeRunMatchesUnhardenedOutput) {
  const auto source = video::make_input(video::input_id::input1, 8);
  const auto config = hardened_config(*source, resil::hardening_level::full);

  const auto unhardened = app::summarize(*source, app::pipeline_config{});
  const auto hardened = app::summarize(*source, config);
  EXPECT_EQ(hardened.panorama, unhardened.panorama);
  EXPECT_EQ(hardened.stats.frames_stitched, unhardened.stats.frames_stitched);

  // Fault-free: nothing to detect, nothing to recover.
  EXPECT_EQ(hardened.recovery.faults_detected(), 0u);
  EXPECT_EQ(hardened.recovery.retries, 0u);
  EXPECT_EQ(hardened.recovery.frames_degraded, 0u);
  EXPECT_TRUE(hardened.recovery.output_checked);
  EXPECT_EQ(hardened.recovery.output_verdict,
            fault::detection_verdict::clean);
}

TEST(HardenedPipeline, CampaignContainsCrashesAndRecovers) {
  const auto source = video::make_input(video::input_id::input1, 8);
  const auto config = hardened_config(*source, resil::hardening_level::full);

  fault::campaign_config campaign;
  campaign.cls = rt::reg_class::gpr;
  campaign.injections = 60;
  campaign.threads = 1;
  const auto result = fault::run_campaign(
      [&] { return app::summarize(*source, config).panorama; }, campaign);

  const auto& r = result.rates;
  EXPECT_EQ(r.experiments, 60u);
  // Every simulated crash is contained by the frame-level boundary.
  EXPECT_EQ(r.crash_segfault + r.crash_abort, 0u);
  // A healthy share of would-be crashes shows up as detected outcomes.
  EXPECT_GT(r.detected_recovered + r.detected_degraded, 0u);
  // Recovered means recovered: those runs reproduced the golden output, so
  // their records carry detection and retry evidence instead.
  for (const auto& record : result.records) {
    if (record.result == fault::outcome::detected_recovered ||
        record.result == fault::outcome::detected_degraded) {
      EXPECT_GT(record.detections, 0u);
    }
    if (record.result == fault::outcome::masked && record.fired) {
      EXPECT_EQ(record.detections, 0u);
    }
  }
}

TEST(HardenedPipeline, UnhardenedCampaignReportsNoDetections) {
  const auto source = video::make_input(video::input_id::input1, 6);
  fault::campaign_config campaign;
  campaign.cls = rt::reg_class::gpr;
  campaign.injections = 20;
  campaign.threads = 1;
  const auto result = fault::run_campaign(
      [&] {
        return app::summarize(*source, app::pipeline_config{}).panorama;
      },
      campaign);
  EXPECT_EQ(result.rates.detected_recovered, 0u);
  EXPECT_EQ(result.rates.detected_degraded, 0u);
  for (const auto& record : result.records) {
    EXPECT_EQ(record.detections, 0u);
    EXPECT_EQ(record.retries, 0u);
  }
}

/// A source whose frame `k` fails its first `failures` acquisitions and
/// then decodes normally.  The counter is atomic because the clean lane's
/// lookahead makes the first acquisition on the scheduler thread.
class flaky_frame_source final : public video::video_source {
 public:
  flaky_frame_source(const video::video_source& inner, int k, int failures)
      : inner_(inner), k_(k), failures_(failures) {}
  [[nodiscard]] int frame_count() const override {
    return inner_.frame_count();
  }
  [[nodiscard]] int frame_width() const override {
    return inner_.frame_width();
  }
  [[nodiscard]] int frame_height() const override {
    return inner_.frame_height();
  }
  [[nodiscard]] img::image_u8 frame(int index) const override {
    if (index == k_ && attempts_.fetch_add(1) < failures_) {
      throw crash_error(crash_kind::segfault, "flaky frame (test)");
    }
    return inner_.frame(index);
  }

 private:
  const video::video_source& inner_;
  const int k_;
  const int failures_;
  mutable std::atomic<int> attempts_{0};
};

TEST(HardenedPipeline, FrameZeroRetryExhaustionSkipsWithoutDeadReckoning) {
  const auto inner = video::make_input(video::input_id::input1, 6);
  const auto config = hardened_config(*inner, resil::hardening_level::full);
  // Frame 0 fails on every acquisition attempt — the worst case for the
  // recovery ladder, because with no stitched reference there is no motion
  // model to dead-reckon with.
  const flaky_frame_source source(*inner, 0, std::numeric_limits<int>::max());

  const auto result = app::summarize(source, config);
  const auto& recovery = result.recovery;
  // Initial attempt + max_frame_retries re-attempts all contained.
  EXPECT_EQ(recovery.crashes_contained,
            1u + static_cast<std::uint32_t>(
                     config.hardening.max_frame_retries));
  EXPECT_EQ(recovery.retries,
            static_cast<std::uint32_t>(config.hardening.max_frame_retries));
  EXPECT_EQ(recovery.frames_recovered, 0u);
  // The ladder falls past retry straight to skip: no reference frame
  // exists yet, so the dead-reckoning step cannot run.
  EXPECT_EQ(recovery.frames_degraded, 1u);
  EXPECT_EQ(recovery.frames_skipped, 1u);
  EXPECT_EQ(result.stats.frames_discarded, 1);
  // Frame 1 anchors instead and the rest of the clip stitches normally.
  EXPECT_EQ(result.stats.frames_stitched, inner->frame_count() - 1);
  EXPECT_FALSE(result.panorama.empty());
}

TEST(HardenedPipeline, MidClipRetryExhaustionDeadReckonsTheFrame) {
  const auto inner = video::make_input(video::input_id::input2, 6);
  const auto config = hardened_config(*inner, resil::hardening_level::full);
  constexpr int k = 3;
  // The first attempt and every retry fail; the degrade step's own
  // re-acquisition succeeds.
  const flaky_frame_source source(*inner, k,
                                  1 + config.hardening.max_frame_retries);

  const auto result = app::summarize(source, config);
  const auto& recovery = result.recovery;
  EXPECT_EQ(recovery.retries,
            static_cast<std::uint32_t>(config.hardening.max_frame_retries));
  EXPECT_EQ(recovery.frames_recovered, 0u);
  // Degrade step 1: frame k is placed with the last motion model, so
  // nothing is skipped and every frame reaches the canvas.
  EXPECT_EQ(recovery.frames_degraded, 1u);
  EXPECT_EQ(recovery.frames_skipped, 0u);
  EXPECT_EQ(result.stats.frames_stitched, inner->frame_count());
  bool placed_k = false;
  for (const auto& placement : result.placements) {
    placed_k = placed_k || placement.frame_index == k;
  }
  EXPECT_TRUE(placed_k);
}

TEST(HardenedPipeline, LevelFullRecoversARemapStrikeThatIsAnSdcAtCfcss) {
  // Experiment 362 of `vs inject input1 gpr 3000 VS --frames=20`: a GPR
  // strike in remapBilinear.  At level cfcss nothing catches it and the
  // montage comes out wrong.  Level full's composite replica re-warps the
  // patch on the clean lane, the digests differ, and the frame retry
  // reproduces the golden output.  The replica runs hook-free, so the plan
  // addresses the same op at both levels.
  const auto source = video::make_input(video::input_id::input1, 20);
  rt::fault_plan plan;
  plan.cls = rt::reg_class::gpr;
  plan.target = 241296;
  plan.bit = 9;
  plan.reg_id = 10;
  struct run {
    fault::injection_record record;
    img::image_u8 golden;
    img::image_u8 output;
  };
  const auto inject = [&](resil::hardening_level level) {
    const auto config = hardened_config(*source, level);
    run r;
    const fault::workload work = [&] {
      r.output = app::summarize(*source, config).panorama;
      return r.output;
    };
    fault::campaign_config campaign;
    campaign.threads = 1;
    const auto setup = fault::measure_golden(work, campaign);
    r.record = fault::run_one_injection(work, plan, setup.step_budget,
                                        setup.golden);
    r.golden = setup.golden;
    return r;
  };

  const run cfcss = inject(resil::hardening_level::cfcss);
  ASSERT_TRUE(cfcss.record.fired);
  EXPECT_EQ(cfcss.record.fired_scope, rt::fn::remap);
  EXPECT_EQ(cfcss.record.result, fault::outcome::sdc);
  EXPECT_NE(cfcss.output, cfcss.golden);

  const run full = inject(resil::hardening_level::full);
  ASSERT_TRUE(full.record.fired);
  EXPECT_EQ(full.record.fired_scope, rt::fn::remap);
  EXPECT_EQ(full.record.result, fault::outcome::detected_recovered);
  EXPECT_EQ(full.record.replica_divergences, 1u);
  EXPECT_EQ(full.output, full.golden);
  EXPECT_EQ(full.golden, cfcss.golden);
}

}  // namespace
}  // namespace vs
