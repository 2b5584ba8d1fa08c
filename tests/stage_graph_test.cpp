// Stage-graph architecture tests: the registry as the one shared stage
// description, and the frame_executor's scheduling invariant — the summary
// is byte-identical across every (pool width, in-flight depth) combination,
// for both inputs, every approximation variant and hardening off/full, with
// the sequential instrumented lane as the reference.  Plus the regression
// test for recovery retries racing the acquisition prefetch.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>

#include "app/pipeline.h"
#include "core/error.h"
#include "core/thread_pool.h"
#include "pipeline/executor.h"
#include "pipeline/scheduler.h"
#include "pipeline/stage.h"
#include "resil/runtime.h"
#include "rt/instrument.h"
#include "video/generator.h"

namespace vs {
namespace {

using pipeline::budget_key;
using pipeline::stage_id;

// ---------------------------------------------------------------------------
// Registry sanity: the one description every subsystem derives from.
// ---------------------------------------------------------------------------

TEST(StageRegistry, IsInDataflowOrder) {
  const auto registry = pipeline::stage_registry();
  ASSERT_EQ(registry.size(), static_cast<std::size_t>(pipeline::stage_count));
  for (int i = 0; i < pipeline::stage_count; ++i) {
    EXPECT_EQ(static_cast<int>(registry[static_cast<std::size_t>(i)].id), i);
  }
  EXPECT_STREQ(pipeline::stage_name(stage_id::acquire), "acquire");
  EXPECT_STREQ(pipeline::stage_name(stage_id::composite), "composite");
}

TEST(StageRegistry, ScopeOwnershipRoundTrips) {
  for (const auto& stage : pipeline::stage_registry()) {
    for (const rt::fn f : stage.scopes) {
      if (f == rt::fn::count_) continue;
      EXPECT_EQ(pipeline::stage_of(f), stage.id) << rt::fn_name(f);
    }
  }
  // Scopes outside the per-frame graph belong to no stage.
  EXPECT_EQ(pipeline::stage_of(rt::fn::other), stage_id::count_);
}

TEST(StageRegistry, FusedStagesShareTheirPredecessorsBudget) {
  // describe rides inside detect's watchdog scope, estimate inside match's:
  // re-opening would grant corrupted loop bounds a second allowance.
  EXPECT_FALSE(pipeline::stage_info(stage_id::describe).opens_scope);
  EXPECT_EQ(pipeline::stage_info(stage_id::describe).budget,
            pipeline::stage_info(stage_id::detect).budget);
  EXPECT_FALSE(pipeline::stage_info(stage_id::estimate).opens_scope);
  EXPECT_EQ(pipeline::stage_info(stage_id::estimate).budget,
            pipeline::stage_info(stage_id::match).budget);
}

TEST(StageRegistry, BudgetValueSelectsTheMatchingAllowance) {
  resil::stage_budget_config budgets;
  budgets.acquire = 11;
  budgets.extract = 22;
  budgets.align = 33;
  budgets.composite = 44;
  EXPECT_EQ(pipeline::budget_value(budgets, budget_key::acquire), 11u);
  EXPECT_EQ(pipeline::budget_value(budgets, budget_key::extract), 22u);
  EXPECT_EQ(pipeline::budget_value(budgets, budget_key::align), 33u);
  EXPECT_EQ(pipeline::budget_value(budgets, budget_key::composite), 44u);
}

TEST(StageRegistry, DerivedBudgetsFollowTheRegistryGrouping) {
  rt::counters golden{};
  const auto charge = [&](rt::fn f, std::uint64_t ops) {
    golden.by_fn[static_cast<int>(f)][static_cast<int>(rt::op::int_alu)] = ops;
  };
  charge(rt::fn::video_decode, 1000);
  charge(rt::fn::fast_detect, 2000);
  charge(rt::fn::orb_describe, 3000);
  charge(rt::fn::match, 4000);
  charge(rt::fn::ransac, 5000);
  charge(rt::fn::homography, 6000);
  charge(rt::fn::warp, 7000);
  charge(rt::fn::remap, 8000);
  charge(rt::fn::stitch, 9000);
  const auto budgets = resil::derive_stage_budgets(golden, 1, 1.0);
  EXPECT_EQ(budgets.acquire, 1024u);  // floor of max(1024, total * factor)
  EXPECT_EQ(budgets.extract, 5000u);
  EXPECT_EQ(budgets.align, 15000u);
  EXPECT_EQ(budgets.composite, 24000u);
}

// ---------------------------------------------------------------------------
// Golden end-to-end matrix: byte identity across widths and depths.
// ---------------------------------------------------------------------------

constexpr unsigned kWidths[] = {1, 2, 4};
constexpr int kDepths[] = {1, 2, 4};

struct pool_width_guard {
  ~pool_width_guard() { core::thread_pool::set_global_threads(0); }
};

const video::synthetic_video& clip(video::input_id id) {
  static const auto one = video::make_input(video::input_id::input1, 8);
  static const auto two = video::make_input(video::input_id::input2, 8);
  return id == video::input_id::input1 ? *one : *two;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a_value(std::uint64_t h, std::uint64_t v) {
  return fnv1a(h, &v, sizeof(v));
}

/// One 64-bit digest of everything the summary promises to keep
/// byte-identical: the montage, every mini-panorama, every placement and
/// the run statistics.
std::uint64_t summary_hash(const app::summary_result& result) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto hash_image = [&](const img::image_u8& image) {
    h = fnv1a_value(h, static_cast<std::uint64_t>(image.width()));
    h = fnv1a_value(h, static_cast<std::uint64_t>(image.height()));
    h = fnv1a_value(h, static_cast<std::uint64_t>(image.channels()));
    h = fnv1a(h, image.data(), image.size());
  };
  hash_image(result.panorama);
  for (const auto& pano : result.mini_panoramas) hash_image(pano);
  for (const auto& placement : result.placements) {
    h = fnv1a_value(h, static_cast<std::uint64_t>(placement.frame_index));
    h = fnv1a_value(h, static_cast<std::uint64_t>(placement.panorama_index));
    h = fnv1a(h, &placement.frame_to_anchor, sizeof(placement.frame_to_anchor));
  }
  h = fnv1a(h, &result.stats, sizeof(result.stats));
  return h;
}

/// Calibrates a fully-hardened config from a fault-free profiled run,
/// exactly as the campaign drivers do.
app::pipeline_config hardened_config(const video::video_source& source,
                                     app::algorithm alg) {
  app::pipeline_config config;
  config.approx.alg = alg;
  config.hardening.level = resil::hardening_level::full;
  app::calibrate_hardening(source, config, source.frame_count())
      .apply_to(config.hardening);
  return config;
}

void expect_matrix_matches_instrumented_lane(video::input_id id,
                                             bool hardened) {
  const pool_width_guard guard;
  const auto& source = clip(id);
  for (const auto alg : {app::algorithm::vs, app::algorithm::vs_rfd,
                         app::algorithm::vs_kds, app::algorithm::vs_sm}) {
    app::pipeline_config config;
    if (hardened) {
      config = hardened_config(source, alg);
    } else {
      config.approx.alg = alg;
    }

    // Reference: the sequential instrumented lane (depth is ignored there —
    // its hook stream must keep every acquisition inline).
    std::uint64_t reference = 0;
    {
      rt::session session;
      reference = summary_hash(app::summarize(source, config));
    }

    for (const unsigned width : kWidths) {
      core::thread_pool::set_global_threads(width);
      for (const int depth : kDepths) {
        config.frames_in_flight = depth;
        EXPECT_EQ(reference, summary_hash(app::summarize(source, config)))
            << video::input_name(id) << " " << app::algorithm_name(alg)
            << (hardened ? " hardened" : " unhardened") << " width " << width
            << " depth " << depth;
      }
    }
  }
}

/// Same golden contract along the batch axis: the scheduler's batch size
/// is its dispatch pool's width, so at depth 4 every pool width is a batch
/// size.  Each width runs twice — on the executor's private scheduler, and
/// on an external one (pipeline_config::scheduler) — and every cell must
/// reproduce the sequential instrumented-lane digest.
void expect_batch_matrix_matches_instrumented_lane(video::input_id id,
                                                   bool hardened) {
  const pool_width_guard guard;
  const auto& source = clip(id);
  for (const auto alg : {app::algorithm::vs, app::algorithm::vs_rfd,
                         app::algorithm::vs_kds, app::algorithm::vs_sm}) {
    app::pipeline_config config;
    if (hardened) {
      config = hardened_config(source, alg);
    } else {
      config.approx.alg = alg;
    }

    std::uint64_t reference = 0;
    {
      rt::session session;
      reference = summary_hash(app::summarize(source, config));
    }

    config.frames_in_flight = 4;
    for (const unsigned width : kWidths) {
      core::thread_pool::set_global_threads(width);
      const std::string at = std::string(video::input_name(id)) + " " +
                             app::algorithm_name(alg) +
                             (hardened ? " hardened" : " unhardened") +
                             " width " + std::to_string(width);
      config.scheduler = nullptr;
      EXPECT_EQ(reference, summary_hash(app::summarize(source, config)))
          << at << " private scheduler";

      pipeline::stage_scheduler shared(core::thread_pool::global());
      ASSERT_EQ(shared.batch_limit(), static_cast<int>(width));
      config.scheduler = &shared;
      EXPECT_EQ(reference, summary_hash(app::summarize(source, config)))
          << at << " shared scheduler";
      config.scheduler = nullptr;
    }
  }
}

TEST(StageGraphGolden, Input1AllVariantsUnhardened) {
  expect_matrix_matches_instrumented_lane(video::input_id::input1, false);
}

TEST(StageGraphGolden, Input2AllVariantsUnhardened) {
  expect_matrix_matches_instrumented_lane(video::input_id::input2, false);
}

TEST(StageGraphGolden, Input1AllVariantsFullyHardened) {
  expect_matrix_matches_instrumented_lane(video::input_id::input1, true);
}

TEST(StageGraphGolden, Input2AllVariantsFullyHardened) {
  expect_matrix_matches_instrumented_lane(video::input_id::input2, true);
}

TEST(StageGraphGolden, Input1BatchMatrixUnhardened) {
  expect_batch_matrix_matches_instrumented_lane(video::input_id::input1,
                                                false);
}

TEST(StageGraphGolden, Input2BatchMatrixUnhardened) {
  expect_batch_matrix_matches_instrumented_lane(video::input_id::input2,
                                                false);
}

TEST(StageGraphGolden, Input1BatchMatrixFullyHardened) {
  expect_batch_matrix_matches_instrumented_lane(video::input_id::input1, true);
}

TEST(StageGraphGolden, Input2BatchMatrixFullyHardened) {
  expect_batch_matrix_matches_instrumented_lane(video::input_id::input2, true);
}

// ---------------------------------------------------------------------------
// Regression: recovery retry racing the acquisition prefetch.
// ---------------------------------------------------------------------------

/// Wraps a pristine source and throws crash_error from exactly one frame()
/// call for the chosen index — the first one, which under prefetching is
/// the scheduler's.  The second call (the recovery retry) succeeds.
class transient_fault_source final : public video::video_source {
 public:
  transient_fault_source(const video::video_source& inner, int faulty_index)
      : inner_(inner), faulty_index_(faulty_index) {}

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
    if (index == faulty_index_ && !thrown_.exchange(true)) {
      throw crash_error(crash_kind::segfault,
                        "transient acquisition fault (test)");
    }
    return inner_.frame(index);
  }

 private:
  const video::video_source& inner_;
  const int faulty_index_;
  mutable std::atomic<bool> thrown_{false};
};

TEST(StageGraphRecovery, RetryRecomputesAPoisonedPrefetchInline) {
  // Frame 2's prefetch is queued while frame 1 is being stitched at every
  // depth >= 1, and its acquire throws.  At pool width 1 every ticket is a
  // dispatch of its own; the poisoned ticket must be contained at the
  // recovery boundary and recomputed inline, off the queues, rather than
  // swap in a later frame's ticket or re-submit it.
  const pool_width_guard guard;
  const auto& pristine = clip(video::input_id::input1);
  const auto config = hardened_config(pristine, app::algorithm::vs);
  const auto expected = summary_hash(app::summarize(pristine, config));

  core::thread_pool::set_global_threads(1);
  for (const int depth : kDepths) {
    const transient_fault_source source(pristine, 2);
    app::pipeline_config run_config = config;
    run_config.frames_in_flight = depth;
    const auto result = app::summarize(source, run_config);
    EXPECT_EQ(expected, summary_hash(result)) << "depth " << depth;
    EXPECT_GE(result.recovery.crashes_contained, 1u) << "depth " << depth;
    EXPECT_GE(result.recovery.retries, 1u) << "depth " << depth;
    EXPECT_GE(result.recovery.frames_recovered, 1u) << "depth " << depth;
    EXPECT_EQ(result.recovery.frames_degraded, 0u) << "depth " << depth;
  }
}

TEST(StageGraphRecovery, RetryRecomputesAnEvictedBatchedFrameInline) {
  // Same transient fault at pool widths > 1, where frame 2's acquire throws
  // inside a grouped dispatch.  Eviction must poison only that frame's
  // ticket — the rest of the batch completes — and the recovery boundary
  // recomputes the frame inline, leaving the summary byte-identical at
  // every depth x batch size.
  const pool_width_guard guard;
  const auto& pristine = clip(video::input_id::input1);
  const auto config = hardened_config(pristine, app::algorithm::vs);
  const auto expected = summary_hash(app::summarize(pristine, config));

  for (const unsigned width : kWidths) {
    if (width == 1) continue;  // RetryRecomputesAPoisonedPrefetchInline
    core::thread_pool::set_global_threads(width);
    for (const int depth : kDepths) {
      const std::string at =
          "width " + std::to_string(width) + " depth " + std::to_string(depth);
      const transient_fault_source source(pristine, 2);
      app::pipeline_config run_config = config;
      run_config.frames_in_flight = depth;
      const auto result = app::summarize(source, run_config);
      EXPECT_EQ(expected, summary_hash(result)) << at;
      EXPECT_GE(result.recovery.crashes_contained, 1u) << at;
      EXPECT_GE(result.recovery.retries, 1u) << at;
      EXPECT_GE(result.recovery.frames_recovered, 1u) << at;
      EXPECT_EQ(result.recovery.frames_degraded, 0u) << at;
    }
  }
}

TEST(StageGraphRecovery, InstrumentedLaneContainsTheSameTransientFault) {
  // The instrumented lane never prefetches; the same transient fault is
  // contained on its inline path with an identical summary.
  const auto& pristine = clip(video::input_id::input1);
  const auto config = hardened_config(pristine, app::algorithm::vs);
  std::uint64_t expected = 0;
  {
    rt::session session;
    expected = summary_hash(app::summarize(pristine, config));
  }
  const transient_fault_source source(pristine, 2);
  rt::session session;
  const auto result = app::summarize(source, config);
  EXPECT_EQ(expected, summary_hash(result));
  EXPECT_GE(result.recovery.crashes_contained, 1u);
  EXPECT_GE(result.recovery.frames_recovered, 1u);
}

// ---------------------------------------------------------------------------
// Executor unit behaviour.
// ---------------------------------------------------------------------------

TEST(FrameExecutor, InstrumentedLaneNeverOverlaps) {
  rt::session session;
  resil::hardening_config hardening;
  pipeline::frame_executor exec(
      hardening, 8, 4, [](int) { return img::image_u8(2, 2, 1); },
      [](const img::image_u8&) { return feat::frame_features{}; });
  EXPECT_FALSE(exec.overlapping());
}

TEST(FrameExecutor, CleanLaneOverlapsOnlyWithDepthAndFrames) {
  resil::hardening_config hardening;
  const auto acquire = [](int) { return img::image_u8(2, 2, 1); };
  const auto detect = [](const img::image_u8&) {
    return feat::frame_features{};
  };
  EXPECT_TRUE(
      pipeline::frame_executor(hardening, 8, 2, acquire, detect).overlapping());
  EXPECT_FALSE(
      pipeline::frame_executor(hardening, 8, 0, acquire, detect).overlapping());
  EXPECT_FALSE(
      pipeline::frame_executor(hardening, 1, 2, acquire, detect).overlapping());
}

TEST(FrameExecutor, LookaheadIsClampedToTheClip) {
  // Any requested depth, INT_MAX included, clamps to the frame count: the
  // top-up horizon can never overflow, and the summary is byte-identical
  // to the inline run.
  resil::hardening_config hardening;
  std::atomic<int> calls{0};
  pipeline::frame_executor exec(
      hardening, 5, std::numeric_limits<int>::max(),
      [&calls](int index) {
        ++calls;
        return img::image_u8(4, 1, 1, static_cast<std::uint8_t>(index));
      },
      [](const img::image_u8&) { return feat::frame_features{}; });
  EXPECT_EQ(exec.frames_in_flight(), 5);
  for (int index = 0; index < 5; ++index) {
    EXPECT_EQ(exec.obtain(index).frame.at(0, 0),
              static_cast<std::uint8_t>(index));
  }
  EXPECT_EQ(calls.load(), 5);

  const auto& source = clip(video::input_id::input1);
  app::pipeline_config config;
  config.frames_in_flight = 0;
  const auto reference = summary_hash(app::summarize(source, config));
  config.frames_in_flight = std::numeric_limits<int>::max();
  EXPECT_EQ(reference, summary_hash(app::summarize(source, config)));
}

TEST(FrameExecutor, ObtainDrainsSkippedFramesAndConsumesInOrder) {
  // Consumption that skips indices (the RFD drop path) must finish and
  // discard the stale slots, and every consumed frame must be the right one.
  std::atomic<int> calls{0};
  resil::hardening_config hardening;
  pipeline::frame_executor exec(
      hardening, 10, 3,
      [&calls](int index) {
        ++calls;
        return img::image_u8(4, 1, 1, static_cast<std::uint8_t>(index));
      },
      [](const img::image_u8&) { return feat::frame_features{}; });
  for (const int index : {0, 1, 4, 5, 9}) {
    const auto work = exec.obtain(index);
    EXPECT_EQ(work.frame.at(0, 0), static_cast<std::uint8_t>(index))
        << "frame " << index;
  }
  // Every scheduled acquisition ran exactly once: 0 and the prefetches of
  // 1..9 (monotonic top-up never re-schedules a frame).
  EXPECT_EQ(calls.load(), 10);
}

// ---------------------------------------------------------------------------
// Selective replication: registry contracts and the executor's dual checks.
// ---------------------------------------------------------------------------

TEST(StageRegistry, ReplicationContractsMatchProductKinds) {
  // Acquire is the I/O boundary — outside the sphere of replication.
  EXPECT_FALSE(pipeline::stage_info(stage_id::acquire).replicable);
  for (const stage_id s : {stage_id::gate, stage_id::detect,
                           stage_id::describe, stage_id::match,
                           stage_id::estimate, stage_id::composite}) {
    EXPECT_TRUE(pipeline::stage_info(s).replicable)
        << pipeline::stage_name(s);
  }
  EXPECT_EQ(pipeline::replicable_stage_mask() &
                pipeline::stage_bit(stage_id::acquire),
            0u);
  EXPECT_EQ(pipeline::geometry_stage_mask(),
            pipeline::stage_bit(stage_id::estimate));
}

TEST(StageRegistry, ReplicateSpecParsingAndNaming) {
  EXPECT_EQ(pipeline::parse_replicate_stages("off"), 0u);
  EXPECT_EQ(pipeline::parse_replicate_stages(""), 0u);
  EXPECT_EQ(pipeline::parse_replicate_stages("geometry"),
            pipeline::geometry_stage_mask());
  EXPECT_EQ(pipeline::parse_replicate_stages("ALL"),
            pipeline::replicable_stage_mask());
  EXPECT_EQ(pipeline::parse_replicate_stages("match,estimate"),
            pipeline::stage_bit(stage_id::match) |
                pipeline::stage_bit(stage_id::estimate));
  // Canonical names round trip through the parser.
  EXPECT_EQ(pipeline::replicate_stages_name(0), "off");
  EXPECT_EQ(pipeline::replicate_stages_name(pipeline::geometry_stage_mask()),
            "geometry");
  EXPECT_EQ(
      pipeline::replicate_stages_name(pipeline::replicable_stage_mask()),
      "all");
  EXPECT_EQ(pipeline::replicate_stages_name(
                pipeline::parse_replicate_stages("describe,composite")),
            "describe,composite");
  // Acquire is a stage name but not a replicable one.
  EXPECT_THROW((void)pipeline::parse_replicate_stages("acquire"),
               invalid_argument);
  EXPECT_THROW((void)pipeline::parse_replicate_stages("warp"),
               invalid_argument);
}

/// Drives the extraction dual check through the clean lane at `depth` with
/// the verifier disagreeing on the second checked frame — which the
/// scheduler has prefetched by then.  The check runs at the consuming
/// obtain() and its divergence must surface there.
void expect_prefetched_replica_divergence_detected(int depth) {
  // detectors level: containment without the CFCSS monitor, so the
  // executor can be driven directly; the explicit mask turns the
  // extraction dual check on.
  resil::hardening_config hardening;
  hardening.level = resil::hardening_level::detectors;
  hardening.replicate_stages = pipeline::stage_bit(stage_id::detect);
  resil::session session(hardening);

  std::atomic<int> checks{0};
  pipeline::frame_executor exec(
      hardening, 6, depth, [](int) { return img::image_u8(4, 4, 1); },
      [](const img::image_u8&) { return feat::frame_features{}; },
      [&checks](const img::image_u8&, const feat::frame_features&) {
        return ++checks != 2;
      });
  ASSERT_TRUE(exec.overlapping());
  (void)exec.obtain(0);  // inline cold start: check runs and passes
  try {
    (void)exec.obtain(1);  // consumed from a prefetched ticket: diverges
    FAIL() << "replica divergence was not raised";
  } catch (const detected_error& e) {
    EXPECT_EQ(e.kind(), detect_kind::replica_divergence);
  }
  EXPECT_EQ(checks.load(), 2);
  EXPECT_EQ(resil::tls.report.replica_divergences, 1u);
}

TEST(FrameExecutor, ReplicaDivergenceInAPrefetchedStageIsDetected) {
  // Pool width 1: every prefetched ticket is a dispatch of its own.
  const pool_width_guard guard;
  core::thread_pool::set_global_threads(1);
  expect_prefetched_replica_divergence_detected(2);
}

TEST(FrameExecutor, ReplicaDivergenceInABatchedStageIsDetected) {
  // Pool width 4 at depth 4: the checked frame comes out of a grouped
  // dispatch.
  const pool_width_guard guard;
  core::thread_pool::set_global_threads(4);
  expect_prefetched_replica_divergence_detected(4);
}

}  // namespace
}  // namespace vs
