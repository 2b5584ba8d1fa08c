// Stage-graph architecture tests: the registry as the one shared stage
// description, and the frame_executor's scheduling invariant — the summary
// is byte-identical across every (pool width, in-flight depth) combination,
// for both inputs, every approximation variant and hardening off/full, with
// the sequential instrumented lane as the reference.  Plus the regression
// test for recovery retries racing the acquisition prefetch.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <future>
#include <iterator>
#include <latch>
#include <limits>
#include <string>
#include <thread>

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
  // depth >= 1, and its first acquisition throws — in its dispatch, or
  // inline when obtain() withdrew the still-queued ticket.  At pool width 1
  // every ticket is a dispatch of its own; the fault must be contained at
  // the recovery boundary and recomputed inline, off the queue, rather than
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
  // A hardened instrumented run never prefetches; the same transient fault
  // is contained on its inline path with an identical summary.
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

std::size_t live_threads() {
  return static_cast<std::size_t>(std::distance(
      std::filesystem::directory_iterator("/proc/self/task"),
      std::filesystem::directory_iterator{}));
}

/// A stand-in acquisition with fault sites: where it ran, and the hooks
/// it executed, must be exactly what an inline acquisition would give.
img::image_u8 hooked_frame(int index) {
  const rt::scope decode(rt::fn::video_decode);
  img::image_u8 frame(4, 1, 1);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    frame[rt::idx(static_cast<std::int64_t>(i), frame.size())] =
        static_cast<std::uint8_t>(rt::g32(index));
  }
  return frame;
}

feat::frame_features hooked_features(const img::image_u8& frame) {
  const rt::scope detect(rt::fn::fast_detect);
  feat::frame_features out;
  out.keypoints.push_back(
      {static_cast<float>(rt::f64(frame.at(0, 0))), 0.0f, 0.0f, 0.0f});
  out.descriptors.emplace_back();
  return out;
}

/// What probe_lane saw.
struct lane_probe {
  bool overlapping = false;
  int acquired_elsewhere = 0;
  int extracted_ahead = 0;
  bool started_a_thread = false;
};

/// Runs an executor over `frames` frames at depth 4 and reports whether it
/// overlapped, how many acquisitions left the calling thread, how many
/// frames came with their features, and whether a thread was started
/// while it ran.
lane_probe probe_lane(const resil::hardening_config& hardening,
                      int frames = 8) {
  (void)core::thread_pool::global();  // its workers predate the baseline
  const std::size_t before = live_threads();
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> elsewhere{0};
  lane_probe out;
  pipeline::frame_executor exec(
      hardening, frames, 4,
      [&](int index) {
        if (std::this_thread::get_id() != caller) ++elsewhere;
        return hooked_frame(index);
      },
      hooked_features);
  out.overlapping = exec.overlapping();
  for (int index = 0; index < frames; ++index) {
    pipeline::frame_work work = exec.obtain(index);
    if (work.extracted) ++out.extracted_ahead;
    exec.extract(work, hooked_features);
    // A stitch thread that takes a while, so a dispatched ticket is not
    // always withdrawn before the dispatcher gets to it.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  out.started_a_thread = live_threads() != before;
  out.acquired_elsewhere = elsewhere.load();
  return out;
}

void expect_inline(const lane_probe& p) {
  EXPECT_FALSE(p.overlapping);
  EXPECT_EQ(p.acquired_elsewhere, 0);
  EXPECT_EQ(p.extracted_ahead, 0);
  EXPECT_FALSE(p.started_a_thread);
}

TEST(FrameExecutor, ArmedSessionsNeverPrefetch) {
  // Only a counting session (no plan armed or fired, no step budget, an
  // unhardened run) may prefetch on the instrumented lane, and only on a
  // pool at least two wide.  Everything else acquires inline on the
  // calling thread and starts no thread: a fault plan addresses its hooks
  // by their position in the op stream.
  const pool_width_guard guard;
  core::thread_pool::set_global_threads(4);
  const resil::hardening_config unhardened;
  rt::fault_plan never;  // a target no run reaches
  never.target = ~0ULL;
  {
    SCOPED_TRACE("armed plan");
    const rt::session session(never);
    expect_inline(probe_lane(unhardened));
  }
  {
    SCOPED_TRACE("fired plan");
    rt::fault_plan first = never;
    first.target = 0;
    const rt::session session(first);
    (void)rt::g64(0);
    ASSERT_TRUE(session.fired());
    expect_inline(probe_lane(unhardened));
  }
  {
    SCOPED_TRACE("step budget");
    const rt::session session;
    rt::tls.step_budget = std::uint64_t{1} << 40;
    expect_inline(probe_lane(unhardened));
  }
  {
    SCOPED_TRACE("hardened");
    resil::hardening_config hardened;
    hardened.level = resil::hardening_level::detectors;
    const rt::session session;
    expect_inline(probe_lane(hardened));
  }
  {
    SCOPED_TRACE("pool width 1");
    core::thread_pool narrow(1);
    const core::pool_scope scope(narrow);
    const rt::session session;
    expect_inline(probe_lane(unhardened));
  }

  // A counting session on a wider pool prefetches — acquisition and
  // extraction off the calling thread — and its counts are the inline
  // run's.
  rt::counters inline_counts;
  {
    core::thread_pool narrow(1);
    const core::pool_scope scope(narrow);
    const rt::session session;
    (void)probe_lane(unhardened);
    inline_counts = session.stats();
  }
  for (const unsigned width : {2u, 4u}) {
    SCOPED_TRACE("counting session, width " + std::to_string(width));
    core::thread_pool wide(width);
    const core::pool_scope scope(wide);
    const rt::session session;
    const lane_probe p = probe_lane(unhardened, 16);
    EXPECT_TRUE(p.overlapping);
    EXPECT_GT(p.acquired_elsewhere, 0);
    EXPECT_EQ(p.extracted_ahead, p.acquired_elsewhere);
  }
  {
    core::thread_pool wide(4);
    const core::pool_scope scope(wide);
    const rt::session session;
    (void)probe_lane(unhardened);
    EXPECT_TRUE(session.stats() == inline_counts);
  }
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
    EXPECT_EQ(exec.obtain(index).frame.at(0, 0), static_cast<std::uint8_t>(index));
  }
  EXPECT_EQ(calls.load(), 5);

  const auto& source = clip(video::input_id::input1);
  app::pipeline_config config;
  config.frames_in_flight = 0;
  const auto reference = summary_hash(app::summarize(source, config));
  config.frames_in_flight = std::numeric_limits<int>::max();
  EXPECT_EQ(reference, summary_hash(app::summarize(source, config)));
}

img::image_u8 stamped_frame(int index) {
  return img::image_u8(4, 1, 1, static_cast<std::uint8_t>(index));
}

feat::frame_features no_features(const img::image_u8&) { return {}; }

TEST(FrameExecutor, ObtainDrainsSkippedFramesAndConsumesInOrder) {
  // Consumption that skips indices (the RFD drop path) must discard the
  // stale tickets, and every consumed frame must be the right one.
  std::array<std::atomic<int>, 10> acquired{};
  resil::hardening_config hardening;
  {
    pipeline::frame_executor exec(
        hardening, 10, 3,
        [&acquired](int index) {
          ++acquired[static_cast<std::size_t>(index)];
          return stamped_frame(index);
        },
        no_features);
    for (const int index : {0, 1, 4, 5, 9}) {
      EXPECT_EQ(exec.obtain(index).frame.at(0, 0), static_cast<std::uint8_t>(index))
          << "frame " << index;
    }
  }
  // Every consumed frame was acquired exactly once, and a skipped one at
  // most once: a frame is scheduled at most once per run (monotonic
  // top-up), and a withdrawn ticket never runs.
  for (int index = 0; index < 10; ++index) {
    EXPECT_LE(acquired[static_cast<std::size_t>(index)].load(), 1)
        << "frame " << index;
  }
  for (const int index : {0, 1, 4, 5, 9}) {
    EXPECT_EQ(acquired[static_cast<std::size_t>(index)].load(), 1)
        << "frame " << index;
  }
}

/// Parks a scheduler's dispatcher inside another job's frame 0 acquisition
/// until released — at the latest when the hold goes out of scope, so a
/// failing assertion cannot leave the dispatcher parked.
class dispatch_hold {
 public:
  explicit dispatch_hold(pipeline::stage_scheduler& scheduler)
      : ticket_(scheduler.submit(scheduler.attach(), 0, [this] {
          entered_.count_down();
          release_.wait();
          pipeline::prefetched out;
          out.frame = stamped_frame(0xff);
          return out;
        })) {
    entered_.wait();
  }
  ~dispatch_hold() {
    release();
    ticket_.wait();
  }
  dispatch_hold(const dispatch_hold&) = delete;
  dispatch_hold& operator=(const dispatch_hold&) = delete;

  void release() {
    if (released_) return;
    released_ = true;
    release_.count_down();
  }

 private:
  std::latch entered_{1};
  std::latch release_{1};
  bool released_ = false;
  std::future<pipeline::prefetched> ticket_;
};

TEST(FrameExecutor, SkippedQueuedFramesAreNeverAcquired) {
  // The dispatcher is held inside another job's acquisition, so every
  // ticket this executor submits stays queued.  Frames 1 and 2 are skipped
  // (as VS_RFD drops frames after they were scheduled): obtain(3) must
  // withdraw their tickets instead of waiting for them, and acquire frame
  // 3 on its own thread rather than idle behind the held dispatch.  The
  // end-to-end VS_RFD digests at depths 1, 2 and 4 are pinned by the
  // StageGraphGolden matrices.
  core::thread_pool pool(1);
  pipeline::stage_scheduler scheduler(pool);
  std::array<std::atomic<int>, 10> acquired{};
  std::array<std::thread::id, 10> acquired_on{};
  resil::hardening_config hardening;
  pipeline::frame_executor exec(
      hardening, 10, 3,
      [&](int index) {
        const auto at = static_cast<std::size_t>(index);
        ++acquired[at];
        acquired_on[at] = std::this_thread::get_id();
        return stamped_frame(index);
      },
      no_features, {}, &scheduler);
  ASSERT_TRUE(exec.overlapping());
  dispatch_hold hold(scheduler);

  EXPECT_EQ(exec.obtain(0).frame.at(0, 0), 0);  // cold start: inline
  // obtain(3) runs on a helper thread so that waiting behind the held
  // dispatch fails the test instead of hanging it.
  std::thread::id consumer;
  auto skipped = std::async(std::launch::async, [&] {
    consumer = std::this_thread::get_id();
    return exec.obtain(3);
  });
  const bool returned = skipped.wait_for(std::chrono::seconds(30)) ==
                        std::future_status::ready;
  EXPECT_TRUE(returned) << "obtain(3) waited behind the held dispatch";
  if (returned) {
    EXPECT_EQ(scheduler.stats().withdrawn, 3u);  // frames 1, 2 and 3
  }
  hold.release();
  EXPECT_EQ(skipped.get().frame.at(0, 0), 3);
  EXPECT_EQ(acquired_on[3], consumer);
  for (const int index : {4, 5, 6, 8}) {
    EXPECT_EQ(exec.obtain(index).frame.at(0, 0), static_cast<std::uint8_t>(index))
        << "frame " << index;
  }
  EXPECT_EQ(acquired[1].load(), 0);
  EXPECT_EQ(acquired[2].load(), 0);
  for (const int index : {0, 3, 4, 5, 6, 8}) {
    EXPECT_EQ(acquired[static_cast<std::size_t>(index)].load(), 1)
        << "frame " << index;
  }
  EXPECT_LE(acquired[7].load(), 1);
}

TEST(FrameExecutor, ExtractionRunsOnTheObtainingThread) {
  // Only acquisition is prefetched: at pool widths 1 and 4 every detect_fn
  // call — the frame body's extraction and the executor's own
  // recompute-and-compare replica check — runs on the thread that calls
  // obtain(), never on the dispatcher or a pool worker.
  const pool_width_guard guard;
  resil::hardening_config hardening;
  hardening.level = resil::hardening_level::detectors;
  hardening.replicate_stages = pipeline::stage_bit(stage_id::detect);
  resil::session session(hardening);
  const std::thread::id stitch_thread = std::this_thread::get_id();
  for (const unsigned width : {1u, 4u}) {
    core::thread_pool::set_global_threads(width);
    std::atomic<int> calls{0};
    std::atomic<int> elsewhere{0};
    const auto detect = [&](const img::image_u8&) {
      ++calls;
      if (std::this_thread::get_id() != stitch_thread) ++elsewhere;
      return feat::frame_features{};
    };
    constexpr int kFrames = 12;
    pipeline::frame_executor exec(hardening, kFrames, 4, stamped_frame,
                                  detect);
    ASSERT_TRUE(exec.overlapping());
    for (int index = 0; index < kFrames; ++index) {
      pipeline::frame_work work = exec.obtain(index);
      exec.extract(work, detect);
    }
    EXPECT_EQ(calls.load(), 2 * kFrames) << "width " << width;
    EXPECT_EQ(elsewhere.load(), 0) << "width " << width;
  }
}

TEST(FrameExecutor, ExtractionFaultsFailInlineAtTheStitchPoint) {
  // Extraction is never part of a prefetch ticket: a throwing extractor
  // fails inside extract() on the calling thread, where the recovery
  // boundary contains it like any inline stage, and the acquisition queue
  // evicts nothing.
  core::thread_pool pool(2);
  pipeline::stage_scheduler scheduler(pool);
  resil::hardening_config hardening;
  pipeline::frame_executor exec(hardening, 4, 2, stamped_frame, no_features,
                                {}, &scheduler);
  (void)exec.obtain(0);
  pipeline::frame_work work = exec.obtain(1);
  EXPECT_EQ(work.frame.at(0, 0), 1);
  EXPECT_THROW(exec.extract(work,
                            [](const img::image_u8&) -> feat::frame_features {
                              throw detected_error(
                                  detect_kind::replica_divergence,
                                  "extraction fault (test)");
                            }),
               detected_error);
  EXPECT_EQ(exec.obtain(2).frame.at(0, 0), 2);
  EXPECT_EQ(scheduler.stats().evicted, 0u);
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
/// the verifier disagreeing on the second checked frame — whose acquisition
/// the scheduler has prefetched by then.  The check runs in the frame
/// body's extract() at the stitch point, right after obtain() hands the
/// frame over, and its divergence must surface there.
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
      no_features,
      [&checks](const img::image_u8&, const feat::frame_features&) {
        return ++checks != 2;
      });
  ASSERT_TRUE(exec.overlapping());
  const auto obtain_and_extract = [&exec](int index) {
    pipeline::frame_work work = exec.obtain(index);
    exec.extract(work, no_features);
  };
  obtain_and_extract(0);  // inline cold start: check runs and passes
  try {
    obtain_and_extract(1);  // a prefetched frame: its check diverges
    FAIL() << "replica divergence was not raised";
  } catch (const detected_error& e) {
    EXPECT_EQ(e.kind(), detect_kind::replica_divergence);
  }
  EXPECT_EQ(checks.load(), 2);
  EXPECT_EQ(resil::tls.report.replica_divergences, 1u);
}

TEST(FrameExecutor, ReplicaDivergenceInAPrefetchedStageIsDetected) {
  // Pool width 1: every prefetched acquisition is a dispatch of its own.
  const pool_width_guard guard;
  core::thread_pool::set_global_threads(1);
  expect_prefetched_replica_divergence_detected(2);
}

TEST(FrameExecutor, ReplicaDivergenceInABatchedStageIsDetected) {
  // Pool width 4 at depth 4: the checked frame's acquisition may come out
  // of a grouped dispatch; its extraction still runs at the stitch point.
  const pool_width_guard guard;
  core::thread_pool::set_global_threads(4);
  expect_prefetched_replica_divergence_detected(4);
}

}  // namespace
}  // namespace vs
