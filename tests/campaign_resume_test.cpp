// run_campaign starts each experiment at the golden run's checkpoint
// before its target op and stops it once its state rejoins the golden run
// (rt/frame_log.h).  Its records must be exactly those of experiments run
// from the start: run_experiment on a bare measure_golden setup, which
// carries no checkpoints.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>

#include "app/pipeline.h"
#include "app/wp.h"
#include "fault/campaign.h"
#include "gate/gate.h"
#include "rt/frame_log.h"
#include "stitch/compositor.h"
#include "video/generator.h"

namespace vs {
namespace {

constexpr int kFrames = 8;

std::shared_ptr<const video::synthetic_video> clip(video::input_id id) {
  static const auto one = video::make_input(video::input_id::input1, kFrames);
  static const auto two = video::make_input(video::input_id::input2, kFrames);
  return id == video::input_id::input1 ? one : two;
}

fault::workload summarize_workload(video::input_id input,
                                   app::pipeline_config config) {
  return [source = clip(input), config] {
    return app::summarize(*source, config).panorama;
  };
}

app::pipeline_config variant(app::algorithm alg) {
  app::pipeline_config config;
  config.approx.alg = alg;
  config.approx.rfd_drop_fraction = 0.10;
  return config;
}

// Every experiment executes: the liveness roll would otherwise classify
// most FPR strikes without running anything.
fault::campaign_config all_live(rt::reg_class cls, int injections,
                                std::uint64_t seed) {
  fault::campaign_config config;
  config.cls = cls;
  config.injections = injections;
  config.seed = seed;
  config.threads = 4;
  config.keep_sdc_outputs = true;
  config.liveness.gpr_live = 1.0;
  config.liveness.fpr_live = 1.0;
  return config;
}

void expect_same_record(const fault::injection_record& resumed,
                        const fault::injection_record& bare,
                        std::size_t index) {
  SCOPED_TRACE("experiment " + std::to_string(index));
  EXPECT_EQ(resumed.plan.cls, bare.plan.cls);
  EXPECT_EQ(resumed.plan.target, bare.plan.target);
  EXPECT_EQ(resumed.plan.bit, bare.plan.bit);
  EXPECT_EQ(resumed.plan.reg_id, bare.plan.reg_id);
  EXPECT_EQ(resumed.plan.scoped, bare.plan.scoped);
  EXPECT_EQ(resumed.plan.scope, bare.plan.scope);
  EXPECT_EQ(resumed.plan.scope_b, bare.plan.scope_b);
  EXPECT_EQ(resumed.register_live, bare.register_live);
  EXPECT_EQ(resumed.fired, bare.fired);
  EXPECT_EQ(fault::outcome_name(resumed.result),
            fault::outcome_name(bare.result));
  EXPECT_EQ(resumed.fired_scope, bare.fired_scope);
  EXPECT_EQ(resumed.fired_kind, bare.fired_kind);
  EXPECT_EQ(resumed.detections, bare.detections);
  EXPECT_EQ(resumed.replica_divergences, bare.replica_divergences);
  EXPECT_EQ(resumed.retries, bare.retries);
  EXPECT_EQ(resumed.frames_degraded, bare.frames_degraded);
}

// run_campaign's result against run_experiment on a bare setup, on four
// threads (the order of execution never matters).
void expect_equivalent(const fault::workload& work,
                       const fault::campaign_config& config,
                       const fault::campaign_result& campaign) {
  const fault::campaign_setup setup = fault::measure_golden(work, config);
  EXPECT_EQ(campaign.golden, setup.golden);
  const std::size_t n = campaign.records.size();
  ASSERT_EQ(n, static_cast<std::size_t>(config.injections));
  std::vector<fault::injection_record> bare(n);
  std::vector<img::image_u8> faulty(n);
  std::atomic<std::size_t> cursor{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i; (i = cursor.fetch_add(1)) < n;) {
        bare[i] = fault::run_experiment(work, config, setup, i, &faulty[i]);
      }
    });
  }
  for (auto& t : pool) t.join();

  std::size_t sdc_seen = 0;
  for (std::size_t i = 0; i < n; ++i) {
    expect_same_record(campaign.records[i], bare[i], i);
  }
  for (const auto& [index, image] : campaign.sdc_outputs) {
    ++sdc_seen;
    EXPECT_EQ(image, faulty[index]) << "SDC image of experiment " << index;
  }
  std::size_t sdcs = 0;
  for (const auto& record : bare) {
    sdcs += record.result == fault::outcome::sdc ? 1 : 0;
  }
  EXPECT_EQ(sdc_seen, sdcs);
}

// The golden run's boundaries, recorded the way run_campaign records them.
rt::frame_log record_golden(const fault::workload& work) {
  rt::frame_log log;
  rt::session session(&log);
  (void)work();
  return log;
}

// Where the fired flips of a campaign landed, relative to the boundaries.
struct flip_places {
  int prologue = 0;     ///< before the first boundary
  int first_frame = 0;  ///< between boundaries 0 and 1
  int last_frame = 0;   ///< between the last two boundaries
  int after_loop = 0;   ///< after the last boundary
};

void locate_flips(const rt::frame_log& log,
                  const fault::campaign_result& campaign,
                  flip_places& places) {
  const auto& b = log.boundaries;
  ASSERT_GE(b.size(), 3u);
  for (const auto& record : campaign.records) {
    if (!record.fired) continue;
    const auto sites = [&](std::size_t i) {
      return rt::plan_sites(record.plan, b[i].c);
    };
    const std::uint64_t t = record.plan.target;
    if (t < sites(0)) ++places.prologue;
    if (sites(0) <= t && t < sites(1)) ++places.first_frame;
    if (sites(b.size() - 2) <= t && t < sites(b.size() - 1)) {
      ++places.last_frame;
    }
    if (t >= sites(b.size() - 1)) ++places.after_loop;
  }
}

struct sweep_case {
  std::string name;
  fault::workload work;
  fault::campaign_config config;
};

TEST(CampaignResume, SweepMatchesExperimentsRunFromTheStart) {
  using app::algorithm;
  using video::input_id;
  std::vector<sweep_case> sweep;
  std::uint64_t seed = 2018;
  for (const input_id input : {input_id::input1, input_id::input2}) {
    for (const algorithm alg : {algorithm::vs, algorithm::vs_rfd}) {
      for (const rt::reg_class cls : {rt::reg_class::gpr, rt::reg_class::fpr}) {
        sweep.push_back({std::string(video::input_name(input)) + "/" +
                             app::algorithm_name(alg) +
                             (cls == rt::reg_class::gpr ? "/gpr" : "/fpr"),
                         summarize_workload(input, variant(alg)),
                         all_live(cls, 24, ++seed)});
      }
    }
  }
  {
    // --harden=full: CFCSS signatures, replication, detectors and the
    // recovery ladder all hold state across frames.
    app::pipeline_config config = variant(algorithm::vs);
    config.hardening.level = resil::hardening_level::full;
    app::calibrate_hardening(*clip(input_id::input1), config, kFrames)
        .apply_to(config.hardening);
    sweep.push_back({"harden=full", summarize_workload(input_id::input1, config),
                     all_live(rt::reg_class::gpr, 24, ++seed)});
  }
  {
    app::pipeline_config config = variant(algorithm::vs);
    config.gate.request = static_cast<int>(gate::level::all);
    sweep.push_back({"gate=all", summarize_workload(input_id::input1, config),
                     all_live(rt::reg_class::gpr, 24, ++seed)});
  }
  {
    auto config = all_live(rt::reg_class::gpr, 24, ++seed);
    config.scoped = true;
    config.scope = rt::fn::warp;
    sweep.push_back({"scoped warp",
                     summarize_workload(input_id::input2, variant(algorithm::vs)),
                     config});
  }
  {
    // A watchdog at exactly the golden run's steps: every run that gets to
    // the end hangs, so each rejoin must classify as a hang, not masked.
    auto config = all_live(rt::reg_class::gpr, 24, ++seed);
    config.step_budget_factor = 1.0;
    sweep.push_back({"watchdog x1",
                     summarize_workload(input_id::input2, variant(algorithm::vs)),
                     config});
  }
  {
    // Scoped to the unattributed sites: the frame count summarize reads
    // through a control hook before its loop, and one site per frame.
    auto config = all_live(rt::reg_class::gpr, 24, ++seed);
    config.scoped = true;
    config.scope = rt::fn::other;
    config.include_remap_scope = false;
    sweep.push_back({"scoped other",
                     summarize_workload(input_id::input1,
                                        variant(algorithm::vs_rfd)),
                     config});
  }
  {
    // Instrumented work on both sides of summarize: flips before its
    // first boundary and after its last.
    const auto source = clip(input_id::input2);
    const img::image_u8 frame = source->frame(0);
    sweep.push_back(
        {"wp + summarize + wp",
         [source, frame] {
           const img::image_u8 before =
               app::run_wp(frame, app::wp_default_transform());
           const img::image_u8 summary =
               app::summarize(*source, variant(algorithm::vs)).panorama;
           return stitch::montage(
               {before, app::run_wp(summary, app::wp_default_transform())});
         },
         all_live(rt::reg_class::gpr, 24, ++seed)});
  }

  flip_places places;
  for (const auto& c : sweep) {
    SCOPED_TRACE(c.name);
    const auto campaign = fault::run_campaign(c.work, c.config);
    expect_equivalent(c.work, c.config, campaign);
    locate_flips(record_golden(c.work), campaign, places);
  }
  EXPECT_GT(places.prologue, 0);
  EXPECT_GT(places.first_frame, 0);
  EXPECT_GT(places.last_frame, 0);
  EXPECT_GT(places.after_loop, 0);
}

TEST(CampaignResume, WpWorkloadRecordsNoBoundaries) {
  const img::image_u8 frame = clip(video::input_id::input1)->frame(0);
  const fault::workload work = [frame] {
    return app::run_wp(frame, app::wp_default_transform());
  };
  EXPECT_TRUE(record_golden(work).boundaries.empty());
  const auto config = all_live(rt::reg_class::gpr, 40, 5);
  expect_equivalent(work, config, fault::run_campaign(work, config));
}

TEST(CampaignResume, InstrumentedWorkBeforeSummarize) {
  const auto source = clip(video::input_id::input1);
  const img::image_u8 frame = source->frame(3);
  const fault::workload work = [source, frame] {
    const img::image_u8 warped =
        app::run_wp(frame, app::wp_default_transform());
    return stitch::montage(
        {warped,
         app::summarize(*source, variant(app::algorithm::vs)).panorama});
  };
  const rt::frame_log log = record_golden(work);
  ASSERT_EQ(log.boundaries.size(), static_cast<std::size_t>(kFrames + 1));
  EXPECT_GT(log.entry.steps(), 0u);
  const auto config = all_live(rt::reg_class::gpr, 40, 6);
  expect_equivalent(work, config, fault::run_campaign(work, config));
}

TEST(CampaignResume, SummarizeTwiceRecordsNoBoundaries) {
  const auto source = clip(video::input_id::input2);
  const fault::workload work = [source] {
    return stitch::montage(
        {app::summarize(*source, variant(app::algorithm::vs)).panorama,
         app::summarize(*source, variant(app::algorithm::vs_rfd)).panorama});
  };
  const rt::frame_log log = record_golden(work);
  EXPECT_TRUE(log.boundaries.empty());
  EXPECT_EQ(log.recordings, 2);
  const auto config = all_live(rt::reg_class::gpr, 24, 7);
  expect_equivalent(work, config, fault::run_campaign(work, config));
}

TEST(CampaignResume, MiniPanoramaCallbackRunsEveryFrame) {
  const auto source = clip(video::input_id::input1);
  // Callbacks per workload run, in run order (one thread: the golden run
  // first, then each live experiment).  Pushed on unwinding too.
  std::mutex mutex;
  std::vector<int> callbacks;
  const fault::workload work = [&, source] {
    struct count_on_exit {
      std::mutex& mutex;
      std::vector<int>& callbacks;
      int n = 0;
      ~count_on_exit() {
        const std::lock_guard<std::mutex> lock(mutex);
        callbacks.push_back(n);
      }
    } count{mutex, callbacks};
    app::pipeline_config config = variant(app::algorithm::vs);
    config.on_mini_panorama = [&count](int, const img::image_u8&) {
      ++count.n;
    };
    return app::summarize(*source, config).panorama;
  };
  EXPECT_TRUE(record_golden(work).boundaries.empty());
  callbacks.clear();

  auto config = all_live(rt::reg_class::gpr, 24, 8);
  config.threads = 1;
  const auto campaign = fault::run_campaign(work, config);
  ASSERT_EQ(callbacks.size(), campaign.records.size() + 1);
  const int golden = callbacks[0];
  EXPECT_GT(golden, 0);
  for (std::size_t i = 0; i < campaign.records.size(); ++i) {
    if (campaign.records[i].result == fault::outcome::masked) {
      EXPECT_EQ(callbacks[i + 1], golden) << "experiment " << i;
    }
  }
  expect_equivalent(work, config, campaign);
}

}  // namespace
}  // namespace vs
