// The benchmark's own unit tests: order statistics on known samples, and
// the traced replay reproducing app::summarize byte for byte.
//
//   cmake -S vsbench -B .bench_build -DVSBENCH_TESTS=ON
//   cmake --build .bench_build --target vsbench_test && .bench_build/vsbench_test
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "replay.h"
#include "stats.h"
#include "workloads.h"

namespace vsbench {
namespace {

TEST(Stats, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.5}), 7.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, NearestRankPercentileIsASample) {
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);  // unsorted 1..10
  EXPECT_DOUBLE_EQ(percentile(v, 0.9), 9.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.1), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile({42.0}, 0.9), 42.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0.9), 0.0);
  // 1..1000: the 900th smallest value.
  std::vector<double> big;
  for (int i = 1; i <= 1000; ++i) big.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(big, 0.9), 900.0);
}

TEST(Stats, TailRuleNeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(samples_beyond(99, 0.9), 9u);
  EXPECT_EQ(samples_beyond(1000, 0.9), 100u);
  EXPECT_EQ(samples_beyond(0, 0.9), 0u);
  EXPECT_TRUE(tail_valid(100, 0.9));
  EXPECT_FALSE(tail_valid(99, 0.9));
  EXPECT_FALSE(tail_valid(10, 0.9));
}

TEST(Stats, SummarizeLatency) {
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  const auto s = summarize_latency(v);
  EXPECT_EQ(s.n, 200u);
  EXPECT_DOUBLE_EQ(s.p50, 100.5);
  EXPECT_DOUBLE_EQ(s.p90, 180.0);
  EXPECT_TRUE(s.p90_valid);
}

TEST(Workloads, ClipDrawIsSeededAndCoversThePool) {
  const auto& spec = survey_gated();
  const auto a = draw_clips(spec, 5);
  const auto b = draw_clips(spec, 5);
  ASSERT_EQ(a.size(), spec.inputs.size() * spec.replicas);
  std::set<std::string> keys;
  int input1 = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].input, b[i].input);
    EXPECT_EQ(a[i].replica, b[i].replica);
    EXPECT_LT(a[i].replica, spec.replicas);
    keys.insert(survey_pin_key(spec, a[i]));
    input1 += a[i].input == vs::video::input_id::input1 ? 1 : 0;
  }
  EXPECT_EQ(keys.size(), a.size());  // every replica exactly once
  EXPECT_EQ(input1, spec.replicas);
  bool differs = false;
  for (std::uint64_t seed = 6; seed < 10 && !differs; ++seed) {
    const auto c = draw_clips(spec, seed);
    for (std::size_t i = 0; i < a.size(); ++i) {
      differs = differs || c[i].replica != a[i].replica;
    }
  }
  EXPECT_TRUE(differs);
}

/// Replays one short clip and summarizes it directly; both must agree on
/// the montage bytes and on every counter the replay keeps.
void expect_replay_matches(const survey_spec& spec, vs::video::input_id input,
                           int replica) {
  const auto clip = vs::video::make_input(input, 16, replica);
  const auto config = survey_config(spec);
  span_recorder spans;
  const auto replayed = replay_summarize(*clip, config, spans);
  const auto direct = vs::app::summarize(*clip, config);
  EXPECT_EQ(vs::img::digest(replayed.panorama),
            vs::img::digest(direct.panorama));
  const auto& a = replayed.stats;
  const auto& b = direct.stats;
  EXPECT_EQ(a.frames_total, b.frames_total);
  EXPECT_EQ(a.frames_stitched, b.frames_stitched);
  EXPECT_EQ(a.frames_discarded, b.frames_discarded);
  EXPECT_EQ(a.homography_alignments, b.homography_alignments);
  EXPECT_EQ(a.affine_alignments, b.affine_alignments);
  EXPECT_EQ(a.mini_panoramas, b.mini_panoramas);
  EXPECT_EQ(a.frames_gated_skip, b.frames_gated_skip);
  EXPECT_EQ(a.frames_gated_delta, b.frames_gated_delta);
  EXPECT_EQ(a.keypoints_detected, b.keypoints_detected);
  EXPECT_EQ(a.keypoints_matched_on, b.keypoints_matched_on);
  EXPECT_EQ(a.total_matches, b.total_matches);
  EXPECT_EQ(a.keypoints_reused, b.keypoints_reused);
  EXPECT_FALSE(spans.spans().empty());
}

TEST(Replay, MatchesSummarizeOnSurveySmooth) {
  expect_replay_matches(survey_smooth(), vs::video::input_id::input2, 1);
}

TEST(Replay, MatchesSummarizeOnSurveyGated) {
  expect_replay_matches(survey_gated(), vs::video::input_id::input1, 2);
  expect_replay_matches(survey_gated(), vs::video::input_id::input3, 2);
}

TEST(Replay, RejectsConfigurationsItDoesNotCover) {
  const auto clip = vs::video::make_input(vs::video::input_id::input2, 4);
  auto config = survey_config(survey_smooth());
  config.approx.alg = vs::app::algorithm::vs_kds;
  span_recorder spans;
  EXPECT_THROW((void)replay_summarize(*clip, config, spans),
               std::invalid_argument);
}

TEST(Metrics, CataloguesHaveUniqueNames) {
  std::set<std::string> names;
  for (const auto& [name, unit] : end_to_end_metrics()) names.insert(name);
  for (const auto& [name, unit] : per_layer_metrics()) names.insert(name);
  EXPECT_EQ(names.size(),
            end_to_end_metrics().size() + per_layer_metrics().size());
  EXPECT_TRUE(names.count("setup_s"));
}

}  // namespace
}  // namespace vsbench
