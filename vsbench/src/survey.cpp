#include <algorithm>
#include <array>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string_view>

#include "common.h"
#include "host.h"
#include "perf/profiler.h"
#include "pins.h"
#include "quality/metric.h"
#include "replay.h"
#include "rt/instrument.h"
#include "workloads.h"

namespace vsbench {

using vs::img::image_u8;
using vs::video::input_id;

const survey_spec& survey_smooth() {
  static const survey_spec spec{
      "survey-smooth", {{input_id::input2, 40}}, vs::gate::level::off, 12};
  return spec;
}

// Input 3 clips are twice as long as Input 1 clips because a gated
// low-texture frame costs about half a busy one: both inputs then cost about
// the same per call, so the clip latency distribution has one mode and its
// p50 and p90 do not flip between the two inputs' clusters.
const survey_spec& survey_gated() {
  static const survey_spec spec{"survey-gated",
                                {{input_id::input1, 40}, {input_id::input3, 80}},
                                vs::gate::level::all,
                                8};
  return spec;
}

std::vector<clip_key> draw_clips(const survey_spec& spec, std::uint64_t seed) {
  std::vector<std::vector<int>> drawn;
  for (const auto& in : spec.inputs) {
    std::vector<int> replicas(static_cast<std::size_t>(spec.replicas));
    std::iota(replicas.begin(), replicas.end(), 0);
    seeded_shuffle(replicas, stream_seed(seed, spec.name +
                                                   vs::video::input_name(
                                                       in.input)));
    drawn.push_back(std::move(replicas));
  }
  std::vector<clip_key> clips;
  for (std::size_t k = 0; k < static_cast<std::size_t>(spec.replicas); ++k) {
    for (std::size_t i = 0; i < spec.inputs.size(); ++i) {
      clips.push_back({spec.inputs[i].input, spec.inputs[i].frames,
                       drawn[i][k]});
    }
  }
  return clips;
}

vs::app::pipeline_config survey_config(const survey_spec& spec) {
  vs::app::pipeline_config config;
  config.gate.request = static_cast<int>(spec.gate);
  return config;
}

std::string survey_pin_key(const survey_spec& spec, const clip_key& clip) {
  return strf("%s/r%d/f%d/gate=%s", vs::video::input_name(clip.input),
              clip.replica, clip.frames, vs::gate::level_name(spec.gate));
}

namespace {

using clip_ptr = std::shared_ptr<const vs::video::synthetic_video>;

/// The clips of one run plus the digest each montage must have.
struct clip_set {
  std::vector<clip_key> keys;
  std::vector<clip_ptr> clips;
  std::vector<std::string> expected;
};

clip_set load_clip_set(const survey_spec& spec, const run_options& options,
                       double& setup_s) {
  clip_set set;
  set.keys = draw_clips(spec, options.seed);
  const pin_table pins =
      pin_table::load(pin_path(options.pins_dir, spec.name));
  for (const auto& key : set.keys) {
    const auto expected = pins.find(survey_pin_key(spec, key));
    if (!expected) {
      throw std::runtime_error("no pinned reference for " +
                               survey_pin_key(spec, key));
    }
    set.expected.push_back(*expected);
  }
  // Set-up a user pays: synthesizing the clips.  Repeated so the reported
  // figure is a median.
  setup_s = median_seconds(3, [&](int) {
    set.clips.clear();
    for (const auto& key : set.keys) {
      set.clips.push_back(
          vs::video::make_input(key.input, key.frames, key.replica));
    }
  });
  return set;
}

/// Counts one summarized clip and whether its montage matches the pin.
struct checker {
  const survey_spec& spec;
  const clip_set& set;
  run_result& result;

  void operator()(std::size_t clip, const image_u8& panorama) {
    ++result.attempted;
    if (hex64(vs::img::digest(panorama)) != set.expected[clip]) {
      ++result.failed;
      result.line("MISMATCH " + survey_pin_key(spec, set.keys[clip]) +
                  ": montage " + hex64(vs::img::digest(panorama)) +
                  ", pinned " + set.expected[clip]);
    }
  }
};

void untraced_survey(const survey_spec& spec, const run_options& options,
                     const clip_set& set, double setup_s, run_result& r) {
  const auto config = survey_config(spec);
  checker check{spec, set, r};
  // Warm-up (untimed): lazy pool start-up and first-touch allocation.
  check(0, vs::app::summarize(*set.clips[0], config).panorama);

  std::vector<double> call_ms;
  double frames = 0.0;
  const auto start_loop = bench_clock::now();
  const auto deadline =
      start_loop + std::chrono::duration<double>(options.seconds);
  for (std::size_t i = 0; bench_clock::now() < deadline; ++i) {
    const std::size_t clip = i % set.clips.size();
    const auto start = bench_clock::now();
    const auto result = vs::app::summarize(*set.clips[clip], config);
    call_ms.push_back(ms_between(start, bench_clock::now()));
    frames += set.clips[clip]->frame_count();
    check(clip, result.panorama);
  }
  const double wall_s = ms_between(start_loop, bench_clock::now()) / 1000.0;
  const auto lat = summarize_latency(call_ms);
  r.add("setup_s", setup_s, "s");
  r.add("ops_per_s", static_cast<double>(call_ms.size()) / wall_s, "1/s");
  r.add("frames_per_s", frames / wall_s, "1/s");
  r.add("call_ms_p50", lat.p50, "ms");
  r.add("call_ms_p90", lat.p90, "ms");
  r.add("peak_rss_mb", peak_rss_mb_self(), "MB");
  r.line(strf("clip_ms (one app::summarize call): p50 %.3f  p90 %.3f  "
              "n=%zu  p90 %s",
              lat.p50, lat.p90, lat.n,
              lat.p90_valid ? "valid" : "INVALID (<10 samples beyond)"));
}

/// Per-clip layer totals of one replay.
struct replay_sample {
  double wall_ms = 0.0;
  std::array<double, layer_count> layer_ms{};
  double composite_ms = 0.0;  ///< add_frame spans
  double close_ms = 0.0;      ///< render + montage spans
};

bool is_call(const span_recorder::span& s, const char* name) {
  return std::string_view(s.call) == name;
}

void traced_survey(const survey_spec& spec, const run_options& options,
                   const clip_set& set, run_result& r) {
  const auto config = survey_config(spec);
  checker check{spec, set, r};
  const auto budget = std::chrono::duration<double>(options.seconds);
  const std::size_t n_clips = set.clips.size();

  // --- video: a timing decorator on the source, every thread -------------
  std::vector<double> frame_ms;
  double frames_acquired = 0.0;
  int decorated = 0;
  {
    const auto deadline = bench_clock::now() + budget * 0.25;
    for (std::size_t i = 0; bench_clock::now() < deadline; ++i) {
      const timed_source source(*set.clips[i % n_clips]);
      check(i % n_clips, vs::app::summarize(source, config).panorama);
      const auto samples = source.frame_ms();
      frames_acquired += static_cast<double>(samples.size());
      frame_ms.insert(frame_ms.end(), samples.begin(), samples.end());
      ++decorated;
    }
  }
  r.add("video.frames", frames_acquired / std::max(decorated, 1), "count");
  r.add("video.frame_ms", median(frame_ms), "ms");

  // --- pipeline: what the prefetch overlap saves, and what the executor
  // --- spine costs over the bare layer calls (same clip, back to back) ----
  {
    auto sequential = config;
    sequential.frames_in_flight = 0;
    std::vector<double> seq_ms;
    std::vector<double> overlap_ms;
    std::vector<double> bare_ms;
    const auto deadline = bench_clock::now() + budget * 0.25;
    for (std::size_t i = 0; bench_clock::now() < deadline; ++i) {
      const std::size_t clip = i % n_clips;
      auto start = bench_clock::now();
      const auto a = vs::app::summarize(*set.clips[clip], sequential);
      seq_ms.push_back(ms_between(start, bench_clock::now()));
      start = bench_clock::now();
      const auto b = vs::app::summarize(*set.clips[clip], config);
      overlap_ms.push_back(ms_between(start, bench_clock::now()));
      span_recorder spans;
      start = bench_clock::now();
      const auto c = replay_summarize(*set.clips[clip], config, spans);
      bare_ms.push_back(ms_between(start, bench_clock::now()));
      check(clip, a.panorama);
      check(clip, b.panorama);
      check(clip, c.panorama);
    }
    r.add("pipeline.overlap_ms", median(seq_ms) - median(overlap_ms), "ms");
    r.add("pipeline.spine_ms", median(seq_ms) - median(bare_ms), "ms");
    r.line(strf("pipeline: clip p50 %.3f ms at frames_in_flight=0, %.3f ms "
                "at the default %d, %.3f ms as bare layer calls (replay); "
                "n=%zu each",
                median(seq_ms), median(overlap_ms), config.frames_in_flight,
                median(bare_ms), seq_ms.size()));
  }

  // --- replay: one span per layer call ------------------------------------
  std::vector<replay_sample> samples;
  vs::app::run_stats totals;
  replay_counts counts;
  {
    const auto deadline = bench_clock::now() + budget * 0.5;
    for (std::size_t i = 0; bench_clock::now() < deadline; ++i) {
      const std::size_t clip = i % n_clips;
      span_recorder spans;
      const auto start = bench_clock::now();
      const auto replayed = replay_summarize(*set.clips[clip], config, spans);
      replay_sample s;
      s.wall_ms = ms_between(start, bench_clock::now());
      s.layer_ms = spans.layer_ms();
      for (const auto& span : spans.spans()) {
        const double ms = span.end_ms - span.start_ms;
        if (is_call(span, "add_frame")) s.composite_ms += ms;
        if (is_call(span, "render") || is_call(span, "montage")) {
          s.close_ms += ms;
        }
      }
      samples.push_back(s);
      check(clip, replayed.panorama);
      const auto& st = replayed.stats;
      totals.frames_total += st.frames_total;
      totals.frames_gated_skip += st.frames_gated_skip;
      totals.frames_gated_delta += st.frames_gated_delta;
      totals.mini_panoramas += st.mini_panoramas;
      totals.keypoints_detected += st.keypoints_detected;
      totals.keypoints_reused += st.keypoints_reused;
      totals.total_matches += st.total_matches;
      counts.align_attempts += replayed.counts.align_attempts;
      counts.align_failures += replayed.counts.align_failures;
      counts.inliers += replayed.counts.inliers;
      counts.add_frames += replayed.counts.add_frames;
      counts.canvas_mpix += replayed.counts.canvas_mpix;
    }
  }
  const double n = static_cast<double>(samples.size());
  const auto per_clip = [&](auto field) {
    std::vector<double> v;
    for (const auto& s : samples) v.push_back(field(s));
    return median(std::move(v));
  };
  const auto layer_median = [&](layer l) {
    return per_clip([l](const replay_sample& s) {
      return s.layer_ms[static_cast<int>(l)];
    });
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  r.add("gate.busy_ms", layer_median(layer::gate), "ms");
  r.add("gate.skip_ratio", ratio(totals.frames_gated_skip, totals.frames_total),
        "ratio");
  r.add("gate.delta_ratio",
        ratio(totals.frames_gated_delta, totals.frames_total), "ratio");
  r.add("gate.keypoints_reused",
        static_cast<double>(totals.keypoints_reused) / n, "count");
  r.add("features.busy_ms", layer_median(layer::features), "ms");
  r.add("features.keypoints",
        static_cast<double>(totals.keypoints_detected) / n, "count");
  r.add("match.busy_ms", layer_median(layer::match), "ms");
  r.add("match.matches", static_cast<double>(totals.total_matches) / n,
        "count");
  r.add("geometry.busy_ms", layer_median(layer::geometry), "ms");
  r.add("geometry.inlier_ratio",
        ratio(static_cast<double>(counts.inliers),
              static_cast<double>(totals.total_matches)),
        "ratio");
  r.add("geometry.align_fail_ratio",
        ratio(counts.align_failures, counts.align_attempts), "ratio");
  r.add("stitch.composite_ms",
        per_clip([](const replay_sample& s) { return s.composite_ms; }), "ms");
  r.add("stitch.canvas_mpix", ratio(counts.canvas_mpix, counts.add_frames),
        "Mpix");
  r.add("stitch.close_ms",
        per_clip([](const replay_sample& s) { return s.close_ms; }), "ms");
  r.add("stitch.minis", totals.mini_panoramas / n, "count");

  // --- attribution table --------------------------------------------------
  double wall_total = 0.0;
  std::array<double, layer_count> layer_total{};
  for (const auto& s : samples) {
    wall_total += s.wall_ms;
    for (int l = 0; l < layer_count; ++l) layer_total[l] += s.layer_ms[l];
  }
  const double covered =
      std::accumulate(layer_total.begin(), layer_total.end(), 0.0);
  const double unexplained = ratio(wall_total - covered, wall_total);
  r.add("replay.unexplained_share", unexplained, "ratio");

  r.line(strf("attribution over %zu replayed clips (replay p50 %.3f ms/clip):",
              samples.size(),
              per_clip([](const replay_sample& s) { return s.wall_ms; })));
  r.line(strf("  %-12s %12s %8s", "layer", "p50 ms/clip", "share"));
  for (int l = 0; l < layer_count; ++l) {
    r.line(strf("  %-12s %12.3f %7.1f%%", layer_name(static_cast<layer>(l)),
                layer_median(static_cast<layer>(l)),
                100.0 * ratio(layer_total[l], wall_total)));
  }
  r.line(strf("  %-12s %12s %7.1f%%", "unexplained", "", 100.0 * unexplained));

  // --- modelled Fig 8 shares on the instrumented lane ---------------------
  {
    vs::rt::session session;
    (void)vs::app::summarize(*set.clips[0], config);
    const auto counters = session.stats();
    const auto stages = vs::perf::stage_profile(counters);
    const auto functions = vs::perf::function_profile(counters);
    r.line("modelled Fig 8 shares (instrumented lane, op-count cycles, " +
           survey_pin_key(spec, set.keys[0]) + "):");
    for (const auto& e : stages) {
      r.line(strf("  %-12s %7.1f%%",
                  e.stage == vs::pipeline::stage_id::count_
                      ? "(no stage)"
                      : vs::pipeline::stage_name(e.stage),
                  100.0 * e.fraction));
    }
    const double measured_composite = ratio(
        std::accumulate(samples.begin(), samples.end(), 0.0,
                        [](double acc, const replay_sample& s) {
                          return acc + s.composite_ms;
                        }),
        wall_total);
    r.line(strf("  warpPerspective (modelled): %.1f%% of cycles; measured "
                "add_frame (warp+blend+feather): %.1f%% of wall time; "
                "paper: ~54%%",
                100.0 * vs::perf::warp_fraction(functions),
                100.0 * measured_composite));
  }

  // --- quality cost of gating, against the same clip gate-off -------------
  if (spec.gate != vs::gate::level::off) {
    auto reference = config;
    reference.gate.request = static_cast<int>(vs::gate::level::off);
    double sum = 0.0;
    for (std::size_t clip = 0; clip < n_clips; ++clip) {
      const auto off = vs::app::summarize(*set.clips[clip], reference);
      const auto gated = vs::app::summarize(*set.clips[clip], config);
      check(clip, gated.panorama);
      sum += vs::quality::compare_images(off.panorama, gated.panorama)
                 .relative_l2_norm;
    }
    r.add("gate.quality_rel_l2", sum / static_cast<double>(n_clips), "%");
  }
}

}  // namespace

run_result run_survey(const survey_spec& spec, const run_options& options) {
  run_result r;
  double setup_s = 0.0;
  const clip_set set = load_clip_set(spec, options, setup_s);
  std::string clips;
  for (const auto& key : set.keys) {
    if (!clips.empty()) clips += ' ';
    clips += survey_pin_key(spec, key);
  }
  r.line("clips: " + clips);
  if (options.trace) {
    traced_survey(spec, options, set, r);
  } else {
    untraced_survey(spec, options, set, setup_s, r);
  }
  return r;
}

void pin_survey(const survey_spec& spec, const run_options& options) {
  // The sequential reference: pool width 1 (set for every run), no frame
  // lookahead.
  auto config = survey_config(spec);
  config.frames_in_flight = 0;
  pin_table pins;
  for (const auto& in : spec.inputs) {
    for (int replica = 0; replica < spec.replicas; ++replica) {
      const clip_key key{in.input, in.frames, replica};
      const auto clip = vs::video::make_input(in.input, in.frames, replica);
      const auto result = vs::app::summarize(*clip, config);
      pins.set(survey_pin_key(spec, key),
               hex64(vs::img::digest(result.panorama)));
    }
  }
  pins.save(pin_path(options.pins_dir, spec.name),
            spec.name + ": img::digest of each clip's montage, from the\n"
            "sequential reference (pool width 1, frames_in_flight=0).\n"
            "Regenerate: python3 vsbench/run.py --pin " + spec.name);
}

}  // namespace vsbench
