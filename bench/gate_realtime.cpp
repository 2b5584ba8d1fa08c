// Real-time gating sweep: what each gate level (src/gate/) buys the clean-
// lane summarizer, and what it costs in montage quality, across the three
// scenario inputs.
//
// Gating can skip analysis but never acquisition, so the sweep times the
// two apart.  Each round renders the clip once into a video::frame_list
// (acquire ms), then times app::summarize over those pre-rendered frames at
// every level, off first.  A level's speedup is the per-round ratio
// off / level over kRounds interleaved pairs, so machine drift cancels pair
// by pair; the whole-clip ratio (acquire + off) / (acquire + level) is
// reported beside it.  The off run is byte-checked against a default-config
// run over the on-demand source: gating is pay-only-if-armed, and
// pre-rendering must not change a byte.  Quality is the paper's relative L2
// of each level's montage against the off montage.
//
// Emits BENCH_gate.json through benchutil::bench_report.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "gate/gate.h"
#include "perf/latency.h"
#include "quality/metric.h"

namespace {

using namespace vs;

/// Interleaved off/level pairs per input: the sample count behind every
/// speedup row and the ci/bench_floor.json gating floor.
constexpr int kRounds = 10;

using clock_type = std::chrono::steady_clock;

double ms_since(clock_type::time_point start) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - start)
      .count();
}

video::frame_list render(const video::video_source& source) {
  std::vector<img::image_u8> frames;
  frames.reserve(static_cast<std::size_t>(source.frame_count()));
  for (int i = 0; i < source.frame_count(); ++i) {
    frames.push_back(source.frame(i));
  }
  return video::frame_list(std::move(frames));
}

double summarize_ms(const video::video_source& source,
                    const app::pipeline_config& config) {
  const auto start = clock_type::now();
  const auto result = app::summarize(source, config);
  const double ms = ms_since(start);
  if (result.panorama.empty()) std::fprintf(stderr, "empty panorama?\n");
  return ms;
}

double median(const std::vector<double>& samples) {
  return perf::percentile(samples, 0.5);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = benchutil::parse_options(argc, argv);
  // Gating amortizes over temporal redundancy: short clips under-state it,
  // so the default sweep runs longer clips than the campaign harnesses.
  const int frames = opts.quick ? 24 : std::max(opts.frames, 120);
  const std::vector<gate::level> levels = {
      gate::level::off, gate::level::skip, gate::level::roi,
      gate::level::cache, gate::level::all};

  benchutil::bench_report report("gate");
  for (const auto input : benchutil::all_scenarios()) {
    const std::string name = video::input_name(input);
    const auto source = video::make_input(input, frames);
    const auto base_config = benchutil::variant_config(app::algorithm::vs);
    std::vector<app::pipeline_config> configs;
    for (const auto level : levels) {
      configs.push_back(base_config);
      configs.back().gate.request = static_cast<int>(level);
    }

    // Exactness first: off over pre-rendered frames == default over the
    // on-demand source, byte for byte.
    const auto clip = render(*source);
    const auto golden = app::summarize(clip, configs.front());
    if (!(golden.panorama == app::summarize(*source, base_config).panorama)) {
      std::fprintf(stderr, "FATAL: --gate=off diverged from default on %s\n",
                   name.c_str());
      return 1;
    }

    std::vector<double> acquire_ms;
    std::vector<std::vector<double>> level_ms(levels.size());
    for (int round = 0; round < kRounds; ++round) {
      const auto start = clock_type::now();
      const auto frames_now = render(*source);
      acquire_ms.push_back(ms_since(start));
      for (std::size_t l = 0; l < levels.size(); ++l) {
        level_ms[l].push_back(summarize_ms(frames_now, configs[l]));
      }
    }

    benchutil::heading(name + ", " + std::to_string(frames) +
                       " frames (VS, clean lane)");
    std::printf("acquire (render to a frame_list): %.2f ms, median of %d\n",
                median(acquire_ms), kRounds);
    std::printf("%6s %9s %15s %11s %6s %6s %7s %8s %6s\n", "gate", "med ms",
                "speedup [p10]", "whole clip", "skip", "delta", "reused",
                "rel. L2", "minis");
    report.add({{"input", name}, {"frames", std::to_string(frames)},
                {"metric", "acquire_ms"}},
               acquire_ms);

    const auto& off_ms = level_ms.front();
    for (std::size_t l = 0; l < levels.size(); ++l) {
      const std::string level = gate::level_name(levels[l]);
      std::vector<double> speedup;
      std::vector<double> whole_clip;
      for (int r = 0; r < kRounds; ++r) {
        speedup.push_back(off_ms[r] / level_ms[l][r]);
        whole_clip.push_back((acquire_ms[r] + off_ms[r]) /
                             (acquire_ms[r] + level_ms[l][r]));
      }
      const auto result = app::summarize(clip, configs[l]);
      const auto q = quality::compare_images(golden.panorama, result.panorama);
      std::printf("%6s %9.2f %7.2fx [%.2f] %10.2fx %6d %6d %7zu %8.2f %6d\n",
                  level.c_str(), median(level_ms[l]), median(speedup),
                  perf::percentile(speedup, 0.1), median(whole_clip),
                  result.stats.frames_gated_skip,
                  result.stats.frames_gated_delta,
                  result.stats.keypoints_reused, q.relative_l2_norm,
                  result.stats.mini_panoramas);

      const auto row = [&](const char* metric, const std::vector<double>& s) {
        report.add({{"input", name}, {"gate", level}, {"metric", metric}}, s);
      };
      row("summarize_ms", level_ms[l]);
      if (l > 0) {
        row("speedup_vs_off", speedup);
        row("whole_clip_speedup_vs_off", whole_clip);
      }
      row("quality_rel_l2", {q.relative_l2_norm});
      row("egregious", {q.egregious ? 1.0 : 0.0});
    }
  }

  std::printf("\nwrote %s\n", report.write(opts).c_str());
  return 0;
}
