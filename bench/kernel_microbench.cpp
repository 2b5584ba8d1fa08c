// Wall-clock microbenchmarks of the CV kernels (google-benchmark).
//
// These complement the deterministic op-count model with real host timings:
// the relative cost ordering (warp > match > FAST > ORB per unit work)
// should mirror the modelled Fig 8 profile.
//
// Two-lane kernels are measured twice: the plain name times the clean
// (parallel, hook-free) lane, and the `_seq` twin times the instrumented
// sequential lane inside an rt::session with no fault armed — the exact
// path fault campaigns replay.  The gap between the two is the price of
// instrumentation plus the clean lane's parallel speedup.
//
// The five vectorized kernels (fast_detect, orb_extract, match_descriptors,
// warp_perspective, blend_feather) are measured once more: the plain name
// pins the clean lane to the scalar twins, and the `_simd` twin runs at the
// best level the host offers.  ci/check_bench_gate.sh holds each
// _simd/scalar ratio against its committed floor in ci/bench_floor.json.
//
// Every benchmark runs 5 repetitions unless --benchmark_repetitions says
// otherwise.  Unless --benchmark_out is given, the repetitions' real time
// per op is summarized through benchutil::bench_report into
// bench_out/BENCH_kernels.json under the working directory (the binary
// takes google-benchmark's flags only, no --out-dir); with it,
// google-benchmark writes its own per-repetition record there instead,
// which is what ci/check_bench_gate.sh pairs scalar against _simd from.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common.h"

#include "rt/instrument.h"

#include "app/pipeline.h"
#include "core/simd.h"
#include "quality/metrics_extra.h"
#include "app/wp.h"
#include "core/rng.h"
#include "features/orb.h"
#include "geometry/homography.h"
#include "geometry/ransac.h"
#include "geometry/warp.h"
#include "match/matcher.h"
#include "stitch/compositor.h"
#include "video/generator.h"

namespace {

using namespace vs;

/// Pins the clean lane's SIMD tier for one benchmark, restoring on exit.
struct scoped_simd {
  core::simd::level saved = core::simd::requested();
  explicit scoped_simd(core::simd::level l) { core::simd::set_level(l); }
  ~scoped_simd() { core::simd::set_level(saved); }
};

const img::image_u8& test_frame() {
  static const img::image_u8 frame = [] {
    const auto source = video::make_input(video::input_id::input1, 4);
    return source->frame(0);
  }();
  return frame;
}

const feat::frame_features& test_features() {
  static const feat::frame_features features =
      feat::orb_extract(test_frame(), feat::orb_params{});
  return features;
}

void bm_fast_detect(benchmark::State& state) {
  const scoped_simd scalar(core::simd::level::scalar);
  const auto& frame = test_frame();
  feat::fast_params params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(feat::fast_detect(frame, params));
  }
}
BENCHMARK(bm_fast_detect);

void bm_fast_detect_simd(benchmark::State& state) {
  const scoped_simd best(core::simd::detected());
  const auto& frame = test_frame();
  feat::fast_params params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(feat::fast_detect(frame, params));
  }
}
BENCHMARK(bm_fast_detect_simd);

void bm_fast_detect_seq(benchmark::State& state) {
  const auto& frame = test_frame();
  feat::fast_params params;
  rt::session session;
  for (auto _ : state) {
    benchmark::DoNotOptimize(feat::fast_detect(frame, params));
  }
}
BENCHMARK(bm_fast_detect_seq);

void bm_orb_extract(benchmark::State& state) {
  const scoped_simd scalar(core::simd::level::scalar);
  const auto& frame = test_frame();
  feat::orb_params params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(feat::orb_extract(frame, params));
  }
}
BENCHMARK(bm_orb_extract);

void bm_orb_extract_simd(benchmark::State& state) {
  const scoped_simd best(core::simd::detected());
  const auto& frame = test_frame();
  feat::orb_params params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(feat::orb_extract(frame, params));
  }
}
BENCHMARK(bm_orb_extract_simd);

void bm_orb_extract_seq(benchmark::State& state) {
  const auto& frame = test_frame();
  feat::orb_params params;
  rt::session session;
  for (auto _ : state) {
    benchmark::DoNotOptimize(feat::orb_extract(frame, params));
  }
}
BENCHMARK(bm_orb_extract_seq);

void bm_match_descriptors(benchmark::State& state) {
  const scoped_simd scalar(core::simd::level::scalar);
  const auto& features = test_features();
  match::match_params params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        match::match_descriptors(features, features, params));
  }
}
BENCHMARK(bm_match_descriptors);

void bm_match_descriptors_simd(benchmark::State& state) {
  const scoped_simd best(core::simd::detected());
  const auto& features = test_features();
  match::match_params params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        match::match_descriptors(features, features, params));
  }
}
BENCHMARK(bm_match_descriptors_simd);

void bm_match_descriptors_seq(benchmark::State& state) {
  const auto& features = test_features();
  match::match_params params;
  rt::session session;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        match::match_descriptors(features, features, params));
  }
}
BENCHMARK(bm_match_descriptors_seq);

void bm_warp_perspective(benchmark::State& state) {
  const scoped_simd scalar(core::simd::level::scalar);
  const auto& frame = test_frame();
  const auto transform = app::wp_default_transform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(app::run_wp(frame, transform));
  }
}
BENCHMARK(bm_warp_perspective);

void bm_warp_perspective_simd(benchmark::State& state) {
  const scoped_simd best(core::simd::detected());
  const auto& frame = test_frame();
  const auto transform = app::wp_default_transform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(app::run_wp(frame, transform));
  }
}
BENCHMARK(bm_warp_perspective_simd);

void bm_warp_perspective_seq(benchmark::State& state) {
  const auto& frame = test_frame();
  const auto transform = app::wp_default_transform();
  rt::session session;
  for (auto _ : state) {
    benchmark::DoNotOptimize(app::run_wp(frame, transform));
  }
}
BENCHMARK(bm_warp_perspective_seq);

void bm_homography_estimate(benchmark::State& state) {
  // Synthetic exact correspondences under a known homography.
  const geo::mat3 truth =
      geo::mat3::translation(4.0, -2.0) * geo::mat3::rotation(0.05);
  std::vector<geo::point_pair> pairs;
  for (int i = 0; i < 32; ++i) {
    const geo::vec2 p{static_cast<double>(13 + 7 * i % 80),
                      static_cast<double>(11 + 5 * i % 60)};
    pairs.push_back({p, truth.apply(p)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimate_homography(pairs));
  }
}
BENCHMARK(bm_homography_estimate);

void bm_ransac_homography(benchmark::State& state) {
  const geo::mat3 truth =
      geo::mat3::translation(4.0, -2.0) * geo::mat3::rotation(0.05);
  rng noise(5);
  std::vector<geo::point_pair> pairs;
  for (int i = 0; i < 64; ++i) {
    const geo::vec2 p{noise.uniform_real(0, 96), noise.uniform_real(0, 72)};
    if (i % 4 == 0) {
      pairs.push_back({p, {noise.uniform_real(0, 96), noise.uniform_real(0, 72)}});
    } else {
      pairs.push_back({p, truth.apply(p)});
    }
  }
  geo::ransac_params params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::ransac_homography(pairs, params, 7));
  }
}
BENCHMARK(bm_ransac_homography);

void bm_hamming_distance(benchmark::State& state) {
  rng gen(1);
  feat::descriptor a;
  feat::descriptor b;
  for (auto& w : a.bits) w = gen.next();
  for (auto& w : b.bits) w = gen.next();
  for (auto _ : state) {
    benchmark::DoNotOptimize(feat::hamming_distance(a, b));
  }
}
BENCHMARK(bm_hamming_distance);

void bm_box_blur(benchmark::State& state) {
  const auto& frame = test_frame();
  for (auto _ : state) {
    benchmark::DoNotOptimize(img::box_blur3(frame));
  }
}
BENCHMARK(bm_box_blur);

// Compositor paint + feather of one canvas-sized patch at unit gain: the
// masked byte copy, the seam bookkeeping, and the generation demotion —
// the per-frame stitch cost outside of warping.
geo::warped_patch full_frame_patch() {
  const auto& frame = test_frame();
  geo::warped_patch patch;
  patch.pixels = frame;
  patch.valid = img::image_u8(frame.width(), frame.height(), 1);
  std::memset(patch.valid.data(), 255, patch.valid.size());
  return patch;
}

void bm_blend_feather(benchmark::State& state) {
  const scoped_simd scalar(core::simd::level::scalar);
  const auto patch = full_frame_patch();
  const geo::rect rect{0, 0, patch.pixels.width(), patch.pixels.height()};
  for (auto _ : state) {
    stitch::compositor comp;
    comp.ensure(rect);
    comp.blend(patch);
    comp.feather_seams();
    benchmark::ClobberMemory();
  }
}
BENCHMARK(bm_blend_feather);

void bm_blend_feather_simd(benchmark::State& state) {
  const scoped_simd best(core::simd::detected());
  const auto patch = full_frame_patch();
  const geo::rect rect{0, 0, patch.pixels.width(), patch.pixels.height()};
  for (auto _ : state) {
    stitch::compositor comp;
    comp.ensure(rect);
    comp.blend(patch);
    comp.feather_seams();
    benchmark::ClobberMemory();
  }
}
BENCHMARK(bm_blend_feather_simd);

void bm_blend_feather_seq(benchmark::State& state) {
  const auto patch = full_frame_patch();
  const geo::rect rect{0, 0, patch.pixels.width(), patch.pixels.height()};
  rt::session session;
  for (auto _ : state) {
    stitch::compositor comp;
    comp.ensure(rect);
    comp.blend(patch);
    comp.feather_seams();
    benchmark::ClobberMemory();
  }
}
BENCHMARK(bm_blend_feather_seq);

void bm_ssim(benchmark::State& state) {
  const auto& frame = test_frame();
  const auto blurred = img::box_blur3(frame);
  for (auto _ : state) {
    benchmark::DoNotOptimize(quality::ssim(frame, blurred));
  }
}
BENCHMARK(bm_ssim);

void bm_full_pipeline(benchmark::State& state) {
  const auto source = video::make_input(video::input_id::input2,
                                        static_cast<int>(state.range(0)));
  app::pipeline_config config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(app::summarize(*source, config));
  }
}
BENCHMARK(bm_full_pipeline)->Arg(8)->Arg(16);

void bm_full_pipeline_seq(benchmark::State& state) {
  const auto source = video::make_input(video::input_id::input2,
                                        static_cast<int>(state.range(0)));
  app::pipeline_config config;
  rt::session session;
  for (auto _ : state) {
    benchmark::DoNotOptimize(app::summarize(*source, config));
  }
}
BENCHMARK(bm_full_pipeline_seq)->Arg(8)->Arg(16);

/// The console table as usual, plus every repetition's real time per op,
/// in ns, for the BENCH_kernels.json summary.
class sample_collector final : public benchmark::ConsoleReporter {
 public:
  sample_collector() : ConsoleReporter(OO_Tabular) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const std::string name = run.run_name.str();
      if (samples.empty() || samples.back().first != name) {
        samples.emplace_back(name, std::vector<double>{});
      }
      samples.back().second.push_back(
          run.GetAdjustedRealTime() * 1e9 /
          benchmark::GetTimeUnitMultiplier(run.time_unit));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<std::pair<std::string, std::vector<double>>> samples;
};

}  // namespace

// Custom entry point: kRepetitions per benchmark and the bench_report
// summary by default, while honouring explicit google-benchmark flags.
int main(int argc, char** argv) {
  constexpr int kRepetitions = 5;
  std::vector<char*> args(argv, argv + argc);
  const auto given = [&](std::string_view flag) {
    for (int i = 1; i < argc; ++i) {
      if (std::string_view(argv[i]).rfind(flag, 0) == 0) return true;
    }
    return false;
  };
  static std::string reps_flag =
      "--benchmark_repetitions=" + std::to_string(kRepetitions);
  if (!given("--benchmark_repetitions=")) args.push_back(reps_flag.data());
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::AddCustomContext(
      "simd_detected",
      vs::core::simd::level_name(vs::core::simd::detected()));
  benchmark::AddCustomContext(
      "simd_active", vs::core::simd::level_name(vs::core::simd::active()));
  sample_collector display;
  benchmark::RunSpecifiedBenchmarks(&display);
  benchmark::Shutdown();
  if (!given("--benchmark_out=")) {
    vs::benchutil::bench_report report("kernels");
    for (const auto& [name, samples] : display.samples) {
      report.add({{"kernel", name}, {"metric", "real_ns"}}, samples);
    }
    std::printf("wrote %s\n", report.write(vs::benchutil::options{}).c_str());
  }
  return 0;
}
