// Stage-graph scheduling sweep: wall-clock of the clean-lane pipeline as a
// function of the in-flight depth (how many frames may have their
// prefetchable stage prefix queued in the per-stage scheduler,
// pipeline/scheduler.h, ahead of the stitch point) at several pool widths —
// the pool width is also the scheduler's batch size.  Byte identity across
// the sweep is asserted, not assumed — the speedup is only admissible
// because the output cannot change.
//
// Emits BENCH_stage_pipeline.json into --out-dir (or cwd).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common.h"
#include "core/thread_pool.h"

namespace {

using namespace vs;

double run_once(const video::video_source& source,
                const app::pipeline_config& config) {
  const auto start = std::chrono::steady_clock::now();
  const auto result = app::summarize(source, config);
  const auto stop = std::chrono::steady_clock::now();
  if (result.panorama.empty()) std::fprintf(stderr, "empty panorama?\n");
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = benchutil::parse_options(argc, argv);
  const int frames = opts.quick ? 12 : opts.frames;
  const std::vector<int> depths = {0, 1, 2, 4, 8};
  const std::vector<unsigned> widths = {1, 2, 4};
  const int repeats = opts.quick ? 1 : 3;

  std::string json = "{\n  \"benchmark\": \"stage_pipeline\",\n  \"frames\": " +
                     std::to_string(frames) + ",\n  \"runs\": [\n";
  bool first = true;

  for (const auto input : benchutil::all_inputs()) {
    const auto source = video::make_input(input, frames);
    const auto config = benchutil::variant_config(app::algorithm::vs);

    // Reference digest from the strictly sequential clean run.
    core::thread_pool::set_global_threads(1);
    app::pipeline_config seq_config = config;
    seq_config.frames_in_flight = 0;
    const auto reference = app::summarize(*source, seq_config).panorama;

    benchutil::heading(std::string(video::input_name(input)) + ", " +
                       std::to_string(frames) + " frames (VS, clean lane)");
    std::printf("%8s %8s %12s %10s\n", "width", "depth", "best ms", "vs seq");

    for (const unsigned width : widths) {
      core::thread_pool::set_global_threads(width);
      double seq_ms = 0.0;
      for (const int depth : depths) {
        app::pipeline_config run_config = config;
        run_config.frames_in_flight = depth;
        double best = 1e30;
        for (int r = 0; r < repeats; ++r) {
          best = std::min(best, run_once(*source, run_config));
        }
        // Identity at every (width, depth): the scheduling knob must never
        // change a byte.
        const auto check = app::summarize(*source, run_config).panorama;
        if (!(check == reference)) {
          std::fprintf(stderr, "FATAL: output diverged at width %u depth %d\n",
                       width, depth);
          return 1;
        }
        if (depth == 0) seq_ms = best;
        std::printf("%8u %8d %12.2f %9.2fx\n", width, depth, best,
                    seq_ms / best);
        json += std::string(first ? "" : ",\n") + "    {\"input\": \"" +
                video::input_name(input) + "\", \"width\": " +
                std::to_string(width) + ", \"depth\": " +
                std::to_string(depth) + ", \"ms\": " +
                std::to_string(best) + "}";
        first = false;
      }
    }
  }
  core::thread_pool::set_global_threads(0);

  json += "\n  ]\n}\n";
  const std::string path =
      (opts.out_dir.empty() ? std::string(".") : opts.out_dir) +
      "/BENCH_stage_pipeline.json";
  std::ofstream out(path);
  out << json;
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}
