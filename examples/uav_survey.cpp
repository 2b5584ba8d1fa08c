// UAV survey mission: the paper's end-to-end scenario.
//
// Generates both evaluation inputs (the VIRAT stand-ins), runs the baseline
// VS pipeline and all three approximations on each, reports the Section
// IV-A statistics, and saves every output panorama (the Fig 6 panels) as
// PGM files.
//
//   $ ./uav_survey [output_dir] [frames]

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "app/pipeline.h"
#include "fault/wire.h"
#include "image/image_io.h"
#include "perf/model.h"
#include "quality/metric.h"
#include "rt/instrument.h"
#include "video/generator.h"

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr, "usage: uav_survey [output_dir] [frames]\n");
  std::exit(2);
}

/// A positive frame count in decimal; anything else is a usage error.
int parse_frames(const char* text) {
  const auto value = vs::fault::wire::parse_u64(
      text, static_cast<std::uint64_t>(std::numeric_limits<int>::max()));
  if (!value || *value == 0) usage();
  return static_cast<int>(*value);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vs;
  if (argc > 3) usage();
  const std::string out_dir = argc > 1 ? argv[1] : ".";
  const int frames = argc > 2 ? parse_frames(argv[2]) : 48;

  const app::algorithm variants[] = {
      app::algorithm::vs, app::algorithm::vs_rfd, app::algorithm::vs_kds,
      app::algorithm::vs_sm};

  for (const auto input : {video::input_id::input1, video::input_id::input2}) {
    const auto source = video::make_input(input, frames);
    std::printf("\n=== %s: %d frames of %dx%d ===\n",
                video::input_name(input), source->frame_count(),
                source->frame_width(), source->frame_height());

    img::image_u8 baseline_panorama;
    double baseline_time = 0.0;
    for (const auto alg : variants) {
      app::pipeline_config config;
      config.approx.alg = alg;

      rt::session session;
      const auto result = app::summarize(*source, config);
      const auto perf = perf::evaluate(session.stats());
      if (alg == app::algorithm::vs) {
        baseline_panorama = result.panorama;
        baseline_time = perf.time_seconds;
      }

      const auto quality =
          quality::compare_images(baseline_panorama, result.panorama);
      std::printf(
          "%-7s stitched %2d/%2d (drop %d, discard %2d) in %d mini-panorama"
          "(s); time %.2f ms (%.2fx); vs baseline ED %s\n",
          app::algorithm_name(alg), result.stats.frames_stitched,
          result.stats.frames_total, result.stats.frames_dropped_rfd,
          result.stats.frames_discarded, result.stats.mini_panoramas,
          perf.time_seconds * 1e3,
          baseline_time > 0 ? perf.time_seconds / baseline_time : 1.0,
          quality.ed ? std::to_string(*quality.ed).c_str() : ">100");

      const std::string path = out_dir + "/survey_" +
                               video::input_name(input) + "_" +
                               app::algorithm_name(alg) + ".pgm";
      img::save_pnm(result.panorama, path);
      std::printf("        saved %s (%dx%d)\n", path.c_str(),
                  result.panorama.width(), result.panorama.height());
    }
  }
  return 0;
}
