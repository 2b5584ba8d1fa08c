// Approximation-knob explorer: sweeps each approximation's knob and prints
// the performance / output-quality tradeoff curve — the design-space view
// behind the paper's fixed operating points (RFD 10%, KDS 1/3, SM bounded).
//
//   $ ./approx_explorer [input1|input2] [frames]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "app/pipeline.h"
#include "fault/wire.h"
#include "perf/model.h"
#include "quality/metric.h"
#include "rt/instrument.h"
#include "video/generator.h"

namespace {

using namespace vs;

struct sweep_point {
  double knob = 0.0;
  double time_ratio = 1.0;
  double ed = 0.0;
  int stitched = 0;
};

sweep_point run_point(const video::video_source& source,
                      const app::pipeline_config& config, double knob,
                      const img::image_u8& golden, double baseline_time) {
  rt::session session;
  const auto result = app::summarize(source, config);
  const auto perf = perf::evaluate(session.stats());
  const auto quality = quality::compare_images(golden, result.panorama);
  sweep_point point;
  point.knob = knob;
  point.time_ratio =
      baseline_time > 0 ? perf.time_seconds / baseline_time : 1.0;
  point.ed = quality.ed ? static_cast<double>(*quality.ed) : 101.0;
  point.stitched = result.stats.frames_stitched;
  return point;
}

[[noreturn]] void usage() {
  std::fprintf(stderr, "usage: approx_explorer [input1|input2] [frames]\n");
  std::exit(2);
}

video::input_id parse_input(const char* name) {
  if (std::strcmp(name, "input1") == 0) return video::input_id::input1;
  if (std::strcmp(name, "input2") == 0) return video::input_id::input2;
  usage();
}

/// A positive frame count in decimal; anything else is a usage error.
int parse_frames(const char* text) {
  const auto value = fault::wire::parse_u64(
      text, static_cast<std::uint64_t>(std::numeric_limits<int>::max()));
  if (!value || *value == 0) usage();
  return static_cast<int>(*value);
}

void print_point(const sweep_point& p) {
  std::printf("  knob %6.3f: time %5.2fx, ED vs baseline %5.0f, "
              "frames kept %d\n",
              p.knob, p.time_ratio, p.ed, p.stitched);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vs;
  if (argc > 3) usage();
  const auto input = argc > 1 ? parse_input(argv[1]) : video::input_id::input1;
  const int frames = argc > 2 ? parse_frames(argv[2]) : 40;

  const auto source = video::make_input(input, frames);
  std::printf("exploring approximations on %s (%d frames)\n",
              video::input_name(input), frames);

  img::image_u8 golden;
  double baseline_time = 0.0;
  {
    rt::session session;
    golden = app::summarize(*source, app::pipeline_config{}).panorama;
    baseline_time = perf::evaluate(session.stats()).time_seconds;
  }

  std::printf("\nVS_RFD: drop fraction sweep\n");
  for (const double fraction : {0.05, 0.10, 0.20, 0.35}) {
    app::pipeline_config config;
    config.approx.alg = app::algorithm::vs_rfd;
    config.approx.rfd_drop_fraction = fraction;
    print_point(run_point(*source, config, fraction, golden, baseline_time));
  }

  std::printf("\nVS_KDS: keypoint fraction sweep\n");
  for (const double fraction : {0.75, 0.5, 1.0 / 3.0, 0.2}) {
    app::pipeline_config config;
    config.approx.alg = app::algorithm::vs_kds;
    config.approx.kds_keypoint_fraction = fraction;
    print_point(run_point(*source, config, fraction, golden, baseline_time));
  }

  std::printf("\nVS_SM: distance bound sweep\n");
  for (const int bound : {20, 30, 40, 64}) {
    app::pipeline_config config;
    config.approx.alg = app::algorithm::vs_sm;
    config.approx.sm_max_distance = bound;
    print_point(run_point(*source, config, bound, golden, baseline_time));
  }

  std::printf(
      "\nThe paper's operating points: RFD 0.10, KDS 1/3, SM bounded 1-NN.\n");
  return 0;
}
