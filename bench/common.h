// Shared helpers for the figure-reproduction harnesses.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "app/pipeline.h"
#include "fault/campaign.h"
#include "video/generator.h"

namespace vs::benchutil {

/// Command-line options common to every figure harness.  Defaults reproduce
/// the paper-scale campaign counts at laptop-scale inputs; --quick shrinks
/// everything for smoke runs.
struct options {
  int frames = 40;        ///< frames per input clip
  bool frames_given = false;  ///< --frames was on the command line
  int injections = 1000;  ///< per register class per variant (paper: 1000)
  int sdc_injections = 5000;  ///< for the Fig 12 SDC-quality study
  int threads = 0;        ///< 0 = hardware concurrency
  std::uint64_t seed = 2018;
  bool quick = false;
  /// When set, harnesses save PNM artifacts here, and BENCH_*.json go here
  /// instead of bench_out/.
  std::string out_dir;
};

/// Parses --frames=N --injections=N --sdc-injections=N --threads=N --seed=N
/// --quick --out-dir=PATH.  Unknown flags and numbers that are not a whole
/// non-negative decimal abort with a usage message.
[[nodiscard]] options parse_options(int argc, char** argv);

/// Clip length of a fault-campaign harness: an explicit --frames as given,
/// otherwise the default clip capped at 20 frames (every experiment runs
/// the clip again from its injection frame).
[[nodiscard]] int campaign_frames(const options& opt);

/// The directory harness artifacts go to: --out-dir, else bench_out/
/// under the working directory.  Created if missing.
[[nodiscard]] std::string output_dir(const options& opt);

/// Parameters that identify one report row, e.g. {"input", "Input2"}.
using row_params = std::vector<std::pair<std::string, std::string>>;

/// The one writer of timing outputs.  Each row summarizes n samples of one
/// quantity as nearest-rank order statistics (perf::percentile), and the
/// file names the host that produced them:
///
///   {"bench": NAME,
///    "host": {"cpus", "simd", "build_type", "commit"},
///    "rows": [{"params": {...}, "n", "median", "p10", "p90"}, ...]}
class bench_report {
 public:
  explicit bench_report(std::string name) : name_(std::move(name)) {}

  void add(const row_params& params, const std::vector<double>& samples);

  /// Writes BENCH_<name>.json into output_dir(opt); returns its path.
  std::string write(const options& opt) const;

 private:
  std::string name_;
  std::vector<std::string> rows_;  ///< rendered JSON objects
};

/// The standard pipeline configuration for a variant (paper Section IV
/// knobs: RFD 10%, KDS 1/3, SM bounded distance).
[[nodiscard]] app::pipeline_config variant_config(app::algorithm alg);

/// Builds the VS workload closure for a campaign: summarize(input, config)
/// returning the output panorama.
[[nodiscard]] fault::workload vs_workload(
    std::shared_ptr<const video::video_source> source,
    const app::pipeline_config& config);

/// All four variants in paper order.
[[nodiscard]] const std::vector<app::algorithm>& all_variants();

/// Both paper inputs.
[[nodiscard]] const std::vector<video::input_id>& all_inputs();

/// The full scenario matrix: the paper pair plus the synthetic
/// low-texture night pass (Input 3).  Whole-pipeline campaigns summarize
/// their distributions across these three.
[[nodiscard]] const std::vector<video::input_id>& all_scenarios();

/// Formats a fraction as a fixed-width percentage ("42.3%").
[[nodiscard]] std::string pct(double fraction, int decimals = 1);

/// Prints an underlined section heading.
void heading(const std::string& title);

/// The suffix a campaign heading names its clip length with, e.g.
/// " [20-frame clips]".
[[nodiscard]] std::string clip_note(int frames);

}  // namespace vs::benchutil
