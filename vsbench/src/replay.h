// Traced replay of app::summarize: the same sequence of layer calls the
// pipeline makes for one clip, each wrapped in a span.  The replay runs the
// baseline VS variant, unhardened, frame by frame on the calling thread
// (the pipeline's prefetch overlap is what pipeline.overlap_ms measures
// separately), and must produce the montage app::summarize produces —
// byte-identical, which the survey workloads check for every clip.
#pragma once

#include <cstddef>

#include "app/pipeline.h"
#include "trace.h"

namespace vsbench {

/// Layer counters the spans alone cannot give.
struct replay_counts {
  int align_attempts = 0;   ///< match + estimate cascades run
  int align_failures = 0;   ///< cascades that found no plausible model
  std::size_t inliers = 0;  ///< inliers of accepted models
  int add_frames = 0;       ///< mini_panorama_builder::add_frame calls
  double canvas_mpix = 0.0; ///< summed canvas area after each add_frame
};

struct replay_result {
  vs::img::image_u8 panorama;
  vs::app::run_stats stats;  ///< the subset of run_stats summarize counts
  replay_counts counts;
};

/// Replays `source` through the layer calls of app::summarize under
/// `config`, recording one span per call into `spans`.  Throws
/// std::invalid_argument for configurations the replay does not cover
/// (approximate variants, hardening, a shared scheduler).
[[nodiscard]] replay_result replay_summarize(
    const vs::video::video_source& source,
    const vs::app::pipeline_config& config, span_recorder& spans);

}  // namespace vsbench
