// The benchmark's four workloads.  Each runs for run_options::seconds as a
// closed loop from this one process, checks every output against the
// pinned references, and fills a run_result with the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run).
#pragma once

#include <string>
#include <vector>

#include "app/pipeline.h"
#include "result.h"

namespace vsbench {

/// One input class of a survey and its clip length.
struct survey_input {
  vs::video::input_id input = vs::video::input_id::input1;
  int frames = 40;
};

/// A survey workload: one caller summarizing synthetic clips back to back.
struct survey_spec {
  std::string name;
  std::vector<survey_input> inputs;  ///< interleaved in the loop
  vs::gate::level gate = vs::gate::level::off;
  int replicas = 8;  ///< pinned replica pool per input, all used every run
};

[[nodiscard]] const survey_spec& survey_smooth();
[[nodiscard]] const survey_spec& survey_gated();

/// One clip of a survey: which input, how long, which replica.
struct clip_key {
  vs::video::input_id input = vs::video::input_id::input1;
  int frames = 40;
  int replica = 0;
};

/// The clips a run of `spec` summarizes for `seed`, in loop order: every
/// pinned replica of every input once, inputs interleaved, replicas in an
/// order drawn from the seed.  Every run covers the same clips, so runs on
/// different seeds compare like for like (memory peaks and clip costs
/// differ by replica).
[[nodiscard]] std::vector<clip_key> draw_clips(const survey_spec& spec,
                                               std::uint64_t seed);

/// The pipeline configuration a survey runs its clips under.
[[nodiscard]] vs::app::pipeline_config survey_config(const survey_spec& spec);

/// Pin-file key of one survey clip.
[[nodiscard]] std::string survey_pin_key(const survey_spec& spec,
                                         const clip_key& clip);

[[nodiscard]] run_result run_survey(const survey_spec& spec,
                                    const run_options& options);
[[nodiscard]] run_result run_campaign_workload(const run_options& options);
[[nodiscard]] run_result run_serve_mixed(const run_options& options);

/// Regenerate a workload's pin file from the sequential reference
/// configuration (pool width 1, no frame lookahead).
void pin_survey(const survey_spec& spec, const run_options& options);
void pin_campaign(const run_options& options);
void pin_serve(const run_options& options);

/// The metric names (and units) each mode prints, in print order — every
/// workload prints the same set so runs are comparable across workloads.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
end_to_end_metrics();
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

/// Fills every per-layer metric `r` has not set with 0 (a layer the
/// workload does not exercise), keeping the canonical order.
void complete_per_layer(run_result& r);

}  // namespace vsbench
