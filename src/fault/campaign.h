// Statistical fault-injection campaigns (the AFI driver + Fault Monitor).
//
// A campaign measures a golden run of a workload, then performs N
// independent experiments, each injecting one single-bit flip into the
// virtual register file at a uniformly random dynamic operation, and
// classifies every experiment as Mask / SDC / Crash / Hang exactly as the
// paper's Fault Monitor does (run-to-completion + output comparison).
// run_campaign skips what a run to completion would only repeat: each
// experiment starts at the golden run's frame checkpoint before its target
// op and stops once its state is the golden state again (rt/frame_log.h,
// DESIGN.md 5l).  The records are those of runs from the start.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "fault/model.h"
#include "image/image.h"

namespace vs::fault {

/// A workload is any deterministic computation producing an image output
/// (the full VS pipeline, an approximate variant, or the WP toy benchmark).
using workload = std::function<img::image_u8()>;

struct campaign_config {
  static constexpr std::size_t npos = ~static_cast<std::size_t>(0);

  rt::reg_class cls = rt::reg_class::gpr;
  int injections = 1000;      ///< the paper's per-class experiment count
  std::uint64_t seed = 2018;  ///< derives every experiment's plan
  liveness_model liveness;
  double step_budget_factor = 25.0;  ///< hang watchdog: x golden steps
  bool scoped = false;               ///< restrict injections to hot functions
  rt::fn scope = rt::fn::warp;       ///< primary scope when scoped
  bool include_remap_scope = true;   ///< also target remapBilinear ops
  bool keep_sdc_outputs = false;     ///< retain faulty images for ED analysis
  int threads = 0;                   ///< 0 = hardware concurrency

  /// Range restriction: execute only experiments [range_first, range_first +
  /// range_count) of the `injections`-experiment campaign.  Every
  /// experiment's plan is still derived from (seed, index) exactly as in the
  /// full campaign, so range-restricted runs merged in experiment order are
  /// bit-identical to one full run — this is what lets the supervisor
  /// (src/supervise/) shard a campaign across worker processes.
  /// range_count == npos means "through the last experiment".
  std::size_t range_first = 0;
  std::size_t range_count = npos;
};

struct campaign_result {
  outcome_rates rates;
  std::vector<injection_record> records;  ///< in experiment order
  img::image_u8 golden;
  rt::counters golden_counters;
  /// Faulty outputs of SDC experiments (when keep_sdc_outputs), paired with
  /// the index of their record.
  std::vector<std::pair<std::size_t, img::image_u8>> sdc_outputs;

  /// Running outcome rates after the first k experiments, for k in
  /// `checkpoints` — the Fig 9a convergence curves.
  [[nodiscard]] std::vector<outcome_rates> convergence(
      const std::vector<std::size_t>& checkpoints) const;
};

/// The campaign-wide measurements every experiment classifies against: one
/// golden (fault-free, instrumented) run of the workload.  Shard workers
/// inherit this from the supervisor instead of re-measuring it, so every
/// process draws targets over the same op count and compares against the
/// same golden image.
struct campaign_setup {
  img::image_u8 golden;
  rt::counters golden_counters;
  std::uint64_t total_ops = 0;    ///< in-scope fault sites of config.cls
  std::uint64_t step_budget = 0;  ///< hang watchdog budget
};

/// Performs the golden run and derives the fault-site count and watchdog
/// budget.  The golden run may prefetch frames on a pool of the campaign's
/// width (pipeline/executor.h); its counts are those of the inline run.
/// Throws invalid_argument when the workload executes no dynamic ops of
/// the targeted class.  Keeps no frame checkpoints: callers that
/// hold many setups at once (the supervisor, vsbench) would hold every
/// clip's states too.
[[nodiscard]] campaign_setup measure_golden(const workload& work,
                                            const campaign_config& config);

/// One experiment's planned injection plus its architectural-liveness roll.
struct experiment_plan {
  rt::fault_plan plan;
  bool register_live = false;  ///< false => masked without execution
};

/// Derives experiment `index`'s plan.  A pure function of (config, total_ops,
/// index) — the same index yields the same plan in every process, which is
/// the determinism contract sharded campaigns rely on.
[[nodiscard]] experiment_plan plan_experiment(const campaign_config& config,
                                              std::uint64_t total_ops,
                                              std::size_t index);

/// Plans and executes experiment `index` against `setup`, returning its
/// record (dead-register strikes classify as masked without running).
/// A bare setup has no checkpoints, so the run starts from the workload's
/// beginning and goes to completion: the reference run_campaign's
/// checkpointed experiments must reproduce record for record.
[[nodiscard]] injection_record run_experiment(const workload& work,
                                              const campaign_config& config,
                                              const campaign_setup& setup,
                                              std::size_t index,
                                              img::image_u8* faulty_out =
                                                  nullptr);

/// Runs a campaign.  Deterministic given (workload determinism, config).
/// Experiments run on `threads` parallel workers; results are identical to
/// the sequential order regardless of thread count.  The golden run's frame
/// checkpoints live for this call only; the workers share them read-only.
[[nodiscard]] campaign_result run_campaign(const workload& work,
                                           const campaign_config& config);

/// Classifies a single planned injection against a known golden output.
/// Exposed for tests; run_campaign uses the same logic.
[[nodiscard]] injection_record run_one_injection(
    const workload& work, const rt::fault_plan& plan,
    std::uint64_t step_budget, const img::image_u8& golden,
    img::image_u8* faulty_out = nullptr);

}  // namespace vs::fault
