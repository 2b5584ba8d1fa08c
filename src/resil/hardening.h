// Hardening knobs and the per-run recovery report of the fault-containment
// subsystem (the detect -> contain -> recover loop of src/resil/).
//
// The ladder of cumulative hardening levels mirrors the evaluation axes of
// the fig14_recovery study:
//
//   off        baseline pipeline, byte-identical to the unhardened build
//   detectors  frame-level containment + per-stage watchdog + symptom
//              detectors on the final output (SWAT-style, Section V-D)
//   cfcss      + control-flow signatures over the per-frame stage graph
//   full       + dual execution of the composite stage: the warped patch
//              is re-warped on the clean lane and compared by digest.
//              It is the one replica a campaign tells apart from none:
//              pooled over Inputs 1-3 (3000 GPR injections each, 20
//              frames) crash+SDC fell from 139 to 92 (z = -3.11).  The
//              dual checks of gate, detect, describe, match and estimate
//              were deleted: no input, and not the pooled counts, told
//              them apart from none (|z| < 1.96; DESIGN.md 5h and
//              bench_out/BENCH_replication_frontier.json).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "fault/detectors.h"
#include "rt/instrument.h"

namespace vs::resil {

/// Cumulative hardening levels (each includes everything below it).
enum class hardening_level : std::uint8_t {
  off = 0,
  detectors,
  cfcss,
  full,
};

[[nodiscard]] const char* hardening_level_name(hardening_level level) noexcept;

/// Parses "off" / "detectors" / "cfcss" / "full" (case-insensitive).
/// Throws invalid_argument on unknown names.
[[nodiscard]] hardening_level parse_hardening_level(const std::string& name);

/// Per-stage watchdog step budgets, per frame (0 = unlimited).  These feed
/// rt::stage_scope around each pipeline stage so a corrupted loop bound is
/// flagged inside the stage it corrupts, and so a frame retry starts from a
/// fresh allowance instead of inheriting a nearly-exhausted global budget.
struct stage_budget_config {
  std::uint64_t acquire = 0;
  std::uint64_t gate = 0;       ///< frame-gate change score (gated runs)
  std::uint64_t extract = 0;    ///< FAST detection + ORB description
  std::uint64_t align = 0;      ///< matching + RANSAC model estimation
  std::uint64_t composite = 0;  ///< warp + blend + feather
};

/// Default headroom of a derived stage budget over its golden cost.
inline constexpr double kStageBudgetFactor = 25.0;

/// Derives per-stage budgets from a fault-free profile: each stage gets
/// `factor` times its mean per-frame golden cost.  `factor` must cover the
/// per-frame spread (compositing grows with the panorama), so it is
/// deliberately generous; the global campaign watchdog remains the backstop.
[[nodiscard]] stage_budget_config derive_stage_budgets(
    const rt::counters& golden, int frames,
    double factor = kStageBudgetFactor);

/// The hardening configuration carried by app::pipeline_config.
struct hardening_config {
  hardening_level level = hardening_level::off;

  /// Recovery-policy ladder: how many times one frame is re-attempted
  /// before degrading (place it by dead reckoning with the last motion
  /// model, else close the mini-panorama and skip the frame).
  int max_frame_retries = 1;

  stage_budget_config stage_budgets;

  /// Envelope for the final-output symptom detectors (calibrated from
  /// fault-free runs; detectors are skipped when absent).
  std::optional<fault::detector_calibration> calibration;

  [[nodiscard]] bool enabled() const noexcept {
    return level != hardening_level::off;
  }
  [[nodiscard]] bool cfcss_enabled() const noexcept {
    return level >= hardening_level::cfcss;
  }
};

/// What the hardening observed and did during one pipeline run.
struct run_report {
  // --- detection events ---
  std::uint32_t crashes_contained = 0;   ///< crash_error caught at a boundary
  std::uint32_t stage_hangs = 0;         ///< per-stage watchdog trips
  std::uint32_t cfcss_violations = 0;    ///< signature mismatches
  std::uint32_t replica_divergences = 0; ///< dual-execution disagreements
  // --- recovery actions ---
  std::uint32_t retries = 0;           ///< frame re-attempts
  std::uint32_t frames_recovered = 0;  ///< a retry completed cleanly
  std::uint32_t frames_degraded = 0;   ///< policy ladder fell past retry
  std::uint32_t frames_skipped = 0;    ///< degraded frames dropped entirely
  std::uint32_t panoramas_dropped = 0; ///< failing final renders discarded
  // --- end-of-run symptom detectors ---
  bool output_checked = false;
  fault::detection_verdict output_verdict = fault::detection_verdict::clean;

  [[nodiscard]] std::uint32_t faults_detected() const noexcept {
    return crashes_contained + stage_hangs + cfcss_violations +
           replica_divergences;
  }
  [[nodiscard]] bool output_flagged() const noexcept {
    return output_checked &&
           output_verdict != fault::detection_verdict::clean;
  }
  /// Any evidence that this run was not fault-free.
  [[nodiscard]] bool any_detection() const noexcept {
    return faults_detected() > 0 || output_flagged();
  }

  bool operator==(const run_report&) const = default;
};

}  // namespace vs::resil
