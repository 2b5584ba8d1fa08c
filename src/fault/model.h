// Fault-outcome taxonomy and campaign configuration.
#pragma once

#include <cstdint>
#include <string>

#include "rt/instrument.h"

namespace vs::fault {

/// The paper's four outcomes, with Crash split into its two observed causes
/// (segfault ~92% / abort ~8% of crashes in the paper's data), extended
/// with the recovery-aware pair produced by hardened runs (src/resil/):
/// a detection that the containment machinery turned into a golden-equal
/// output is `detected_recovered`; one that left the output altered (frame
/// skipped, dead-reckoned placement, dropped mini-panorama) but flagged is
/// `detected_degraded`.  Unhardened campaigns never produce either.
enum class outcome : std::uint8_t {
  masked,             ///< output identical to golden
  sdc,                ///< output differs (Silent Data Corruption)
  crash_segfault,     ///< memory-access violation
  crash_abort,        ///< library/application constraint abort
  hang,               ///< watchdog expired
  detected_recovered, ///< hardened: fault detected, output == golden
  detected_degraded,  ///< hardened: fault detected, output degraded
};

[[nodiscard]] const char* outcome_name(outcome o) noexcept;
[[nodiscard]] inline bool is_crash(outcome o) noexcept {
  return o == outcome::crash_segfault || o == outcome::crash_abort;
}

/// Architectural liveness model.
//
// AFI flips a bit of a random architectural register at a random cycle; the
// flip only matters when that register holds a value that is still read
// before its next write.  Our hooks see the values that *are* live, so the
// probability that the struck register is one of them is modelled
// explicitly: per class, the expected fraction of the 32-register file with
// a live-and-consumed value at a random cycle.  GPRs in this pointer/index
// heavy integer application carry long-lived bases, bounds and cursors
// (high fraction); FPRs are idle outside the floating-point phases and are
// rapidly overwritten inside them (low fraction).  A "dead" strike is a
// Mask by definition.  The defaults are calibration constants chosen once
// against the paper's baseline VS profile (see DESIGN.md section 5) and are
// deliberately NOT per-variant: every algorithm/input is measured under the
// same register model, so cross-variant differences emerge from execution.
struct liveness_model {
  double gpr_live = 0.55;
  double fpr_live = 0.02;
  int register_count = 32;  ///< per class, as on POWER (Fig 9b histograms)

  [[nodiscard]] double live_probability(rt::reg_class cls) const noexcept {
    return cls == rt::reg_class::gpr ? gpr_live : fpr_live;
  }
};

/// One injection experiment's record.
struct injection_record {
  rt::fault_plan plan;
  bool register_live = false;  ///< liveness roll; false => masked (dead)
  bool fired = false;          ///< the flip was applied during execution
  outcome result = outcome::masked;
  rt::fn fired_scope = rt::fn::other;      ///< where the flip landed
  rt::op fired_kind = rt::op::int_alu;     ///< what kind of op it struck
  /// Hardened campaigns only: what the containment machinery did during
  /// this run (all zero when the workload runs unhardened).
  std::uint32_t detections = 0;     ///< detector firings (any mechanism)
  std::uint32_t replica_divergences = 0;  ///< dual-execution disagreements
  std::uint32_t retries = 0;        ///< frame retries spent
  std::uint32_t frames_degraded = 0;
};

/// Aggregate rates over a set of records (fractions in [0, 1]).
struct outcome_rates {
  std::size_t experiments = 0;
  std::size_t masked = 0;
  std::size_t sdc = 0;
  std::size_t crash_segfault = 0;
  std::size_t crash_abort = 0;
  std::size_t hang = 0;
  std::size_t detected_recovered = 0;
  std::size_t detected_degraded = 0;

  void add(outcome o) noexcept;
  [[nodiscard]] double rate(outcome o) const noexcept;
  [[nodiscard]] double crash_rate() const noexcept;
  [[nodiscard]] double detected_rate() const noexcept;
  [[nodiscard]] std::string to_string() const;
};

}  // namespace vs::fault
