// The per-frame stage graph as a first-class runtime object.
//
// The paper's unit of work — acquire -> detect -> describe -> match ->
// estimate -> composite — is the organizing concept of every result this
// repository reproduces, and every cross-cutting subsystem needs its own
// view of it: resil::cfcss signs its nodes, the per-stage watchdog budgets
// its step allowances, and the profiler attributes rt::fn scopes to it.  This
// registry is the one shared description those subsystems consume, and it
// holds only what code reads.  Scheduling facts (only acquisition runs
// ahead of the stitch point) are stated once, at the code that enforces
// them: pipeline/executor.cpp.
#pragma once

#include <cstdint>
#include <span>

#include "resil/cfcss.h"
#include "rt/instrument.h"

namespace vs::resil {
struct stage_budget_config;  // resil/hardening.h
}

namespace vs::pipeline {

/// Stable identifiers of the per-frame stages, in canonical dataflow order.
enum class stage_id : std::uint8_t {
  acquire = 0,  ///< frame acquisition / synthetic decode
  gate,         ///< frame-gate classification (skip / delta / full); a
                ///< no-op passthrough unless a gate level is active
  detect,       ///< FAST corner detection (enters feature extraction)
  describe,     ///< ORB description (finishes feature extraction)
  match,        ///< brute-force descriptor matching
  estimate,     ///< RANSAC model cascade (homography -> affine)
  composite,    ///< warp + blend into the open mini-panorama
  count_,
};
inline constexpr int stage_count = static_cast<int>(stage_id::count_);

/// Which per-frame watchdog allowance meters a stage.  Budgets are coarser
/// than stages: extraction shares one allowance across detect+describe and
/// alignment shares one across match+estimate, exactly as
/// resil::stage_budget_config groups them (a stage flagged inside either
/// half still names the work that corrupted it).
enum class budget_key : std::uint8_t {
  acquire = 0,
  gate,
  extract,
  align,
  composite,
  count_,
};
inline constexpr int budget_key_count = static_cast<int>(budget_key::count_);

[[nodiscard]] const char* budget_key_name(budget_key key) noexcept;

/// One stage of the per-frame graph: everything the cross-cutting
/// subsystems need to know about it, declared once.
struct stage_desc {
  stage_id id = stage_id::count_;
  const char* name = "?";
  /// CFCSS node whose signature transition marks entry into the stage.
  resil::cfcss::node node = resil::cfcss::node::count_;
  /// Watchdog allowance the stage runs under (hardened runs only).
  budget_key budget = budget_key::count_;
  /// Whether the frame_executor opens a fresh rt::stage_scope on entry.
  /// Fused stages (describe, estimate) ride inside the previous stage's
  /// scope — they share its budget, so re-opening would grant corrupted
  /// loop bounds a second allowance and shift hardened step accounting.
  bool opens_scope = false;
  /// rt::fn attribution scopes belonging to this stage (rt::fn::count_ =
  /// unused slot).  This is the mapping perf's stage profile, resil's
  /// budget derivation and fault's stage-attributed reports share.
  rt::fn scopes[3] = {rt::fn::count_, rt::fn::count_, rt::fn::count_};
};

/// The canonical stage graph, in dataflow order.
[[nodiscard]] std::span<const stage_desc> stage_registry() noexcept;

/// Descriptor lookup (must not be called with count_).
[[nodiscard]] const stage_desc& stage_info(stage_id id) noexcept;

[[nodiscard]] const char* stage_name(stage_id id) noexcept;

/// The stage owning an rt::fn attribution scope, or stage_id::count_ for
/// scopes outside the per-frame graph (other / quality).  This is what
/// stage-attributes a fired injection's scope in campaign reports.
[[nodiscard]] stage_id stage_of(rt::fn f) noexcept;

/// The budget allowance a key selects from a stage_budget_config.
[[nodiscard]] std::uint64_t budget_value(
    const resil::stage_budget_config& budgets, budget_key key) noexcept;

}  // namespace vs::pipeline
