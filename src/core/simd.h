// Runtime SIMD feature detection and level selection for the clean lane.
//
// Every vectorized clean-lane kernel has a scalar twin that computes the
// exact same result (integer kernels bit for bit; float kernels because both
// lanes evaluate the same expression tree — see DESIGN.md §5g).  Which twin
// runs is decided per dispatch from
//
//     active() = min(detected(), requested())
//
// where detected() probes the host once (cpuid via __builtin_cpu_supports)
// and requested() defaults to the VS_SIMD environment variable
// (scalar|sse4|avx2, unset = best available) and can be overridden by the
// `--simd` CLI flag through set_level().  Requesting a level the host lacks
// silently clamps to what the host can run, so VS_SIMD=avx2 on an SSE-only
// box degrades instead of faulting.
//
// No hooked code consults this layer: fault campaigns replay a fixed scalar
// dynamic-op stream, and vectorizing it would re-index every fault plan.
// Each kernel's clean-lane driver selects its row kernel outside the body
// it shares with the instrumented lane (core/dispatch.h); only the
// hook-free box blur runs its row kernel on both lanes.  NEON is a
// recognized name but currently maps to scalar twins (stub tier for
// non-x86 hosts).
#pragma once

#include <optional>
#include <string_view>

namespace vs::core::simd {

/// Instruction-set tiers, ordered so that min() composes capability.
enum class level : int {
  scalar = 0,  ///< portable C++ twins only
  sse4 = 1,    ///< SSE4.2 + POPCNT (128-bit integer kernels)
  avx2 = 2,    ///< AVX2 (256-bit integer + 4-wide double kernels)
};

/// Best tier the host supports.  Probed once, cached, thread-safe.
[[nodiscard]] level detected() noexcept;

/// Tier requested via VS_SIMD / set_level(); defaults to avx2 (i.e. "best").
[[nodiscard]] level requested() noexcept;

/// The tier clean-lane kernels dispatch on: min(detected, requested).
[[nodiscard]] level active() noexcept;

/// Installs a process-wide request (the `--simd` flag).  Clamped against
/// detected() inside active(); safe to call before or after first dispatch.
void set_level(level request) noexcept;

/// Parses "scalar" | "sse4" | "avx2" | "auto" (auto = best available).
/// Returns nullopt on anything else.
[[nodiscard]] std::optional<level> parse_level(std::string_view name) noexcept;

/// Stable lowercase name for reports and logs.
[[nodiscard]] const char* level_name(level l) noexcept;

}  // namespace vs::core::simd
