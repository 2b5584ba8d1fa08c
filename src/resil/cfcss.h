// CFCSS-style software control-flow signatures (Oh, Shirvani & McCluskey,
// "Control-Flow Checking by Software Signatures", IEEE Trans. Reliability
// 2002) over the pipeline's per-frame stage graph.
//
// Each stage of the per-frame unit of work (acquire -> detect -> describe ->
// match -> estimate -> composite) is a node with a static signature s_v.  A
// runtime signature register G tracks the executing node: entering node v
// from node u updates G ^= d_v with the static difference d_v = s_v ^ s_p(v)
// for v's designated primary predecessor p(v); branch-fan-in nodes apply the
// runtime adjusting signature D = s_p(v) ^ s_u exactly as CFCSS inserts D
// updates in the extra predecessors.  After the update G must equal s_v —
// anything else (an illegal transition, or a strike on the signature value
// itself) is a control-flow violation.
//
// In the instrumented lane the G update flows through an rt::g64 hook, so
// the signature register is itself a fault site: a campaign injection can
// strike G just as a real bit flip strikes the register CFCSS dedicates to
// the runtime signature.  That reproduces the defining property (and cost)
// of the technique — the checking code enlarges the attack surface while
// converting would-be-silent control-flow corruption into detected errors.
#pragma once

#include <cstdint>

#include "core/error.h"

namespace vs::resil::cfcss {

/// Stage nodes of the per-frame control-flow graph.
enum class node : std::uint8_t {
  frame_begin = 0,  ///< entry of the per-frame unit of work
  acquire,          ///< frame acquisition / synthetic decode
  detect,           ///< FAST corner detection (entering feature extraction)
  describe,         ///< ORB description finished feature extraction
  match,            ///< brute-force descriptor matching
  estimate,         ///< RANSAC model fit (homography / affine cascade)
  composite,        ///< warp + blend into the mini-panorama
  frame_end,        ///< exit of the per-frame unit of work
  // Interprocedural nodes (CFCSS-pintool style): the signature chain leaves
  // the per-frame stage sequence and follows the callers around it.
  recover,          ///< the recovery/retry path between failed attempts
  prefetch,         ///< consuming an executor's clean-lane prefetch ticket
  gate,             ///< frame-gate classification (skip / delta / full)
  count_,
};
inline constexpr int node_count = static_cast<int>(node::count_);

[[nodiscard]] const char* node_name(node n) noexcept;

/// Static signature s_v of a node (for introspection dumps; the monitor
/// keeps the constants private to its transition math).
[[nodiscard]] std::uint64_t static_signature(node n) noexcept;

/// Per-frame signature monitor.  One instance per hardened pipeline run;
/// `begin_frame` re-seeds it at every frame (and at every retry of one).
class monitor {
 public:
  /// Resets the runtime signature to the frame entry node.
  void begin_frame() noexcept;

  /// Interprocedural frame entry: when the previous frame's unit of work
  /// signed off legally (frame_end) or the recovery path owns the signature
  /// (recover), entry is a *checked transition* into frame_begin — the
  /// signature chain spans the frame boundary, so control flow that
  /// escaped a frame without reaching its exit node is caught at the next
  /// frame's entry.  Otherwise (the first frame of a run) it re-seeds.
  void enter_frame();

  /// Interprocedural recovery entry: re-seeds the signature to the recover
  /// node.  Called from the exception path after a contained failure, where
  /// G is presumed corrupt — a transition cannot be checked from a corrupt
  /// register, so recovery re-anchors the chain and the retry's enter_frame
  /// then runs over the checked recover -> frame_begin edge.
  void enter_recovery() noexcept;

  /// Records entry into stage `v`: updates the runtime signature through an
  /// rt hook and verifies it.  Throws detected_error(control_flow) on a
  /// signature mismatch or an illegal stage transition.
  void transition(node v);

  /// Stage the monitor last verified.
  [[nodiscard]] node current() const noexcept { return cur_; }
  /// Violations flagged so far (across the whole run, surviving retries).
  [[nodiscard]] std::uint32_t violations() const noexcept {
    return violations_;
  }

 private:
  std::uint64_t g_ = 0;  ///< runtime signature register G
  node cur_ = node::frame_begin;
  std::uint32_t violations_ = 0;
};

}  // namespace vs::resil::cfcss
