#include "rt/instrument.h"

#include <string>

namespace vs::rt {

thread_local constinit state tls VS_RT_TLS_MODEL;

const char* fn_name(fn f) noexcept {
  switch (f) {
    case fn::other:
      return "other";
    case fn::video_decode:
      return "video_decode";
    case fn::fast_detect:
      return "fast_detect";
    case fn::orb_describe:
      return "orb_describe";
    case fn::match:
      return "match";
    case fn::ransac:
      return "ransac";
    case fn::homography:
      return "homography";
    case fn::warp:
      return "warpPerspective";
    case fn::remap:
      return "remapBilinear";
    case fn::stitch:
      return "stitch";
    case fn::quality:
      return "quality";
    case fn::gate:
      return "gate";
    case fn::count_:
      break;
  }
  return "?";
}

const char* op_name(op k) noexcept {
  switch (k) {
    case op::int_alu:
      return "int_alu";
    case op::mem:
      return "mem";
    case op::branch:
      return "branch";
    case op::fp_alu:
      return "fp_alu";
    case op::count_:
      break;
  }
  return "?";
}

void absorb(const tally& t) noexcept {
  tls.c += t.c;
  tls.steps += t.steps;
  tls.stage_steps += t.stage_steps;
}

namespace detail {

void raise_hang() {
  throw hang_error("step budget exceeded (watchdog): execution hangs");
}

void raise_stage_hang() {
  // Disarm the meter before throwing: the unwind path (and any diagnostic
  // code run by a recovery boundary) executes hooks of its own, which must
  // not re-raise out of a destructor.
  tls.stage_budget = ~0ULL;
  throw detected_error(detect_kind::stage_hang,
                       "stage step budget exceeded (per-stage watchdog)");
}

void raise_segfault(std::int64_t index, std::size_t bound) {
  throw crash_error(crash_kind::segfault,
                    "guarded access fault: index " + std::to_string(index) +
                        " outside buffer of " + std::to_string(bound) +
                        " elements");
}

void raise_logic_oob(std::int64_t index, std::size_t bound) {
  throw std::logic_error(
      "out-of-bounds access without an injected fault (library bug): index " +
      std::to_string(index) + ", bound " + std::to_string(bound));
}

}  // namespace detail

session::session(frame_log* record) : saved_(tls) {
  tls = state{};
  tls.enabled = true;
  tls.record = record;
}

session::session(const fault_plan& plan, std::uint64_t step_budget,
                 const frame_log* replay)
    : saved_(tls) {
  tls = state{};
  tls.enabled = true;
  tls.armed = true;
  tls.cls = plan.cls;
  tls.scoped = plan.scoped;
  tls.scope = plan.scope;
  tls.scope_b = plan.scope_b;
  tls.target = plan.target;
  tls.bit = plan.bit;
  tls.step_budget = step_budget;
  tls.replay = replay;
}

session::~session() { tls = saved_; }

}  // namespace vs::rt
