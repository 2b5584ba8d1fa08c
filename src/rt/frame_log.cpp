#include "rt/frame_log.h"

#include <utility>

namespace vs::rt {

std::uint64_t plan_sites(const fault_plan& plan, const counters& c) noexcept {
  std::uint64_t n = 0;
  for (int f = 0; f < fn_count; ++f) {
    const auto scope = static_cast<fn>(f);
    if (plan.scoped && scope != plan.scope && scope != plan.scope_b) continue;
    n += c.hooks(plan.cls, scope);
    if (plan.cls == reg_class::gpr) n -= c.unstruck_by_fn[f];
  }
  return n;
}

namespace {

// The plan this thread's session has armed.
fault_plan armed_plan() noexcept {
  fault_plan plan;
  plan.cls = tls.cls;
  plan.target = tls.target;
  plan.scoped = tls.scoped;
  plan.scope = tls.scope;
  plan.scope_b = tls.scope_b;
  return plan;
}

}  // namespace

void record_boundary(frame_log& log, std::any app) {
  log.boundaries.push_back(
      {tls.c, tls.steps, tls.stage_steps, std::move(app)});
}

std::optional<std::size_t> resume_point(const frame_log& log) {
  const fault_plan plan = armed_plan();
  std::optional<std::size_t> point;
  for (std::size_t i = 0; i < log.boundaries.size(); ++i) {
    if (plan_sites(plan, log.boundaries[i].c) > plan.target) break;
    point = i;
  }
  return point;
}

void resume_at(const boundary& b) noexcept {
  tls.c = b.c;
  tls.steps = b.steps;
  tls.stage_steps = b.stage_steps;
  tls.match_count = plan_sites(armed_plan(), b.c);
}

}  // namespace vs::rt
