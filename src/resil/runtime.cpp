#include "resil/runtime.h"

#include <algorithm>
#include <cctype>

#include "pipeline/stage.h"

namespace vs::resil {

thread_local constinit runtime_state tls VS_RT_TLS_MODEL;

namespace {
thread_local run_report last_report;
}  // namespace

const run_report& last_run_report() noexcept { return last_report; }

void clear_last_run_report() noexcept { last_report = run_report{}; }

session::session(const hardening_config& config) : saved_(tls) {
  tls = runtime_state{};
  tls.active = true;
  tls.replicate_composite = config.level >= hardening_level::full;
  if (config.cfcss_enabled()) {
    monitor_.begin_frame();
    tls.monitor = &monitor_;
  }
}

session::~session() {
  last_report = current_report();
  tls = saved_;
}

run_report session::current_report() const noexcept {
  run_report report = tls.report;
  report.cfcss_violations = monitor_.violations();
  return report;
}

const char* hardening_level_name(hardening_level level) noexcept {
  switch (level) {
    case hardening_level::off:
      return "off";
    case hardening_level::detectors:
      return "detectors";
    case hardening_level::cfcss:
      return "cfcss";
    case hardening_level::full:
      return "full";
  }
  return "?";
}

hardening_level parse_hardening_level(const std::string& name) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) lower.push_back(static_cast<char>(std::tolower(c)));
  if (lower == "off") return hardening_level::off;
  if (lower == "detectors") return hardening_level::detectors;
  if (lower == "cfcss") return hardening_level::cfcss;
  if (lower == "full") return hardening_level::full;
  throw invalid_argument("unknown hardening level: " + name +
                         " (expected off, detectors, cfcss, full)");
}

stage_budget_config derive_stage_budgets(const rt::counters& golden,
                                         int frames, double factor) {
  stage_budget_config budgets;
  if (frames <= 0) return budgets;
  const auto per_frame = [&](std::uint64_t stage_total) -> std::uint64_t {
    if (stage_total == 0) return 0;
    const double b = static_cast<double>(stage_total) /
                     static_cast<double>(frames) * factor;
    return b < 1e18 ? std::max<std::uint64_t>(
                          1024, static_cast<std::uint64_t>(b))
                    : 0;
  };
  // One total per watchdog allowance, accumulated over the stage registry's
  // fn -> stage mapping instead of a hand-written grouping that could drift
  // from the graph the executor and profiler use.
  std::uint64_t totals[pipeline::budget_key_count] = {};
  for (const auto& stage : pipeline::stage_registry()) {
    for (const rt::fn f : stage.scopes) {
      if (f != rt::fn::count_) {
        totals[static_cast<int>(stage.budget)] += golden.fn_total(f);
      }
    }
  }
  const auto total = [&](pipeline::budget_key key) {
    return per_frame(totals[static_cast<int>(key)]);
  };
  budgets.acquire = total(pipeline::budget_key::acquire);
  budgets.gate = total(pipeline::budget_key::gate);
  budgets.extract = total(pipeline::budget_key::extract);
  budgets.align = total(pipeline::budget_key::align);
  budgets.composite = total(pipeline::budget_key::composite);
  return budgets;
}

}  // namespace vs::resil
