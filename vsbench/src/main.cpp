// vsbench — the repository benchmark.
//
//   vsbench --workload NAME --seed N --seconds S --trace 0|1
//           [--pins DIR] [--run-dir DIR] [--vs PATH] [--commit REV]
//   vsbench --pin NAME [--pins DIR]        regenerate NAME's pinned outputs
//
// Workloads: survey-smooth, survey-gated, fault-campaign, serve-mixed.
// The untraced run (--trace 0) prints the end-to-end metrics; the traced
// run (--trace 1) the per-layer ones.  The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.  Every
// output is checked against the pinned references; any mismatch makes the
// result incorrect and the exit code 1.  vsbench/run.py builds this binary
// from the checkout and forwards its arguments.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "core/log.h"
#include "core/thread_pool.h"
#include "host.h"
#include "workloads.h"

extern char** environ;

namespace {

using namespace vsbench;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: vsbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--pins DIR] [--run-dir DIR] [--vs PATH] "
               "[--commit REV]\n"
               "       vsbench --pin NAME [--pins DIR]\n"
               "workloads: survey-smooth survey-gated fault-campaign "
               "serve-mixed\n");
  std::exit(2);
}

/// Every VS_* setting is cleared so each run executes at the library's
/// defaults, whatever the caller's environment holds.
void clear_vs_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("VS_", 0) == 0) names.push_back(entry.substr(0, entry.find('=')));
  }
  for (const auto& name : names) ::unsetenv(name.c_str());
}

std::string json_number(double v) { return strf("%.17g", v); }

std::string result_json(bool correct, const run_result& r) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
       << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

/// Checks that `r` reports exactly `catalogue`, in order, with finite values.
bool matches_catalogue(
    const run_result& r,
    const std::vector<std::pair<std::string, std::string>>& catalogue) {
  if (r.metrics.size() != catalogue.size()) return false;
  for (std::size_t i = 0; i < catalogue.size(); ++i) {
    if (r.metrics[i].name != catalogue[i].first ||
        r.metrics[i].unit != catalogue[i].second ||
        !std::isfinite(r.metrics[i].value)) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  clear_vs_environment();
  vs::log::set_level(vs::log::level::warn);

  run_options options;
  options.pins_dir = "vsbench/pins";
  options.run_dir = ".bench_run";
  std::string workload;
  std::string pin;
  std::string commit;
  int trace = -1;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
      have_seconds = options.seconds > 0.0;
    } else if (arg == "--trace") {
      trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else if (arg == "--pins") {
      options.pins_dir = value;
    } else if (arg == "--run-dir") {
      options.run_dir = value;
    } else if (arg == "--vs") {
      options.vs_binary = value;
    } else if (arg == "--commit") {
      commit = value;
    } else if (arg == "--pin") {
      pin = value;
    } else {
      usage();
    }
  }

  // Load is generated from this one process with at most nproc threads and
  // client connections (and never more than four).  The in-process clean
  // lane runs at pool width 1: the single-thread critical path, as on the
  // one-core reference host.  On a shared multi-core VM the fork-join pool
  // made clip times no faster and far noisier (run-to-run spread roughly
  // doubled), so its figures could not resolve a change.
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  options.width = static_cast<unsigned>(std::clamp(cpus, 1L, 4L));
  vs::core::thread_pool::set_global_threads(1);

  try {
    if (!pin.empty()) {
      if (pin == "survey-smooth") {
        pin_survey(survey_smooth(), options);
      } else if (pin == "survey-gated") {
        pin_survey(survey_gated(), options);
      } else if (pin == "fault-campaign") {
        pin_campaign(options);
      } else if (pin == "serve-mixed") {
        pin_serve(options);
      } else {
        usage();
      }
      std::fprintf(stderr, "pinned %s\n", pin.c_str());
      return 0;
    }

    if (workload.empty() || !have_seed || !have_seconds || trace < 0) usage();
    options.trace = trace == 1;
    // The pool the work ran on: in process (width 1), or the server
    // child's pool budget.
    const unsigned pool_width = workload == "serve-mixed" ? options.width : 1;
    const host_info host = probe_host(commit, pool_width, options.seed);
    if (!host.optimized) {
      std::fprintf(stderr,
                   "vsbench: refusing to report from an unoptimised build "
                   "(build type '%s')\n",
                   host.build_type.c_str());
      return 3;
    }

    run_result r;
    if (workload == "survey-smooth") {
      r = run_survey(survey_smooth(), options);
    } else if (workload == "survey-gated") {
      r = run_survey(survey_gated(), options);
    } else if (workload == "fault-campaign") {
      r = run_campaign_workload(options);
    } else if (workload == "serve-mixed") {
      if (options.vs_binary.empty()) usage();
      r = run_serve_mixed(options);
    } else {
      usage();
    }
    if (options.trace) complete_per_layer(r);

    const auto& catalogue =
        options.trace ? per_layer_metrics() : end_to_end_metrics();
    const bool complete = matches_catalogue(r, catalogue);
    const bool correct = complete && r.attempted > 0 && r.failed == 0;

    std::printf("vsbench %s (%s run)\n", workload.c_str(),
                options.trace ? "traced" : "untraced");
    std::printf("host: %s\n", host_json(host).c_str());
    for (const auto& line : r.report) std::printf("%s\n", line.c_str());
    for (const auto& m : r.metrics) {
      std::printf("metric %s = %.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("failed %llu of %llu operations attempted%s\n",
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted),
                complete ? "" : "; METRIC SET INCOMPLETE");
    std::printf("%s\n", result_json(correct, r).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vsbench: %s\n", e.what());
    return 2;
  }
}
