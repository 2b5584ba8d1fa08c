// Fig 14 (extension study): recovery-aware resiliency under the src/resil/
// fault-containment subsystem.
//
// For each scenario, runs the same GPR campaign at four cumulative levels —
// off / detectors / +CFCSS / full (+ the composite replica) — and reports
// how much of the unhardened Crash+SDC mass the containment machinery
// converts into Detected(recovered)/Detected(degraded), plus the
// fault-free wall-time overhead each level costs on the production (clean)
// lane.
//
// Scenarios are Inputs 1-3 (the paper pair + the low-texture night pass).
// Per level, the Crash+SDC counts are pooled over the inputs (never
// averaged per-input rates) and printed with a Wilson 95% interval and the
// unpaired two-proportion z against the rung below: the levels change the
// op stream, so the cells are not paired samples.  Writes
// BENCH_fig14_recovery.json into bench_out/ (or --out-dir).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "fault/detectors.h"
#include "resil/hardening.h"
#include "rt/instrument.h"

namespace {

using namespace vs;

const std::vector<resil::hardening_level>& all_levels() {
  static const std::vector<resil::hardening_level> levels = {
      resil::hardening_level::off, resil::hardening_level::detectors,
      resil::hardening_level::cfcss, resil::hardening_level::full};
  return levels;
}

/// Fault-free wall time of one clean-lane pipeline run (best of `reps`).
double wall_ms(const video::video_source& source,
               const app::pipeline_config& config, int reps) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = app::summarize(source, config);
    const auto t1 = std::chrono::steady_clock::now();
    if (result.panorama.empty()) std::abort();  // keep the run observable
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

std::size_t crash_sdc(const fault::outcome_rates& r) {
  return r.crash_segfault + r.crash_abort + r.sdc;
}

/// Wilson score interval (95%) of k successes in n trials.
std::pair<double, double> wilson(std::size_t k, std::size_t n) {
  if (n == 0) return {0.0, 0.0};
  constexpr double z = 1.959963984540054;
  const double nn = static_cast<double>(n);
  const double p = static_cast<double>(k) / nn;
  const double denom = 1.0 + z * z / nn;
  const double center = (p + z * z / (2.0 * nn)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / nn + z * z / (4.0 * nn * nn)) / denom;
  return {center - half, center + half};
}

/// Unpaired two-proportion z of k1/n1 against k0/n0 (pooled variance);
/// negative when the first proportion is lower.
double two_proportion_z(std::size_t k1, std::size_t n1, std::size_t k0,
                        std::size_t n0) {
  if (n1 == 0 || n0 == 0) return 0.0;
  const double p1 = static_cast<double>(k1) / static_cast<double>(n1);
  const double p0 = static_cast<double>(k0) / static_cast<double>(n0);
  const double p = static_cast<double>(k1 + k0) / static_cast<double>(n1 + n0);
  const double se = std::sqrt(p * (1.0 - p) *
                              (1.0 / static_cast<double>(n1) +
                               1.0 / static_cast<double>(n0)));
  return se > 0.0 ? (p1 - p0) / se : 0.0;
}

struct level_row {
  resil::hardening_level level = resil::hardening_level::off;
  fault::outcome_rates rates;
  double wall = 0.0;      ///< fault-free clean-lane wall time, ms
  double overhead = 1.0;  ///< wall / wall(off)
};

void emit_rates(std::ostringstream& json, const std::string& indent,
                const fault::outcome_rates& r) {
  json << indent << "\"experiments\": " << r.experiments << ",\n"
       << indent << "\"masked\": " << r.masked << ",\n"
       << indent << "\"sdc\": " << r.sdc << ",\n"
       << indent << "\"crash_segfault\": " << r.crash_segfault << ",\n"
       << indent << "\"crash_abort\": " << r.crash_abort << ",\n"
       << indent << "\"hang\": " << r.hang << ",\n"
       << indent << "\"detected_recovered\": " << r.detected_recovered
       << ",\n"
       << indent << "\"detected_degraded\": " << r.detected_degraded << ",\n"
       << indent << "\"crash_sdc\": " << crash_sdc(r) << ",\n";
}

}  // namespace

int main(int argc, char** argv) {
  auto opt = benchutil::parse_options(argc, argv);
  const int fault_frames = benchutil::campaign_frames(opt);
  const int timing_reps = opt.quick ? 2 : 3;

  std::ostringstream json;
  json << "{\n"
       << "  \"register_class\": \"gpr\",\n"
       << "  \"injections\": " << opt.injections << ",\n"
       << "  \"frames\": " << fault_frames << ",\n"
       << "  \"inputs\": [";

  // Per level, Crash+SDC and experiments summed over the scenarios.
  std::vector<std::size_t> pooled_cs(all_levels().size(), 0);
  std::vector<std::size_t> pooled_n(all_levels().size(), 0);

  bool first_input = true;
  for (const auto input : benchutil::all_scenarios()) {
    const auto source = video::make_input(input, fault_frames);

    // Calibrate the hardening once per scenario from a fault-free profiled
    // run (budgets from the instrumented-lane op counts, detector
    // envelopes from the golden output) — no golden knowledge leaks into
    // the hardened runs beyond what a deployed system would have.
    const app::hardening_calibration calibration = app::calibrate_hardening(
        *source, benchutil::variant_config(app::algorithm::vs), fault_frames);

    benchutil::heading(
        std::string("Fig 14: cumulative hardening (GPR) — ") +
        video::input_name(input) + benchutil::clip_note(fault_frames));
    std::printf("%d injections\n", opt.injections);
    std::printf("%-10s %8s %8s %8s %8s %9s %9s %9s %9s\n", "level", "mask",
                "crash", "sdc", "hang", "det-rec", "det-deg", "wall-ms",
                "overhead");

    std::vector<level_row> rows;
    for (const auto level : all_levels()) {
      auto config = benchutil::variant_config(app::algorithm::vs);
      config.hardening.level = level;
      if (config.hardening.enabled()) {
        calibration.apply_to(config.hardening);
      }

      level_row row;
      row.level = level;
      row.wall = wall_ms(*source, config, timing_reps);
      row.overhead = rows.empty() ? 1.0 : row.wall / rows.front().wall;
      fault::campaign_config campaign;
      campaign.cls = rt::reg_class::gpr;
      campaign.injections = opt.injections;
      campaign.seed = opt.seed;
      campaign.threads = opt.threads;
      row.rates = fault::run_campaign(benchutil::vs_workload(source, config),
                                      campaign)
                      .rates;
      pooled_cs[rows.size()] += crash_sdc(row.rates);
      pooled_n[rows.size()] += row.rates.experiments;
      rows.push_back(row);

      const auto& r = row.rates;
      std::printf(
          "%-10s %8s %8s %8s %8s %9s %9s %9.1f %8.2fx\n",
          resil::hardening_level_name(level),
          benchutil::pct(r.rate(fault::outcome::masked)).c_str(),
          benchutil::pct(r.crash_rate()).c_str(),
          benchutil::pct(r.rate(fault::outcome::sdc)).c_str(),
          benchutil::pct(r.rate(fault::outcome::hang)).c_str(),
          benchutil::pct(r.rate(fault::outcome::detected_recovered)).c_str(),
          benchutil::pct(r.rate(fault::outcome::detected_degraded)).c_str(),
          row.wall, row.overhead);
    }

    json << (first_input ? "" : ",") << "\n    {\n"
         << "      \"input\": \"" << video::input_name(input) << "\",\n"
         << "      \"levels\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& row = rows[i];
      json << (i == 0 ? "" : ",") << "\n        {\n"
           << "          \"level\": \""
           << resil::hardening_level_name(row.level) << "\",\n";
      emit_rates(json, "          ", row.rates);
      json << "          \"wall_ms\": " << row.wall << ",\n"
           << "          \"overhead\": " << row.overhead << "\n"
           << "        }";
    }
    json << "\n      ]\n    }";
    first_input = false;
  }

  benchutil::heading("Crash+SDC pooled over Inputs 1-3");
  std::printf("%-10s %12s %8s %20s %12s\n", "level", "crash+sdc", "rate",
              "wilson 95%", "z vs below");
  json << "\n  ],\n  \"pooled\": [";
  for (std::size_t i = 0; i < all_levels().size(); ++i) {
    const auto [lo, hi] = wilson(pooled_cs[i], pooled_n[i]);
    const double rate = pooled_n[i] == 0
                            ? 0.0
                            : static_cast<double>(pooled_cs[i]) /
                                  static_cast<double>(pooled_n[i]);
    const double z = i == 0 ? 0.0
                            : two_proportion_z(pooled_cs[i], pooled_n[i],
                                               pooled_cs[i - 1],
                                               pooled_n[i - 1]);
    const std::string counts =
        std::to_string(pooled_cs[i]) + "/" + std::to_string(pooled_n[i]);
    const std::string interval =
        "[" + benchutil::pct(lo, 2) + ", " + benchutil::pct(hi, 2) + "]";
    std::printf("%-10s %12s %8s %20s", resil::hardening_level_name(all_levels()[i]),
                counts.c_str(), benchutil::pct(rate, 2).c_str(),
                interval.c_str());
    if (i == 0) {
      std::printf(" %12s\n", "-");
    } else {
      std::printf(" %12.2f\n", z);
    }
    json << (i == 0 ? "" : ",") << "\n    {\n"
         << "      \"level\": \"" << resil::hardening_level_name(all_levels()[i])
         << "\",\n"
         << "      \"crash_sdc\": " << pooled_cs[i] << ",\n"
         << "      \"experiments\": " << pooled_n[i] << ",\n"
         << "      \"wilson95\": [" << lo << ", " << hi << "],\n"
         << "      \"z_vs_level_below\": ";
    if (i == 0) {
      json << "null";
    } else {
      json << z;
    }
    json << "\n    }";
  }
  json << "\n  ]\n}\n";

  const std::string dir = benchutil::output_dir(opt);
  std::ofstream out(dir + "/BENCH_fig14_recovery.json");
  out << json.str();
  std::printf("\nwrote %s\n", (dir + "/BENCH_fig14_recovery.json").c_str());
  return 0;
}
