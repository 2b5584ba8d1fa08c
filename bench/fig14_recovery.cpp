// Fig 14 (extension study): recovery-aware resiliency under the src/resil/
// fault-containment subsystem.
//
// Part 1 — cumulative hardening levels.  For each scenario, runs the same
// GPR campaign at four cumulative levels — off / detectors / +CFCSS /
// +replication(geometry) — and reports how much of the unhardened
// Crash+SDC mass the containment machinery converts into
// Detected(recovered)/Detected(degraded), plus the fault-free wall-time
// overhead each level costs on the production (clean) lane.
//
// Part 2 — replication frontier.  At level full, sweeps the per-stage
// dual-execution mask (off, each replicable stage alone, all) and emits
// one (stage, on/off) cell per scenario: campaign distribution, Crash+SDC
// reduction vs replication-off, and fault-free overhead vs the unhardened
// pipeline.  This is the coverage-vs-overhead frontier the registry's
// `replicable` attribute buys: the cross-scenario summary
// shows where all-stage replication lands relative to the geometry-only
// default.
//
// Scenarios are Inputs 1-3 (the paper pair + the low-texture night pass).
// Writes machine-readable JSON summaries (BENCH_fig14_recovery.json and
// BENCH_replication_frontier.json) into bench_out/ (or --out-dir).

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "fault/detectors.h"
#include "pipeline/stage.h"
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

double crash_sdc(const fault::outcome_rates& r) {
  return r.crash_rate() + r.rate(fault::outcome::sdc);
}

struct level_row {
  resil::hardening_level level = resil::hardening_level::off;
  fault::outcome_rates rates;
  double wall = 0.0;      ///< fault-free clean-lane wall time, ms
  double overhead = 1.0;  ///< wall / wall(off)
};

/// One (stage-mask, scenario) cell of the replication frontier.
struct frontier_cell {
  std::string setting;     ///< off | <stage> | all
  std::uint32_t mask = 0;  ///< per-stage replication mask of the cell
  fault::outcome_rates rates;
  double wall = 0.0;       ///< fault-free clean-lane wall time, ms
  double overhead = 1.0;   ///< wall / unhardened wall
  double reduction = 0.0;  ///< 1 - crash_sdc / crash_sdc(replication off)
};

/// The frontier's mask axis: replication off, each replicable stage alone,
/// then every replicable stage at once.  The geometry-only default of
/// hardening level full is the `estimate` cell.
std::vector<std::pair<std::string, std::uint32_t>> frontier_settings() {
  std::vector<std::pair<std::string, std::uint32_t>> settings;
  settings.emplace_back("off", 0u);
  for (const auto& stage : pipeline::stage_registry()) {
    if (!stage.replicable) continue;
    settings.emplace_back(stage.name, pipeline::stage_bit(stage.id));
  }
  settings.emplace_back("all", pipeline::replicable_stage_mask());
  return settings;
}

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
       << indent << "\"crash_sdc_rate\": " << crash_sdc(r) << ",\n";
}

}  // namespace

int main(int argc, char** argv) {
  auto opt = benchutil::parse_options(argc, argv);
  const int fault_frames = std::min(opt.frames, 20);
  const int timing_reps = opt.quick ? 2 : 3;

  std::ostringstream json;
  json << "{\n"
       << "  \"register_class\": \"gpr\",\n"
       << "  \"injections\": " << opt.injections << ",\n"
       << "  \"frames\": " << fault_frames << ",\n"
       << "  \"inputs\": [";

  std::ostringstream frontier;
  frontier << "{\n"
           << "  \"register_class\": \"gpr\",\n"
           << "  \"injections\": " << opt.injections << ",\n"
           << "  \"frames\": " << fault_frames << ",\n"
           << "  \"level\": \"full\",\n"
           << "  \"geometry_default\": \"estimate\",\n"
           << "  \"inputs\": [";

  // Cross-scenario accumulators for the frontier summary.
  std::vector<std::string> settings_order;
  std::vector<double> sum_crash_sdc;  // per setting, across scenarios
  std::vector<double> sum_reduction;
  std::vector<double> max_overhead;

  bool first_input = true;
  for (const auto input : benchutil::all_scenarios()) {
    const auto source = video::make_input(input, fault_frames);

    // Calibrate the hardening once per scenario from a fault-free profiled
    // run (budgets from the instrumented-lane op counts, detector
    // envelopes from the golden output) — no golden knowledge leaks into
    // the hardened runs beyond what a deployed system would have.
    const app::hardening_calibration calibration = app::calibrate_hardening(
        *source, benchutil::variant_config(app::algorithm::vs), fault_frames);

    const auto run_campaign = [&](const app::pipeline_config& config) {
      fault::campaign_config campaign;
      campaign.cls = rt::reg_class::gpr;
      campaign.injections = opt.injections;
      campaign.seed = opt.seed;
      campaign.threads = opt.threads;
      return fault::run_campaign(benchutil::vs_workload(source, config),
                                 campaign)
          .rates;
    };

    // -------------------- Part 1: cumulative levels --------------------
    benchutil::heading(
        std::string("Fig 14: cumulative hardening (GPR) — ") +
        video::input_name(input));
    std::printf("%d frames, %d injections\n", fault_frames, opt.injections);
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
      row.rates = run_campaign(config);
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

    const double before = crash_sdc(rows.front().rates);
    const double after = crash_sdc(rows.back().rates);
    const double reduction = before > 0.0 ? 1.0 - after / before : 0.0;
    std::printf("Crash+SDC: %s -> %s under full hardening (%.0f%% reduction)\n",
                benchutil::pct(before).c_str(), benchutil::pct(after).c_str(),
                100.0 * reduction);

    json << (first_input ? "" : ",") << "\n    {\n"
         << "      \"input\": \"" << video::input_name(input) << "\",\n"
         << "      \"crash_sdc_reduction_full_vs_off\": " << reduction
         << ",\n"
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

    // ------------------ Part 2: replication frontier -------------------
    const double unhardened_wall = rows.front().wall;

    benchutil::heading(
        std::string("Replication frontier at level=full (GPR) — ") +
        video::input_name(input));
    std::printf("%-10s %8s %8s %8s %8s %9s %9s %9s %9s %10s\n", "replicate",
                "mask", "crash", "sdc", "hang", "det-rec", "det-deg",
                "wall-ms", "overhead", "c+s-reduct");

    const auto settings = frontier_settings();
    if (settings_order.empty()) {
      for (const auto& [name, mask] : settings) {
        settings_order.push_back(name);
        (void)mask;
      }
      sum_crash_sdc.assign(settings.size(), 0.0);
      sum_reduction.assign(settings.size(), 0.0);
      max_overhead.assign(settings.size(), 0.0);
    }

    std::vector<frontier_cell> cells;
    for (const auto& [name, mask] : settings) {
      auto config = benchutil::variant_config(app::algorithm::vs);
      config.hardening.level = resil::hardening_level::full;
      config.hardening.replicate_stages = mask;
      calibration.apply_to(config.hardening);

      frontier_cell cell;
      cell.setting = name;
      cell.mask = mask;
      cell.wall = wall_ms(*source, config, timing_reps);
      cell.overhead = cell.wall / unhardened_wall;
      cell.rates = run_campaign(config);
      const double base =
          cells.empty() ? crash_sdc(cell.rates) : crash_sdc(cells.front().rates);
      cell.reduction =
          base > 0.0 ? 1.0 - crash_sdc(cell.rates) / base : 0.0;
      cells.push_back(cell);

      const auto& r = cell.rates;
      std::printf(
          "%-10s %8s %8s %8s %8s %9s %9s %9.1f %8.2fx %9s\n", name.c_str(),
          benchutil::pct(r.rate(fault::outcome::masked)).c_str(),
          benchutil::pct(r.crash_rate()).c_str(),
          benchutil::pct(r.rate(fault::outcome::sdc)).c_str(),
          benchutil::pct(r.rate(fault::outcome::hang)).c_str(),
          benchutil::pct(r.rate(fault::outcome::detected_recovered)).c_str(),
          benchutil::pct(r.rate(fault::outcome::detected_degraded)).c_str(),
          cell.wall, cell.overhead,
          benchutil::pct(cell.reduction, 0).c_str());
    }

    frontier << (first_input ? "" : ",") << "\n    {\n"
             << "      \"input\": \"" << video::input_name(input) << "\",\n"
             << "      \"unhardened_wall_ms\": " << unhardened_wall << ",\n"
             << "      \"cells\": [";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto& cell = cells[i];
      sum_crash_sdc[i] += crash_sdc(cell.rates);
      sum_reduction[i] += cell.reduction;
      if (cell.overhead > max_overhead[i]) max_overhead[i] = cell.overhead;
      frontier << (i == 0 ? "" : ",") << "\n        {\n"
               << "          \"replicate\": \"" << cell.setting << "\",\n"
               << "          \"mask\": " << cell.mask << ",\n";
      emit_rates(frontier, "          ", cell.rates);
      frontier << "          \"crash_sdc_reduction_vs_off\": "
               << cell.reduction << ",\n"
               << "          \"wall_ms\": " << cell.wall << ",\n"
               << "          \"fault_free_overhead\": " << cell.overhead
               << "\n        }";
    }
    frontier << "\n      ]\n    }";
    first_input = false;
  }
  json << "\n  ]\n}\n";

  // Cross-scenario frontier summary: per setting, mean Crash+SDC and mean
  // reduction across Inputs 1-3 plus the worst fault-free overhead — the
  // numbers the coverage-vs-overhead tradeoff is read from.
  const double scenarios =
      static_cast<double>(benchutil::all_scenarios().size());
  frontier << "\n  ],\n  \"summary\": [";
  benchutil::heading("Frontier summary across Inputs 1-3");
  std::printf("%-10s %16s %16s %14s\n", "replicate", "mean crash+sdc",
              "mean reduction", "max overhead");
  for (std::size_t i = 0; i < settings_order.size(); ++i) {
    const double mean_cs = sum_crash_sdc[i] / scenarios;
    const double mean_red = sum_reduction[i] / scenarios;
    std::printf("%-10s %16s %16s %13.2fx\n", settings_order[i].c_str(),
                benchutil::pct(mean_cs).c_str(),
                benchutil::pct(mean_red, 0).c_str(), max_overhead[i]);
    frontier << (i == 0 ? "" : ",") << "\n    {\n"
             << "      \"replicate\": \"" << settings_order[i] << "\",\n"
             << "      \"mean_crash_sdc_rate\": " << mean_cs << ",\n"
             << "      \"mean_crash_sdc_reduction_vs_off\": " << mean_red
             << ",\n"
             << "      \"max_fault_free_overhead\": " << max_overhead[i]
             << "\n    }";
  }
  frontier << "\n  ]\n}\n";

  const std::string dir = benchutil::output_dir(opt);
  {
    std::ofstream out(dir + "/BENCH_fig14_recovery.json");
    out << json.str();
    std::printf("\nwrote %s\n", (dir + "/BENCH_fig14_recovery.json").c_str());
  }
  {
    std::ofstream out(dir + "/BENCH_replication_frontier.json");
    out << frontier.str();
    std::printf("wrote %s\n",
                (dir + "/BENCH_replication_frontier.json").c_str());
  }
  return 0;
}
