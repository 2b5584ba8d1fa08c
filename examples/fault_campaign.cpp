// Run a fault-injection campaign from the command line — the AFI workflow
// of Section V in miniature.
//
//   $ ./fault_campaign [algorithm] [gpr|fpr] [injections] [frames]
//         [--harden[=LEVEL]] [--replicate=STAGES] [--gate=LEVEL]
//         [--gate-sweep] [--jobs=N] [--isolate]
//         [--journal=PATH] [--resume] [--timeout=SECONDS]
//
// Example: ./fault_campaign VS_RFD gpr 500 20
//          ./fault_campaign VS gpr 50 10 --harden        (full hardening)
//          ./fault_campaign VS gpr 50 10 --harden=cfcss
//          ./fault_campaign VS gpr 50 10 --harden --replicate=all
//          ./fault_campaign VS gpr 100 20 --gate=all     (gated workload)
//          ./fault_campaign VS gpr 100 20 --gate-sweep   (Fig 10/11 analog)
//          ./fault_campaign VS gpr 300 20 --jobs=4 --isolate \
//              --journal=campaign.journal --resume
//
// --gate=LEVEL runs the campaign against the gated workload (the gated
// state is part of the fault surface: the change score, the chosen shift,
// the classification branch and the extrapolation search are all hook
// sites).  --gate-sweep runs a campaign per gate level across the full
// scenario matrix (Inputs 1-3) and prints one outcome-distribution table
// per input — the gating analog of the paper's per-approximation Fig 10/11
// comparison.
//
// With --harden the workload runs under the src/resil/ containment
// subsystem: stage budgets and output-detector envelopes are calibrated
// from one fault-free profiled run first.  --replicate overrides the
// level's default per-stage dual-execution mask (off, geometry, all, or a
// comma-separated stage list — see `vs stages`).
//
// Any of --jobs/--isolate/--journal/--resume engages the process-isolated
// supervisor (src/supervise/): experiments shard across workers,
// --isolate forks one process per shard attempt (real crash/hang
// containment), --journal checkpoints completed work so --resume continues
// an interrupted campaign.  The outcome distribution is bit-identical to
// the plain run at any job count.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "app/pipeline.h"
#include "fault/campaign.h"
#include "fault/coverage.h"
#include "fault/detectors.h"
#include "fault/wire.h"
#include "gate/gate.h"
#include "pipeline/stage.h"
#include "quality/sdc.h"
#include "resil/hardening.h"
#include "rt/instrument.h"
#include "supervise/supervisor.h"
#include "video/generator.h"

namespace {

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: fault_campaign [algorithm] [gpr|fpr] [injections] [frames]\n"
      "         [--harden[=LEVEL]] [--replicate=STAGES] [--gate=LEVEL]\n"
      "         [--gate-sweep] [--jobs=N] [--isolate]\n"
      "         [--journal=PATH] [--resume] [--timeout=SECONDS]\n");
  std::exit(2);
}

/// A non-negative int in decimal; anything else is a usage error.
int parse_count(const std::string& text) {
  const auto value = vs::fault::wire::parse_u64(
      text, static_cast<std::uint64_t>(std::numeric_limits<int>::max()));
  if (!value) usage();
  return static_cast<int>(*value);
}

/// A non-negative, finite number of seconds; anything else is a usage
/// error.
double parse_seconds(const std::string& text) {
  const auto value = vs::fault::wire::parse_nonneg(text);
  if (!value) usage();
  return *value;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vs;
  std::vector<std::string> positional;
  std::string harden_level;
  std::string replicate_spec;
  bool replicate_set = false;
  int gate_request = gate::kLevelInherit;
  bool gate_sweep = false;
  supervise::supervisor_config super;
  bool supervised = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--harden", 8) == 0 &&
        (argv[i][8] == '\0' || argv[i][8] == '=')) {
      harden_level = argv[i][8] == '=' ? argv[i] + 9 : "full";
    } else if (std::strncmp(argv[i], "--replicate=", 12) == 0) {
      replicate_spec = argv[i] + 12;
      replicate_set = true;
    } else if (std::strncmp(argv[i], "--gate=", 7) == 0) {
      gate_request = static_cast<int>(gate::parse_level(argv[i] + 7));
    } else if (std::strcmp(argv[i], "--gate-sweep") == 0) {
      gate_sweep = true;
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      super.jobs = parse_count(argv[i] + 7);
      supervised = true;
    } else if (std::strcmp(argv[i], "--isolate") == 0) {
      super.isolate = true;
      supervised = true;
    } else if (std::strncmp(argv[i], "--journal=", 10) == 0) {
      super.journal_path = argv[i] + 10;
      supervised = true;
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      super.resume = true;
      supervised = true;
    } else if (std::strncmp(argv[i], "--timeout=", 10) == 0) {
      super.shard_timeout_s = parse_seconds(argv[i] + 10);
      supervised = true;
    } else {
      positional.emplace_back(argv[i]);
    }
  }
  const std::string alg_name = !positional.empty() ? positional[0] : "VS";
  const bool fpr = positional.size() > 1 && positional[1] == "fpr";
  const int injections =
      positional.size() > 2 ? parse_count(positional[2]) : 300;
  const int frames =
      positional.size() > 3 ? parse_count(positional[3]) : 20;

  if (gate_sweep) {
    // Per-gate-level outcome distributions across the scenario matrix: the
    // gating analog of the paper's per-approximation resiliency comparison
    // (Figs 10/11).  Each cell is its own campaign against the gated
    // workload — the golden (and therefore the SDC verdicts) is the gated
    // fault-free output, so a row measures how the approximation itself
    // tolerates faults, not how far gating drifts from exact.
    const std::vector<gate::level> levels = {
        gate::level::off, gate::level::skip, gate::level::roi,
        gate::level::cache, gate::level::all};
    for (const auto input :
         {video::input_id::input1, video::input_id::input2,
          video::input_id::input3}) {
      const auto source = video::make_input(input, frames);
      std::printf("\n%s: %s, %d injections/level, %d frames%s\n",
                  video::input_name(input), fpr ? "FPR" : "GPR", injections,
                  frames,
                  harden_level.empty() ? "" : (", hardening=" + harden_level)
                                                  .c_str());
      std::printf("%8s %8s %8s %8s %8s %9s %9s %10s\n", "gate", "masked",
                  "crash", "sdc", "hang", "det(rec)", "det(deg)",
                  "egregious");
      for (const auto level : levels) {
        app::pipeline_config config;
        config.approx.alg = app::parse_algorithm(alg_name);
        config.gate.request = static_cast<int>(level);
        if (!harden_level.empty()) {
          config.hardening.level = resil::parse_hardening_level(harden_level);
          if (replicate_set) {
            config.hardening.replicate_stages =
                pipeline::parse_replicate_stages(replicate_spec);
          }
          app::calibrate_hardening(*source, config, frames)
              .apply_to(config.hardening);
        }
        fault::campaign_config campaign;
        campaign.cls = fpr ? rt::reg_class::fpr : rt::reg_class::gpr;
        campaign.injections = injections;
        const auto result = fault::run_campaign(
            [&] { return app::summarize(*source, config).panorama; },
            campaign);
        std::size_t egregious = 0;
        for (const auto& [index, faulty] : result.sdc_outputs) {
          (void)index;
          if (quality::compare_images(result.golden, faulty).egregious) {
            ++egregious;
          }
        }
        const auto& r = result.rates;
        std::printf("%8s %7.2f%% %7.2f%% %7.2f%% %7.2f%% %8.2f%% %8.2f%% %10zu\n",
                    gate::level_name(level),
                    100.0 * r.rate(fault::outcome::masked),
                    100.0 * r.crash_rate(),
                    100.0 * r.rate(fault::outcome::sdc),
                    100.0 * r.rate(fault::outcome::hang),
                    100.0 * r.rate(fault::outcome::detected_recovered),
                    100.0 * r.rate(fault::outcome::detected_degraded),
                    egregious);
      }
    }
    return 0;
  }

  app::pipeline_config config;
  config.approx.alg = app::parse_algorithm(alg_name);
  config.gate.request = gate_request;
  const auto source = video::make_input(video::input_id::input1, frames);

  if (!harden_level.empty()) {
    config.hardening.level = resil::parse_hardening_level(harden_level);
    if (replicate_set) {
      config.hardening.replicate_stages =
          pipeline::parse_replicate_stages(replicate_spec);
    }
    // Calibrate stage budgets and the output-detector envelope from one
    // fault-free profiled (unhardened) run.
    app::calibrate_hardening(*source, config, frames)
        .apply_to(config.hardening);
  }

  std::printf("campaign: %s, %s, %d injections, %d-frame Input1 clip%s%s\n",
              app::algorithm_name(config.approx.alg), fpr ? "FPR" : "GPR",
              injections, frames,
              harden_level.empty() ? "" : ", hardening=",
              harden_level.c_str());
  if (gate_request != gate::kLevelInherit) {
    std::printf("gating: %s\n",
                gate::level_name(static_cast<gate::level>(gate_request)));
  }
  if (!harden_level.empty()) {
    std::printf("replication: %s\n",
                pipeline::replicate_stages_name(
                    resil::replication_mask(config.hardening))
                    .c_str());
  }

  fault::campaign_config campaign;
  campaign.cls = fpr ? rt::reg_class::fpr : rt::reg_class::gpr;
  campaign.injections = injections;
  // The supervisor does not ship SDC images across worker pipes.
  campaign.keep_sdc_outputs = !supervised;

  const fault::workload work = [&] {
    return app::summarize(*source, config).panorama;
  };
  fault::campaign_result result;
  supervise::shard_stats stats;
  if (supervised) {
    super.workload_label =
        alg_name + (fpr ? "/fpr" : "/gpr") + "/f" + std::to_string(frames) +
        (harden_level.empty() ? "" : "/" + harden_level) +
        (replicate_set ? "/r=" + replicate_spec : "") +
        (gate_request == gate::kLevelInherit
             ? ""
             : std::string("/gate=") +
                   gate::level_name(static_cast<gate::level>(gate_request)));
    auto sharded = supervise::run_sharded_campaign(work, campaign, super);
    result = std::move(sharded.campaign);
    stats = std::move(sharded.stats);
  } else {
    result = fault::run_campaign(work, campaign);
  }

  const auto& r = result.rates;
  std::printf("\noutcomes over %zu experiments:\n", r.experiments);
  std::printf("  masked          %6.2f%%\n",
              100.0 * r.rate(fault::outcome::masked));
  std::printf("  crash           %6.2f%%  (segfault %zu, abort %zu)\n",
              100.0 * r.crash_rate(), r.crash_segfault, r.crash_abort);
  std::printf("  sdc             %6.2f%%\n",
              100.0 * r.rate(fault::outcome::sdc));
  std::printf("  hang            %6.2f%%\n",
              100.0 * r.rate(fault::outcome::hang));
  if (!harden_level.empty()) {
    std::printf("  detected(rec)   %6.2f%%  (fault caught, output == golden)\n",
                100.0 * r.rate(fault::outcome::detected_recovered));
    std::printf("  detected(deg)   %6.2f%%  (fault caught, output degraded)\n",
                100.0 * r.rate(fault::outcome::detected_degraded));
  }

  if (supervised) {
    std::printf(
        "\nsupervisor: %zu shards (%zu resumed), %zu records recovered, "
        "%zu retries, %zu worker crashes, %zu watchdog kills, "
        "%zu quarantined\n",
        stats.shards_total, stats.shards_resumed, stats.records_recovered,
        stats.retries, stats.worker_crashes, stats.worker_timeouts,
        stats.quarantined.size());
  }

  // SDC severity, as Section V-D defines it.
  std::vector<quality::sdc_quality> sdcs;
  for (const auto& [index, faulty] : result.sdc_outputs) {
    (void)index;
    sdcs.push_back({quality::compare_images(result.golden, faulty)});
  }
  const auto cdf = quality::build_ed_cdf(sdcs);
  if (cdf.total_sdcs > 0) {
    std::printf("\nSDC egregiousness (%zu SDCs, %zu egregious):\n",
                cdf.total_sdcs, cdf.egregious);
    for (int ed : {0, 1, 2, 5, 10, 20, 50, 100}) {
      std::printf("  ED <= %3d: %5.1f%%\n", ed, cdf.percent_at(ed));
    }
  }

  const auto coverage = fault::analyze_coverage(result.records);
  std::printf("\ncoverage: register CV %.3f, bit CV %.3f\n",
              coverage.register_cv, coverage.bit_cv);
  return 0;
}
