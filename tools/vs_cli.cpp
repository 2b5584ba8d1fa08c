// vs — the command-line front end of the library.
//
// A global --simd=scalar|sse4|avx2|auto flag (any position) selects the
// clean lane's vector tier; output is byte-identical at every level.  A
// global --gate=off|skip|roi|cache|all flag arms the real-time gating
// subsystem (src/gate/) — a deliberate temporal approximation, so unlike
// --simd it changes the output; off (the default) is bit-identical to an
// ungated build.
//
// The command synopsis lives in one place, usage() below; `vs` with no
// arguments prints it.  A malformed number is a usage error (exit 2 with
// that synopsis), never a silently truncated value.

#include <csignal>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "app/events.h"
#include "app/pipeline.h"
#include "core/simd.h"
#include "core/thread_pool.h"
#include "fault/analysis.h"
#include "fault/coverage.h"
#include "gate/gate.h"
#include "fault/detectors.h"
#include "fault/report.h"
#include "fault/wire.h"
#include "image/image_io.h"
#include "perf/profiler.h"
#include "pipeline/scheduler.h"
#include "pipeline/stage.h"
#include "resil/cfcss.h"
#include "quality/metric.h"
#include "quality/sdc.h"
#include "resil/runtime.h"
#include "serve/campaign.h"
#include "serve/client.h"
#include "serve/respawn.h"
#include "serve/server.h"
#include "supervise/supervisor.h"
#include "video/generator.h"

namespace {

using namespace vs;

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: vs [--simd=scalar|sse4|avx2|auto]\n"
      "          [--gate=off|skip|roi|cache|all] <command> ...\n"
      "  vs generate  <input1|input2|input3> <frames> <out_dir>\n"
      "  vs summarize <input1|input2|input3> [algorithm] [frames] [out.pgm]\n"
      "  vs events    <input1|input2|input3> [frames] [out.ppm]\n"
      "  vs inject    <input1|input2|input3> <gpr|fpr> <injections> [algorithm]\n"
      "               [--harden[=LEVEL]] [--replicate=STAGES]\n"
      "               [--csv=path] [--json=path] [--jobs=N]\n"
      "               [--journal=path] [--resume] [--timeout=S]\n"
      "               [--serve] [--serve-kill=N] [--frames=N]\n"
      "  vs quality   <golden.pnm> <faulty.pnm>\n"
      "  vs profile   <input1|input2|input3> [frames]\n"
      "  vs stages\n"
      "  vs resil     <input1|input2|input3> [algorithm] [frames]\n"
      "               [--level=off|detectors|cfcss|full] [--retries=N]\n"
      "               [--replicate=off|geometry|all|stage,...]\n"
      "               [--budget-factor=F]\n"
      "  vs fleet     <input1|input2|input3> [algorithms...] [--frames=N]\n"
      "               [--csv=path] [--json=path] [--retries=N]\n"
      "               [--socket=PATH | --jobs=N --isolate --timeout=S\n"
      "                                --budget=N]\n"
      "  vs serve     <socket> [--queue=N] [--runners=N] [--budget=N]\n"
      "               [--isolate] [--timeout=S] [--report=path]\n"
      "               [--lookahead=N] [--journal=path] [--supervised]\n"
      "               [--pidfile=path] [--stall-timeout=S]\n"
      "               [--max-respawns=N]\n"
      "  vs submit    <socket> <input1|input2|input3> [algorithm] [frames]\n"
      "               [out.pgm] [--hardening=off|detectors|cfcss|full]\n"
      "               [--priority=interactive|batch] [--deadline=MS]\n"
      "               [--threads=N] [--stream-dir=DIR] [--id=KEY]\n"
      "               [--retries=N]\n"
      "  vs submit    <socket> --stats\n");
  std::exit(2);
}

video::input_id parse_input(const std::string& name) {
  if (name == "input1") return video::input_id::input1;
  if (name == "input2") return video::input_id::input2;
  if (name == "input3") return video::input_id::input3;
  usage();
}

/// A non-negative int in decimal (fault::wire::parse_u64); anything else
/// (empty, signed, trailing junk, out of int range) is a usage error.
int parse_count(const char* text) {
  const auto value = fault::wire::parse_u64(
      text, static_cast<std::uint64_t>(std::numeric_limits<int>::max()));
  if (!value) usage();
  return static_cast<int>(*value);
}

/// A non-negative, finite number of seconds (fault::wire::parse_nonneg);
/// anything else is a usage error.
double parse_seconds(const char* text) {
  const auto value = fault::wire::parse_nonneg(text);
  if (!value) usage();
  return *value;
}

/// A finite multiplier > 0 (fractions allowed); anything else is a usage
/// error.
double parse_factor(const char* text) {
  const double value = parse_seconds(text);
  if (!(value > 0.0)) usage();
  return value;
}

int cmd_generate(int argc, char** argv) {
  if (argc < 5) usage();
  const auto input = parse_input(argv[2]);
  const int frames = parse_count(argv[3]);
  const std::string out_dir = argv[4];
  const auto source = video::make_input(input, frames);
  for (int i = 0; i < source->frame_count(); ++i) {
    char name[64];
    std::snprintf(name, sizeof(name), "/frame_%04d.pgm", i);
    img::save_pnm(source->frame(i), out_dir + name);
  }
  std::printf("wrote %d frames (%dx%d) to %s\n", source->frame_count(),
              source->frame_width(), source->frame_height(), out_dir.c_str());
  return 0;
}

int cmd_summarize(int argc, char** argv) {
  if (argc < 3) usage();
  const auto input = parse_input(argv[2]);
  app::pipeline_config config;
  if (argc > 3) config.approx.alg = app::parse_algorithm(argv[3]);
  const int frames = argc > 4 ? parse_count(argv[4]) : 48;
  const std::string out = argc > 5 ? argv[5] : "panorama.pgm";

  const auto source = video::make_input(input, frames);
  const auto result = app::summarize(*source, config);
  std::printf(
      "%s on %s: stitched %d/%d (dropped %d, discarded %d) into %d "
      "mini-panorama(s); %zu keypoints; %d homography / %d affine\n",
      app::algorithm_name(config.approx.alg), video::input_name(input),
      result.stats.frames_stitched, result.stats.frames_total,
      result.stats.frames_dropped_rfd, result.stats.frames_discarded,
      result.stats.mini_panoramas, result.stats.keypoints_detected,
      result.stats.homography_alignments, result.stats.affine_alignments);
  img::save_pnm(result.panorama, out);
  std::printf("saved %s (%dx%d)\n", out.c_str(), result.panorama.width(),
              result.panorama.height());
  return 0;
}

int cmd_events(int argc, char** argv) {
  if (argc < 3) usage();
  const auto input = parse_input(argv[2]);
  const int frames = argc > 3 ? parse_count(argv[3]) : 48;
  const std::string out = argc > 4 ? argv[4] : "events.ppm";

  const auto source = video::make_input(input, frames);
  const auto summary = app::summarize_events(*source, app::pipeline_config{});
  std::size_t confirmed = 0;
  std::size_t total = 0;
  for (const auto& pano_tracks : summary.tracks) {
    total += pano_tracks.size();
    for (const auto& track : pano_tracks) {
      confirmed += track.state == track::track_state::confirmed ? 1u : 0u;
    }
  }
  std::printf("%d motion detections -> %zu tracks (%zu confirmed) across %d "
              "mini-panorama(s)\n",
              summary.detections_total, total, confirmed,
              summary.coverage.stats.mini_panoramas);
  img::save_pnm(summary.annotated, out);
  std::printf("saved %s (%dx%d)\n", out.c_str(), summary.annotated.width(),
              summary.annotated.height());
  return 0;
}

// `vs inject` is the one campaign front end (Section V's AFI workflow).
// Offline it runs the campaign in this process, or — with any of
// --jobs/--journal/--resume/--timeout — under the supervisor, which forks
// a worker per shard attempt.  --serve fires the same planned injections
// through a resident server instead.
int cmd_inject(int argc, char** argv) {
  if (argc < 5) usage();
  const auto input = parse_input(argv[2]);
  const bool fpr = std::strcmp(argv[3], "fpr") == 0;
  const int injections = parse_count(argv[4]);

  app::pipeline_config config;
  std::string csv_path;
  std::string json_path;
  std::string harden_level;
  std::string replicate_spec;
  bool replicate_set = false;
  supervise::supervisor_config super;
  bool supervised = false;
  bool serve_campaign = false;
  int serve_kill = 0;
  int frames = -1;  // unset: 20 offline, 12 through the serve layer
  for (int i = 5; i < argc; ++i) {
    if (std::strncmp(argv[i], "--harden", 8) == 0 &&
        (argv[i][8] == '\0' || argv[i][8] == '=')) {
      harden_level = argv[i][8] == '=' ? argv[i] + 9 : "full";
    } else if (std::strncmp(argv[i], "--replicate=", 12) == 0) {
      replicate_spec = argv[i] + 12;
      replicate_set = true;
    } else if (std::strncmp(argv[i], "--csv=", 6) == 0) {
      csv_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      super.jobs = parse_count(argv[i] + 7);
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
    } else if (std::strcmp(argv[i], "--serve") == 0) {
      serve_campaign = true;
    } else if (std::strncmp(argv[i], "--serve-kill=", 13) == 0) {
      serve_kill = parse_count(argv[i] + 13);
      serve_campaign = true;
    } else if (std::strncmp(argv[i], "--frames=", 9) == 0) {
      frames = parse_count(argv[i] + 9);
    } else {
      config.approx.alg = app::parse_algorithm(argv[i]);
    }
  }
  if (frames < 0) frames = serve_campaign ? 12 : 20;

  // Serve-layer campaign: same planned injections, but fired through a
  // resident supervised server and classified from the client's chair
  // (serve/campaign.h).
  if (serve_campaign) {
    if (supervised || !harden_level.empty() || replicate_set ||
        !csv_path.empty()) {
      std::fprintf(stderr,
                   "vs inject: --serve takes none of --harden, --replicate, "
                   "--csv, --jobs, --journal, --resume, --timeout\n");
      usage();
    }
    serve::serve_campaign_config sc;
    sc.input = input;
    sc.alg = config.approx.alg;
    sc.frames = frames;
    sc.cls = fpr ? rt::reg_class::fpr : rt::reg_class::gpr;
    sc.injections = injections;
    sc.kill_every = serve_kill;
    const auto result = serve::run_serve_campaign(sc);
    std::printf("golden %016llx over %llu %s op(s), step budget %llu\n",
                static_cast<unsigned long long>(result.golden_hash),
                static_cast<unsigned long long>(result.total_ops),
                fpr ? "fpr" : "gpr",
                static_cast<unsigned long long>(result.step_budget));
    std::printf("%s", result.to_string().c_str());
    if (!json_path.empty()) {
      char hash[24];
      std::snprintf(hash, sizeof(hash), "%016llx",
                    static_cast<unsigned long long>(result.golden_hash));
      fault::write_text_file(
          json_path,
          std::string("{\"input\": \"") + video::input_name(input) +
              "\", \"algorithm\": \"" +
              app::algorithm_name(config.approx.alg) + "\", \"class\": \"" +
              (fpr ? "fpr" : "gpr") +
              "\", \"injections\": " + std::to_string(injections) +
              ", \"kill_every\": " + std::to_string(serve_kill) +
              ", \"golden_hash\": \"" + hash + "\", \"server_restarts\": " +
              std::to_string(result.server_restarts) +
              ", \"completed\": " + std::to_string(result.counts[0]) +
              ", \"completed_after_restart\": " +
              std::to_string(result.counts[1]) +
              ", \"rejected\": " + std::to_string(result.counts[2]) +
              ", \"lost\": " + std::to_string(result.counts[3]) +
              ", \"sdc_delivered\": " + std::to_string(result.sdc_visible) +
              "}\n");
      std::printf("wrote %s\n", json_path.c_str());
    }
    return result.counts[static_cast<int>(serve::client_outcome::lost)] ==
                   0
               ? 0
               : 1;
  }

  const auto source = video::make_input(input, frames);
  const gate::level gating = gate::resolve(config.gate.request);
  std::printf("campaign: %s, %s, %d injections, %d-frame %s clip, gate=%s\n",
              app::algorithm_name(config.approx.alg), fpr ? "FPR" : "GPR",
              injections, frames, video::input_name(input),
              gate::level_name(gating));
  if (!harden_level.empty()) {
    config.hardening.level = resil::parse_hardening_level(harden_level);
    if (replicate_set) {
      config.hardening.replicate_stages =
          pipeline::parse_replicate_stages(replicate_spec);
    }
    // Stage budgets and the output-detector envelope come from one
    // fault-free profiled (unhardened) run.
    app::calibrate_hardening(*source, config, frames)
        .apply_to(config.hardening);
    std::printf("hardening: level=%s replication=%s\n",
                resil::hardening_level_name(config.hardening.level),
                pipeline::replicate_stages_name(
                    resil::replication_mask(config.hardening))
                    .c_str());
  }
  fault::campaign_config campaign;
  campaign.cls = fpr ? rt::reg_class::fpr : rt::reg_class::gpr;
  campaign.injections = injections;
  // Worker pipes carry records, not SDC images.
  campaign.keep_sdc_outputs = !supervised;
  const fault::workload work = [&] {
    return app::summarize(*source, config).panorama;
  };
  fault::campaign_result result;
  if (supervised) {
    super.workload_label = std::string(video::input_name(input)) + "/" +
                           app::algorithm_name(config.approx.alg) +
                           (fpr ? "/fpr" : "/gpr") + "/f" +
                           std::to_string(frames) + "/gate=" +
                           gate::level_name(gating) +
                           (harden_level.empty() ? "" : "/" + harden_level) +
                           (replicate_set ? "/r=" + replicate_spec : "");
    auto sharded = supervise::run_sharded_campaign(work, campaign, super);
    result = std::move(sharded.campaign);
    const auto& st = sharded.stats;
    std::printf(
        "supervisor: %zu shards (%zu resumed), %zu records recovered, "
        "%zu retries, %zu worker crashes, %zu watchdog kills, "
        "%zu quarantined\n",
        st.shards_total, st.shards_resumed, st.records_recovered, st.retries,
        st.worker_crashes, st.worker_timeouts, st.quarantined.size());
  } else {
    result = fault::run_campaign(work, campaign);
  }

  // Fixed-format outcome block: ci/check_campaign_gate.sh and
  // ci/check_resume_gate.sh parse these lines.
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

  const auto scopes = fault::scope_breakdown(result.records);
  std::printf("fired injections by function:\n");
  for (const auto& cls : scopes) {
    std::printf("  %-20s n=%-5zu mask=%.0f%% crash=%.0f%% sdc=%.0f%%\n",
                rt::fn_name(cls.scope), cls.rates.experiments,
                100.0 * cls.rates.rate(fault::outcome::masked),
                100.0 * cls.rates.crash_rate(),
                100.0 * cls.rates.rate(fault::outcome::sdc));
  }
  std::printf("fired injections by pipeline stage:\n");
  for (const auto& cls : fault::stage_breakdown(result.records)) {
    std::printf("  %-18s n=%-5zu mask=%.0f%% crash=%.0f%% sdc=%.0f%%\n",
                cls.stage == pipeline::stage_id::count_
                    ? "(outside graph)"
                    : pipeline::stage_name(cls.stage),
                cls.rates.experiments,
                100.0 * cls.rates.rate(fault::outcome::masked),
                100.0 * cls.rates.crash_rate(),
                100.0 * cls.rates.rate(fault::outcome::sdc));
  }
  const auto pruning = fault::estimate_pruning(result.records);
  std::printf("Relyzer-style pruning: %.0f%% of fired experiments fall in "
              ">=95%%-pure site classes\n",
              100.0 * pruning.prunable_fraction);

  // SDC severity, as Section V-D defines it.
  std::vector<quality::sdc_quality> sdcs;
  for (const auto& [index, faulty] : result.sdc_outputs) {
    (void)index;
    sdcs.push_back({quality::compare_images(result.golden, faulty)});
  }
  const auto cdf = quality::build_ed_cdf(sdcs);
  if (cdf.total_sdcs > 0) {
    std::printf("SDC egregiousness (%zu SDCs, %zu egregious):\n",
                cdf.total_sdcs, cdf.egregious);
    for (int ed : {0, 1, 2, 5, 10, 20, 50, 100}) {
      std::printf("  ED <= %3d: %5.1f%%\n", ed, cdf.percent_at(ed));
    }
  }
  const auto coverage = fault::analyze_coverage(result.records);
  std::printf("coverage: register CV %.3f, bit CV %.3f\n",
              coverage.register_cv, coverage.bit_cv);

  if (!csv_path.empty()) {
    fault::write_text_file(csv_path, fault::records_to_csv(result));
    std::printf("wrote %s\n", csv_path.c_str());
  }
  if (!json_path.empty()) {
    fault::write_text_file(
        json_path,
        fault::rates_to_json(result, app::algorithm_name(config.approx.alg)));
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

int cmd_quality(int argc, char** argv) {
  if (argc < 4) usage();
  const auto golden = img::load_pnm(argv[2]);
  const auto faulty = img::load_pnm(argv[3]);
  const auto q = quality::compare_images(golden, faulty);
  std::printf("relative_l2_norm = %.3f%%\n", q.relative_l2_norm);
  if (q.egregious) {
    std::printf("egregious (no ED; must be protected)\n");
  } else {
    std::printf("ED = %d (alignment dx=%d dy=%d)\n", *q.ed, q.align_dx,
                q.align_dy);
  }
  return 0;
}

int cmd_profile(int argc, char** argv) {
  if (argc < 3) usage();
  const auto input = parse_input(argv[2]);
  const int frames = argc > 3 ? parse_count(argv[3]) : 48;
  const auto source = video::make_input(input, frames);
  rt::session session;
  (void)app::summarize(*source, app::pipeline_config{});
  const auto profile = perf::function_profile(session.stats());
  for (const auto& entry : profile) {
    std::printf("%-20s %6.1f%%\n", rt::fn_name(entry.function),
                100.0 * entry.fraction);
  }
  std::printf("%-20s %6.1f%%\n", "OpenCV total",
              100.0 * perf::opencv_fraction(profile));
  std::printf("%-20s %6.1f%%\n", "warpPerspective",
              100.0 * perf::warp_fraction(profile));
  std::printf("by pipeline stage:\n");
  for (const auto& entry : perf::stage_profile(session.stats())) {
    std::printf("  %-18s %6.1f%%\n",
                entry.stage == pipeline::stage_id::count_
                    ? "(outside graph)"
                    : pipeline::stage_name(entry.stage),
                100.0 * entry.fraction);
  }
  return 0;
}

int cmd_stages() {
  std::printf("simd: detected=%s active=%s (override with --simd=LEVEL or "
              "VS_SIMD)\n",
              core::simd::level_name(core::simd::detected()),
              core::simd::level_name(core::simd::active()));
  std::printf("batching: up to %u prefetched frames per stage dispatch (the "
              "pool width; override with VS_THREADS)\n",
              core::resolve_threads(0));
  std::printf("gating: request=%s (override with --gate=LEVEL or "
              "VS_GATE)\n\n",
              gate::level_name(gate::requested_level()));
  std::printf("%-10s %-12s %-18s %-8s %-8s %s\n", "stage", "budget",
              "cfcss signature", "scope?", "replica", "rt scopes");
  for (const auto& stage : pipeline::stage_registry()) {
    std::string scopes;
    for (const rt::fn f : stage.scopes) {
      if (f == rt::fn::count_) continue;
      if (!scopes.empty()) scopes += ",";
      scopes += rt::fn_name(f);
    }
    std::printf("%-10s %-12s 0x%016llx %-8s %-8s %s\n", stage.name,
                pipeline::budget_key_name(stage.budget),
                static_cast<unsigned long long>(
                    resil::cfcss::static_signature(stage.node)),
                stage.opens_scope ? "opens" : "fused",
                stage.replicable ? "yes" : "-", scopes.c_str());
  }
  std::printf(
      "\n'fused' stages ride inside the previous stage's watchdog scope.\n"
      "'replica' stages may dual-execute (--replicate / hardening full).\n");
  return 0;
}

int cmd_resil(int argc, char** argv) {
  if (argc < 3) usage();
  const auto input = parse_input(argv[2]);

  app::pipeline_config config;
  config.hardening.level = resil::hardening_level::full;
  int frames = 48;
  double budget_factor = 25.0;
  for (int i = 3; i < argc; ++i) {
    if (std::strncmp(argv[i], "--level=", 8) == 0) {
      config.hardening.level = resil::parse_hardening_level(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--retries=", 10) == 0) {
      config.hardening.max_frame_retries = parse_count(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--replicate=", 12) == 0) {
      config.hardening.replicate_stages =
          pipeline::parse_replicate_stages(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--budget-factor=", 16) == 0) {
      budget_factor = parse_factor(argv[i] + 16);
    } else if (std::isdigit(static_cast<unsigned char>(argv[i][0]))) {
      frames = parse_count(argv[i]);
    } else {
      config.approx.alg = app::parse_algorithm(argv[i]);
    }
  }

  const auto source = video::make_input(input, frames);

  if (config.hardening.enabled()) {
    app::calibrate_hardening(*source, config, frames, budget_factor)
        .apply_to(config.hardening);
  }

  const auto result = app::summarize(*source, config);
  const auto& rec = result.recovery;
  std::printf("hardened run: %s on %s, %d frames, level=%s, retries=%d, "
              "replicate=%s\n",
              app::algorithm_name(config.approx.alg), video::input_name(input),
              frames, resil::hardening_level_name(config.hardening.level),
              config.hardening.max_frame_retries,
              pipeline::replicate_stages_name(
                  resil::replication_mask(config.hardening))
                  .c_str());
  std::printf("  stitched %d/%d frames into %d mini-panorama(s)\n",
              result.stats.frames_stitched, result.stats.frames_total,
              result.stats.mini_panoramas);
  std::printf("recovery report:\n");
  std::printf("  crashes contained    %u\n", rec.crashes_contained);
  std::printf("  stage hangs          %u\n", rec.stage_hangs);
  std::printf("  cfcss violations     %u\n", rec.cfcss_violations);
  std::printf("  replica divergences  %u\n", rec.replica_divergences);
  std::printf("  frame retries        %u\n", rec.retries);
  std::printf("  frames recovered     %u\n", rec.frames_recovered);
  std::printf("  frames degraded      %u (skipped %u)\n", rec.frames_degraded,
              rec.frames_skipped);
  std::printf("  panoramas dropped    %u\n", rec.panoramas_dropped);
  if (rec.output_checked) {
    std::printf("  output detectors     %s\n",
                fault::detection_verdict_name(rec.output_verdict));
  }
  return 0;
}

// `vs fleet` without --socket: a serve::server on a private socket in a
// fresh temporary directory, its accept loop on a background thread.
// Destruction drains it (every accepted clip finishes first), joins the
// loop and removes the directory.
class private_server {
 public:
  explicit private_server(serve::server_config config) {
    std::string dir =
        (std::filesystem::temp_directory_path() / "vs-fleet-XXXXXX").string();
    if (::mkdtemp(dir.data()) == nullptr) {
      throw io_error("fleet: cannot create a directory for the socket");
    }
    dir_ = dir;
    config.socket_path = dir_ + "/fleet.sock";
    server_ = std::make_unique<serve::server>(std::move(config));
    try {
      server_->start();
    } catch (...) {
      server_.reset();
      std::error_code ignored;
      std::filesystem::remove_all(dir_, ignored);
      throw;
    }
    loop_ = std::thread([this] { server_->run(); });
  }
  ~private_server() {
    server_->request_drain();
    loop_.join();
    server_.reset();
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }
  private_server(const private_server&) = delete;
  private_server& operator=(const private_server&) = delete;

  [[nodiscard]] const std::string& socket_path() const {
    return server_->socket_path();
  }

 private:
  std::string dir_;
  std::unique_ptr<serve::server> server_;
  std::thread loop_;
};

// One settled fleet clip, as the reports and the summary print it.
struct clip_row {
  bool completed = false;
  fault::outcome failure = fault::outcome::crash_abort;
  std::uint64_t panorama_hash = 0;
  int frames_stitched = 0;
  int mini_panoramas = 0;
  double wall_ms = 0.0;  ///< submit to terminal reply, as the client saw it
  int attempts = 0;      ///< submissions
};

int cmd_fleet(int argc, char** argv) {
  if (argc < 3) usage();
  const auto input = parse_input(argv[2]);

  serve::server_config config;
  // Every live thread is a leased slot: no shared stage scheduler, whose
  // dispatcher would be an unbudgeted extra thread.  The montage is
  // byte-identical at any lookahead.
  config.lookahead = 0;
  int frames = 20;
  std::string csv_path;
  std::string json_path;
  std::string socket_path;
  int retries = 0;
  std::vector<app::algorithm> algorithms;
  for (int i = 3; i < argc; ++i) {
    if (std::strncmp(argv[i], "--frames=", 9) == 0) {
      frames = parse_count(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      config.runners = parse_count(argv[i] + 7);
    } else if (std::strcmp(argv[i], "--isolate") == 0) {
      config.isolate = true;
    } else if (std::strncmp(argv[i], "--timeout=", 10) == 0) {
      config.job_timeout_s = parse_seconds(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--budget=", 9) == 0) {
      config.pool_budget = static_cast<unsigned>(parse_count(argv[i] + 9));
    } else if (std::strncmp(argv[i], "--csv=", 6) == 0) {
      csv_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--socket=", 9) == 0) {
      socket_path = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--retries=", 10) == 0) {
      retries = parse_count(argv[i] + 10);
    } else {
      algorithms.push_back(app::parse_algorithm(argv[i]));
    }
  }
  if (algorithms.empty()) {
    algorithms = {app::algorithm::vs, app::algorithm::vs_rfd,
                  app::algorithm::vs_kds, app::algorithm::vs_sm};
  }

  // Streamed reports: one flushed row the moment each clip settles, not a
  // buffered dump after the fleet — kill the fleet mid-run and the files
  // hold every outcome that had completed.
  fault::report_stream csv;
  fault::report_stream jsonl;
  if (!csv_path.empty()) {
    csv.open(csv_path,
             "clip,input,algorithm,frames,completed,outcome,panorama_hash,"
             "frames_stitched,mini_panoramas,wall_ms,attempts");
  }
  if (!json_path.empty()) jsonl.open(json_path, "");
  std::mutex report_mutex;
  const auto report = [&](std::size_t index, app::algorithm alg,
                          const clip_row& r) {
    char hash[24];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(r.panorama_hash));
    char wall[32];
    std::snprintf(wall, sizeof(wall), "%.3f", r.wall_ms);
    const char* outcome =
        r.completed ? "completed" : fault::outcome_name(r.failure);
    const std::lock_guard<std::mutex> lock(report_mutex);
    if (csv.active()) {
      csv.append(std::to_string(index) + ',' + video::input_name(input) +
                 ',' + app::algorithm_name(alg) + ',' +
                 std::to_string(frames) + ',' + (r.completed ? "1," : "0,") +
                 outcome + ',' + hash + ',' +
                 std::to_string(r.frames_stitched) + ',' +
                 std::to_string(r.mini_panoramas) + ',' + wall + ',' +
                 std::to_string(r.attempts));
    }
    if (jsonl.active()) {
      jsonl.append(std::string("{\"clip\": ") + std::to_string(index) +
                   ", \"input\": \"" + video::input_name(input) +
                   "\", \"algorithm\": \"" + app::algorithm_name(alg) +
                   "\", \"frames\": " + std::to_string(frames) +
                   ", \"completed\": " + (r.completed ? "true" : "false") +
                   ", \"outcome\": \"" + outcome +
                   "\", \"panorama_hash\": \"" + hash +
                   "\", \"frames_stitched\": " +
                   std::to_string(r.frames_stitched) +
                   ", \"mini_panoramas\": " +
                   std::to_string(r.mini_panoramas) +
                   ", \"wall_ms\": " + wall +
                   ", \"attempts\": " + std::to_string(r.attempts) + "}");
    }
  };

  // Every clip is a resilient submission to a server: the one at --socket,
  // or else a private one in this process sized by --jobs/--isolate/
  // --timeout/--budget, whose queue holds the whole fleet so no clip is
  // ever turned away.  Idempotency keys make the client's reconnects safe.
  std::optional<private_server> local;
  if (socket_path.empty()) {
    config.queue_capacity = algorithms.size();
    // No idle runners: each clip's fair share of the budget is split
    // across at most as many runners as there are clips.
    config.runners = std::min(config.runners,
                              static_cast<int>(algorithms.size()));
    local.emplace(config);
    socket_path = local->socket_path();
  }
  std::vector<clip_row> rows(algorithms.size());
  std::vector<std::thread> threads;
  threads.reserve(algorithms.size());
  for (std::size_t i = 0; i < algorithms.size(); ++i) {
    threads.emplace_back([&, i] {
      serve::job_request request;
      request.input = input;
      request.alg = algorithms[i];
      request.frames = frames;
      request.client_key = "fleet-" +
                           std::to_string(static_cast<long>(::getpid())) +
                           "-" + std::to_string(i);
      serve::resilient_policy policy;
      if (retries > 0) policy.backoff.max_attempts = retries;
      serve::client c(socket_path, /*receive_timeout_s=*/300.0);
      const auto t0 = std::chrono::steady_clock::now();
      const serve::submit_outcome out = c.submit_resilient(request, policy);
      clip_row& r = rows[i];
      r.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
      r.attempts = out.attempts;
      if (out.complete) {
        r.completed = true;
        r.panorama_hash = out.complete->panorama_hash;
        r.frames_stitched = out.complete->stats.frames_stitched;
        r.mini_panoramas = out.complete->stats.mini_panoramas;
      } else if (out.failed) {
        r.failure = out.failed->failure;
      }  // Rejected or Lost: nothing ran to completion (crash_abort).
      report(i, algorithms[i], r);
    });
  }
  for (auto& t : threads) t.join();
  local.reset();
  if (!csv_path.empty()) std::printf("wrote %s\n", csv_path.c_str());
  if (!json_path.empty()) std::printf("wrote %s\n", json_path.c_str());

  int failed = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    if (r.completed) {
      std::printf(
          "%-7s %s: panorama %016llx, %d frame(s) in %d mini-panorama(s), "
          "%.0f ms, %d attempt(s)\n",
          app::algorithm_name(algorithms[i]), video::input_name(input),
          static_cast<unsigned long long>(r.panorama_hash), r.frames_stitched,
          r.mini_panoramas, r.wall_ms, r.attempts);
    } else {
      ++failed;
      std::printf("%-7s %s: FAILED (%s) after %d attempt(s)\n",
                  app::algorithm_name(algorithms[i]), video::input_name(input),
                  fault::outcome_name(r.failure), r.attempts);
    }
  }
  return failed == 0 ? 0 : 1;
}

// SIGTERM/SIGINT must start a graceful drain, not kill the process: the
// handler only touches request_drain(), which is a single write(2) on the
// server's self-pipe (async-signal-safe by construction).
serve::server* g_serve_instance = nullptr;

extern "C" void handle_drain_signal(int) {
  if (g_serve_instance != nullptr) g_serve_instance->request_drain();
}

// Supervised mode: SIGTERM/SIGINT stop the SUPERVISOR (which SIGTERMs the
// child so it drains); the child generation installs its own drain handler
// post-fork (serve/respawn.cpp).
serve::respawn_supervisor* g_respawn_instance = nullptr;

extern "C" void handle_supervisor_signal(int) {
  if (g_respawn_instance != nullptr) g_respawn_instance->request_shutdown();
}

int cmd_serve(int argc, char** argv) {
  if (argc < 3) usage();
  serve::server_config config;
  config.socket_path = argv[2];
  bool supervised = false;
  serve::respawn_config respawn;
  for (int i = 3; i < argc; ++i) {
    if (std::strncmp(argv[i], "--queue=", 8) == 0) {
      config.queue_capacity =
          static_cast<std::size_t>(parse_count(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--runners=", 10) == 0) {
      config.runners = parse_count(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--budget=", 9) == 0) {
      config.pool_budget = static_cast<unsigned>(parse_count(argv[i] + 9));
    } else if (std::strcmp(argv[i], "--isolate") == 0) {
      config.isolate = true;
    } else if (std::strncmp(argv[i], "--timeout=", 10) == 0) {
      config.job_timeout_s = parse_seconds(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--report=", 9) == 0) {
      config.report_path = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--lookahead=", 12) == 0) {
      config.lookahead = parse_count(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--journal=", 10) == 0) {
      config.journal_path = argv[i] + 10;
    } else if (std::strcmp(argv[i], "--supervised") == 0) {
      supervised = true;
    } else if (std::strncmp(argv[i], "--pidfile=", 10) == 0) {
      respawn.pidfile = argv[i] + 10;
      supervised = true;
    } else if (std::strncmp(argv[i], "--stall-timeout=", 16) == 0) {
      respawn.stall_timeout_s = parse_seconds(argv[i] + 16);
      supervised = true;
    } else if (std::strncmp(argv[i], "--max-respawns=", 15) == 0) {
      respawn.max_consecutive_failures = parse_count(argv[i] + 15);
      supervised = true;
    } else {
      usage();
    }
  }

  if (supervised) {
    respawn.server = config;
    serve::respawn_supervisor supervisor(respawn);
    g_respawn_instance = &supervisor;
    std::signal(SIGTERM, handle_supervisor_signal);
    std::signal(SIGINT, handle_supervisor_signal);
    const auto stats = supervisor.run();
    g_respawn_instance = nullptr;
    std::printf(
        "supervisor: %llu generation(s), %llu crash(es), %llu hang(s), "
        "%llu failure(s)%s%s\n",
        static_cast<unsigned long long>(stats.generations),
        static_cast<unsigned long long>(stats.crashes),
        static_cast<unsigned long long>(stats.hangs),
        static_cast<unsigned long long>(stats.failures),
        stats.clean_exit ? ", clean exit" : "",
        stats.gave_up ? ", GAVE UP" : "");
    return stats.clean_exit ? 0 : 1;
  }

  serve::server server(config);
  server.start();
  g_serve_instance = &server;
  std::signal(SIGTERM, handle_drain_signal);
  std::signal(SIGINT, handle_drain_signal);
  server.run();
  g_serve_instance = nullptr;

  const auto s = server.stats();
  std::printf("served %llu job(s) (%llu failed, %llu rejected); "
              "latency p50 %.0f ms, p95 %.0f ms, p99 %.0f ms\n",
              static_cast<unsigned long long>(s.completed),
              static_cast<unsigned long long>(s.failed),
              static_cast<unsigned long long>(s.rejected),
              s.latency.p50_ms, s.latency.p95_ms, s.latency.p99_ms);
  return 0;
}

int cmd_submit(int argc, char** argv) {
  if (argc < 4) usage();
  const std::string socket_path = argv[2];

  if (std::strcmp(argv[3], "--stats") == 0) {
    serve::client c(socket_path, 30.0);
    const auto s = c.stats();
    std::printf(
        "queue %llu, in-flight %llu, completed %llu, rejected %llu, "
        "failed %llu%s\n",
        static_cast<unsigned long long>(s.queue_depth),
        static_cast<unsigned long long>(s.in_flight),
        static_cast<unsigned long long>(s.completed),
        static_cast<unsigned long long>(s.rejected),
        static_cast<unsigned long long>(s.failed),
        s.draining ? " (draining)" : "");
    std::printf("pool: %llu/%llu slot(s) leased (peak %llu)\n",
                static_cast<unsigned long long>(s.pool_in_use),
                static_cast<unsigned long long>(s.pool_budget),
                static_cast<unsigned long long>(s.pool_peak_in_use));
    std::printf("crash-only: %llu restart(s), journal depth %llu, "
                "%llu job(s) replayed at boot\n",
                static_cast<unsigned long long>(s.restarts),
                static_cast<unsigned long long>(s.journal_depth),
                static_cast<unsigned long long>(s.replayed));
    std::printf("latency over %zu job(s): mean %.0f ms, p50 %.0f ms, "
                "p95 %.0f ms, p99 %.0f ms, max %.0f ms\n",
                s.latency.count, s.latency.mean_ms, s.latency.p50_ms,
                s.latency.p95_ms, s.latency.p99_ms, s.latency.max_ms);
    return 0;
  }

  serve::job_request request;
  request.input = parse_input(argv[3]);
  std::string out = "panorama.pgm";
  std::string stream_dir;
  bool resilient = false;
  int retries = 0;
  int positional = 0;
  for (int i = 4; i < argc; ++i) {
    if (std::strncmp(argv[i], "--hardening=", 12) == 0) {
      request.hardening = resil::parse_hardening_level(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--id=", 5) == 0) {
      request.client_key = argv[i] + 5;
      resilient = true;
    } else if (std::strncmp(argv[i], "--retries=", 10) == 0) {
      retries = parse_count(argv[i] + 10);
      resilient = true;
    } else if (std::strncmp(argv[i], "--priority=", 11) == 0) {
      const std::string p = argv[i] + 11;
      if (p == "interactive") {
        request.priority = serve::priority_class::interactive;
      } else if (p == "batch") {
        request.priority = serve::priority_class::batch;
      } else {
        usage();
      }
    } else if (std::strncmp(argv[i], "--deadline=", 11) == 0) {
      request.deadline_ms =
          static_cast<std::uint64_t>(parse_count(argv[i] + 11));
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      request.max_threads = static_cast<unsigned>(parse_count(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--stream-dir=", 13) == 0) {
      stream_dir = argv[i] + 13;
    } else if (positional == 0 &&
               !std::isdigit(static_cast<unsigned char>(argv[i][0]))) {
      request.alg = app::parse_algorithm(argv[i]);
      ++positional;
    } else if (positional <= 1 &&
               std::isdigit(static_cast<unsigned char>(argv[i][0]))) {
      request.frames = parse_count(argv[i]);
      positional = 2;
    } else {
      out = argv[i];
      positional = 3;
    }
  }

  serve::client c(socket_path, 300.0);
  const auto on_mini = [&](const serve::panorama_msg& m) {
    std::printf("streamed mini-panorama %d (%dx%d)\n", m.index,
                m.image.width(), m.image.height());
    if (!stream_dir.empty()) {
      char name[64];
      std::snprintf(name, sizeof(name), "/mini_%04d.pgm", m.index);
      img::save_pnm(m.image, stream_dir + name);
    }
  };
  serve::submit_outcome outcome;
  if (resilient) {
    // Crash-tolerant path: reconnect with backoff under an idempotency
    // key; a resubmission adopts the journaled job instead of re-running.
    serve::resilient_policy policy;
    if (retries > 0) policy.backoff.max_attempts = retries;
    outcome = c.submit_resilient(request, policy, on_mini);
    if (outcome.reconnects > 0) {
      std::printf("reconnected %d time(s) over %d attempt(s)\n",
                  outcome.reconnects, outcome.attempts);
    }
    if (!outcome.complete && !outcome.failed && !outcome.rejected) {
      std::printf("LOST: no terminal reply after %d attempt(s)\n",
                  outcome.attempts);
      return 4;
    }
  } else {
    outcome = c.submit(request, on_mini);
  }

  if (outcome.rejected) {
    std::printf("rejected: %s (queue depth %llu, retry after %llu ms)\n",
                serve::reject_reason_name(outcome.rejected->reason),
                static_cast<unsigned long long>(
                    outcome.rejected->queue_depth),
                static_cast<unsigned long long>(
                    outcome.rejected->retry_after_ms));
    return 3;
  }
  if (outcome.failed) {
    std::printf("job %llu FAILED (%s): %s\n",
                static_cast<unsigned long long>(outcome.failed->job_id),
                fault::outcome_name(outcome.failed->failure),
                outcome.failed->message.c_str());
    return 1;
  }
  const auto& done = *outcome.complete;
  std::printf(
      "%s on %s: stitched %d/%d (dropped %d, discarded %d) into %d "
      "mini-panorama(s); %zu keypoints; %d homography / %d affine\n",
      app::algorithm_name(request.alg), video::input_name(request.input),
      done.stats.frames_stitched, done.stats.frames_total,
      done.stats.frames_dropped_rfd, done.stats.frames_discarded,
      done.stats.mini_panoramas, done.stats.keypoints_detected,
      done.stats.homography_alignments, done.stats.affine_alignments);
  img::save_pnm(done.montage, out);
  std::printf("saved %s (%dx%d)\n", out.c_str(), done.montage.width(),
              done.montage.height());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Global --simd=LEVEL / --gate=LEVEL flags: consumed here, before command
  // dispatch, so every command sees the requested clean-lane SIMD tier and
  // gating level.  The flags win over the VS_SIMD / VS_GATE environment
  // variables.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--simd=", 7) == 0) {
      const auto parsed = vs::core::simd::parse_level(arg + 7);
      if (!parsed) {
        std::fprintf(stderr,
                     "error: --simd expects scalar|sse4|avx2|auto, got %s\n",
                     arg + 7);
        return 2;
      }
      vs::core::simd::set_level(*parsed);
      continue;
    }
    if (std::strncmp(arg, "--gate=", 7) == 0) {
      try {
        vs::gate::set_level(vs::gate::parse_level(arg + 7));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: --gate: %s\n", e.what());
        return 2;
      }
      continue;
    }
    argv[kept++] = argv[i];
  }
  argc = kept;
  argv[argc] = nullptr;
  if (argc < 2) usage();
  const std::string command = argv[1];
  try {
    if (command == "generate") return cmd_generate(argc, argv);
    if (command == "summarize") return cmd_summarize(argc, argv);
    if (command == "events") return cmd_events(argc, argv);
    if (command == "inject") return cmd_inject(argc, argv);
    if (command == "quality") return cmd_quality(argc, argv);
    if (command == "profile") return cmd_profile(argc, argv);
    if (command == "stages") return cmd_stages();
    if (command == "resil") return cmd_resil(argc, argv);
    if (command == "fleet") return cmd_fleet(argc, argv);
    if (command == "serve") return cmd_serve(argc, argv);
    if (command == "submit") return cmd_submit(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
}
