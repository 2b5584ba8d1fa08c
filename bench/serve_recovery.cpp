// Crash-recovery drill for the summarization service (ISSUE 9 tentpole
// acceptance scenario).
//
// Scenario A — kill mid-load: boots a SUPERVISED, journaled, isolate-mode
// server, offers a 16-client burst of jobs (each with an idempotency key
// and a resilient-submit budget), SIGKILLs the server child once the burst
// is in flight, and verifies the crash-only contract end to end:
//
//   * zero accepted jobs lost — every client eventually holds a terminal
//     completion despite the kill;
//   * byte-identity across the crash — every delivered montage hash equals
//     the one-shot app::summarize reference for its (input, variant), so a
//     replayed job is indistinguishable from a first-run job;
//   * bounded recovery — the gap between the SIGKILL and the first
//     post-restart completion is reported as recovery_ms.
//
// Scenario B — serve-layer fault campaign: runs `vs inject --serve` (the
// library entry point, serve::run_serve_campaign) for Inputs 1-3 with a
// periodic kill drill, reporting the client-visible taxonomy (Completed /
// Completed-after-restart / Rejected / Lost) — the serving analog of the
// paper's Fig 10/11 — plus delivered-SDC counts.
//
// Emits BENCH_serve_recovery.json through benchutil::bench_report: the
// per-job completion times of the burst as one row with spread, and every
// drill and campaign count as a one-sample row.  Exit status is the gate:
// non-zero if any accepted job was lost or any delivered montage diverged.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "fault/wire.h"
#include "serve/campaign.h"
#include "serve/client.h"
#include "serve/respawn.h"

namespace {

using clock_type = std::chrono::steady_clock;

double ms_between(clock_type::time_point a, clock_type::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

bool wait_for_socket(const std::string& path, double timeout_s) {
  const auto deadline =
      clock_type::now() + std::chrono::duration<double>(timeout_s);
  while (clock_type::now() < deadline) {
    if (::access(path.c_str(), F_OK) == 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

struct kill_drill_row {
  int jobs = 0;
  int completed = 0;
  int completed_after_restart = 0;
  int lost = 0;
  int hash_mismatches = 0;
  std::uint64_t server_restarts = 0;
  std::uint64_t replayed_at_boot = 0;
  double recovery_ms = 0.0;  ///< SIGKILL -> first post-restart completion
  double wall_ms = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace vs;
  const auto opt = benchutil::parse_options(argc, argv);
  const int frames = std::min(opt.frames, opt.quick ? 6 : 10);

  benchutil::heading("Crash-only serving: kill-mid-load recovery (" +
                     std::to_string(frames) + "-frame clips)");

  // One-shot references for the (input, variant) pairs the burst uses.
  std::map<std::pair<int, int>, std::uint64_t> reference;
  for (const video::input_id input : benchutil::all_inputs()) {
    for (const app::algorithm alg : benchutil::all_variants()) {
      const auto source = video::make_input(input, frames);
      app::pipeline_config config;
      config.approx.alg = alg;
      config.frames_in_flight = 0;
      const auto result = app::summarize(*source, config);
      reference[{static_cast<int>(input), static_cast<int>(alg)}] =
          fault::wire::hash_image(result.panorama);
    }
  }

  const std::string pid_tag = std::to_string(static_cast<long>(::getpid()));
  const std::string socket_path = "/tmp/vs_recovery_" + pid_tag + ".sock";
  const std::string journal_path = socket_path + ".journal";

  serve::respawn_config rc;
  rc.server.socket_path = socket_path;
  rc.server.journal_path = journal_path;
  rc.server.isolate = true;
  rc.server.runners = 4;
  rc.server.queue_capacity = 32;
  rc.server.lookahead = 0;
  rc.stable_uptime_s = 0.2;
  rc.max_consecutive_failures = 20;
  rc.backoff.base_delay_ms = 10.0;
  rc.backoff.max_delay_ms = 100.0;

  serve::respawn_supervisor supervisor(rc);
  std::thread supervisor_thread([&] { (void)supervisor.run(); });
  if (!wait_for_socket(socket_path, 10.0)) {
    std::fprintf(stderr, "FAIL: supervised server never came up\n");
    supervisor.request_shutdown();
    supervisor_thread.join();
    return 1;
  }

  kill_drill_row drill;
  drill.jobs = 16;

  std::mutex record_mutex;
  std::vector<clock_type::time_point> completions;
  const auto burst_t0 = clock_type::now();

  std::vector<std::thread> burst;
  for (int i = 0; i < drill.jobs; ++i) {
    burst.emplace_back([&, i] {
      serve::job_request request;
      request.input = i % 2 == 0 ? video::input_id::input1
                                 : video::input_id::input2;
      request.alg = benchutil::all_variants()[static_cast<std::size_t>(i) %
                                              4];
      request.frames = frames;
      request.client_key = "rec-" + pid_tag + "-" + std::to_string(i);
      serve::resilient_policy policy;
      policy.backoff.max_attempts = 12;
      policy.backoff.base_delay_ms = 25.0;
      policy.backoff.max_delay_ms = 400.0;
      policy.backoff.seed = opt.seed + static_cast<std::uint64_t>(i);
      serve::client client(socket_path, 120.0);
      const auto out = client.submit_resilient(request, policy);
      const auto done = clock_type::now();

      const std::lock_guard<std::mutex> lock(record_mutex);
      if (out.complete) {
        completions.push_back(done);
        if (out.reconnects > 0) {
          ++drill.completed_after_restart;
        } else {
          ++drill.completed;
        }
        const auto want = reference.find({static_cast<int>(request.input),
                                          static_cast<int>(request.alg)});
        if (want == reference.end() ||
            out.complete->panorama_hash != want->second) {
          ++drill.hash_mismatches;
        }
      } else {
        ++drill.lost;
      }
    });
  }

  // Let the burst get admitted and mid-flight, then pull the rug.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const auto kill_t = clock_type::now();
  supervisor.kill_child();
  std::printf("SIGKILLed server child %.0f ms into the burst\n",
              ms_between(burst_t0, kill_t));

  for (auto& t : burst) t.join();
  drill.wall_ms = ms_between(burst_t0, clock_type::now());

  // First completion that lands after the kill bounds the recovery time.
  double first_after = -1.0;
  for (const auto& t : completions) {
    const double d = ms_between(kill_t, t);
    if (d > 0 && (first_after < 0 || d < first_after)) first_after = d;
  }
  drill.recovery_ms = first_after < 0 ? 0.0 : first_after;

  try {
    serve::client cli(socket_path, 10.0);
    const auto stats = cli.stats();
    drill.server_restarts = stats.restarts;
    drill.replayed_at_boot = stats.replayed;
  } catch (const std::exception&) {
    // Server already gone; the client-side tallies stand on their own.
  }

  supervisor.request_shutdown();
  supervisor_thread.join();
  (void)::unlink(socket_path.c_str());
  (void)::unlink(journal_path.c_str());

  std::printf(
      "%d job(s): %d completed, %d completed-after-restart, %d lost, "
      "%d hash mismatch(es)\n",
      drill.jobs, drill.completed, drill.completed_after_restart, drill.lost,
      drill.hash_mismatches);
  std::printf("server restarted %llu time(s), replayed %llu job(s) at boot, "
              "recovery %.0f ms, burst wall %.0f ms\n\n",
              static_cast<unsigned long long>(drill.server_restarts),
              static_cast<unsigned long long>(drill.replayed_at_boot),
              drill.recovery_ms, drill.wall_ms);

  bool ok = drill.lost == 0 && drill.hash_mismatches == 0;

  // Scenario B: the serve-layer fault campaign across all three scenarios.
  benchutil::heading("Serve-layer fault campaign (client-visible taxonomy)");
  struct campaign_row {
    std::string input;
    serve::serve_campaign_result result;
  };
  std::vector<campaign_row> campaigns;
  for (const video::input_id input : benchutil::all_scenarios()) {
    serve::serve_campaign_config cc;
    cc.input = input;
    cc.alg = app::algorithm::vs;
    cc.frames = frames;
    cc.cls = rt::reg_class::gpr;
    cc.injections = opt.quick ? 6 : 18;
    cc.kill_every = opt.quick ? 3 : 5;
    cc.seed = opt.seed;
    cc.runners = 2;
    cc.client_attempts = 8;
    std::printf("-- %s --\n", video::input_name(input));
    campaign_row row;
    row.input = video::input_name(input);
    row.result = serve::run_serve_campaign(cc);
    std::printf("%s\n", row.result.to_string().c_str());
    if (row.result.counts[static_cast<int>(serve::client_outcome::lost)] >
        0) {
      ok = false;
    }
    campaigns.push_back(std::move(row));
  }

  benchutil::bench_report report("serve_recovery");
  const auto drill_row = [&](const char* metric,
                             const std::vector<double>& s) {
    report.add({{"scenario", "kill_drill"},
                {"frames", std::to_string(frames)},
                {"metric", metric}},
               s);
  };
  std::vector<double> job_ms;  // burst start -> each completion
  for (const auto& t : completions) job_ms.push_back(ms_between(burst_t0, t));
  drill_row("job_ms", job_ms);
  drill_row("recovery_ms", {drill.recovery_ms});
  drill_row("wall_ms", {drill.wall_ms});
  drill_row("completed", {static_cast<double>(drill.completed)});
  drill_row("completed_after_restart",
            {static_cast<double>(drill.completed_after_restart)});
  drill_row("lost", {static_cast<double>(drill.lost)});
  drill_row("hash_mismatches", {static_cast<double>(drill.hash_mismatches)});
  drill_row("server_restarts", {static_cast<double>(drill.server_restarts)});
  drill_row("replayed_at_boot", {static_cast<double>(drill.replayed_at_boot)});
  for (const auto& c : campaigns) {
    const auto campaign_row = [&](const char* metric, double value) {
      report.add({{"scenario", "serve_campaign"},
                  {"input", c.input},
                  {"metric", metric}},
                 {value});
    };
    for (int k = 0; k < serve::client_outcome_count; ++k) {
      campaign_row(serve::client_outcome_name(
                       static_cast<serve::client_outcome>(k)),
                   static_cast<double>(c.result.counts[k]));
    }
    campaign_row("sdc_delivered", static_cast<double>(c.result.sdc_visible));
    campaign_row("server_restarts",
                 static_cast<double>(c.result.server_restarts));
  }
  std::printf("wrote %s\n", report.write(opt).c_str());

  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: an accepted job was lost or a delivered montage "
                 "diverged from its one-shot reference\n");
    return 1;
  }
  return 0;
}
