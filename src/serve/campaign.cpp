#include "serve/campaign.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "app/pipeline.h"
#include "core/log.h"
#include "fault/campaign.h"
#include "fault/wire.h"
#include "serve/client.h"
#include "serve/respawn.h"

namespace vs::serve {

namespace {

using clock = std::chrono::steady_clock;

double ms_between(clock::time_point a, clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The same deterministic workload the server's forked worker executes for
/// these (input, alg, frames), inline as every served job runs, so the
/// golden op count and hash match the served runs bit for bit.
fault::workload make_workload(const serve_campaign_config& config) {
  return [config] {
    const auto source = video::make_input(config.input, config.frames);
    app::pipeline_config pc;
    pc.approx.alg = config.alg;
    pc.frames_in_flight = 0;
    return app::summarize(*source, pc).panorama;
  };
}

bool wait_for_socket(const std::string& path, double timeout_s) {
  const auto deadline =
      clock::now() + std::chrono::duration<double>(timeout_s);
  while (clock::now() < deadline) {
    if (::access(path.c_str(), F_OK) == 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

}  // namespace

bool kill_server_mid_job(respawn_supervisor& supervisor,
                         const std::string& socket_path,
                         const std::atomic<bool>& stop) {
  while (!stop.load()) {
    try {
      // A generation can serve before its pid is published; a kill that
      // signalled nothing is no kill.
      if (client(socket_path, 5.0).stats().in_flight >= 1 &&
          supervisor.kill_child()) {
        return true;
      }
    } catch (const std::exception&) {
      // Between generations or still booting: keep polling.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

const char* client_outcome_name(client_outcome o) noexcept {
  switch (o) {
    case client_outcome::completed:
      return "completed";
    case client_outcome::completed_after_restart:
      return "completed_after_restart";
    case client_outcome::rejected:
      return "rejected";
    case client_outcome::lost:
      return "lost";
  }
  return "unknown";
}

std::string serve_campaign_result::to_string() const {
  const std::uint64_t total = counts[0] + counts[1] + counts[2] + counts[3];
  std::string out = "serve campaign: " + std::to_string(total) +
                    " experiment(s), " + std::to_string(server_restarts) +
                    " server restart(s)\n";
  for (int i = 0; i < client_outcome_count; ++i) {
    const double pct =
        total > 0 ? 100.0 * static_cast<double>(counts[i]) /
                        static_cast<double>(total)
                  : 0.0;
    char line[96];
    std::snprintf(line, sizeof(line), "  %-24s %6llu  (%5.2f%%)\n",
                  client_outcome_name(static_cast<client_outcome>(i)),
                  static_cast<unsigned long long>(counts[i]), pct);
    out += line;
  }
  out += "  sdc delivered            " + std::to_string(sdc_visible) + "\n";
  return out;
}

serve_campaign_result run_serve_campaign(
    const serve_campaign_config& config) {
  serve_campaign_result result;

  // Golden run + fault-site census, identical to the offline campaign's.
  fault::campaign_config cc;
  cc.cls = config.cls;
  cc.injections = std::max(1, config.injections);
  cc.seed = config.seed;
  cc.step_budget_factor = config.step_budget_factor;
  const fault::campaign_setup setup =
      fault::measure_golden(make_workload(config), cc);
  result.golden_hash = fault::wire::hash_image(setup.golden);
  result.total_ops = setup.total_ops;
  result.step_budget = setup.step_budget;

  const std::string pid_tag = std::to_string(static_cast<long>(::getpid()));
  const std::string socket_path =
      config.socket_path.empty() ? "/tmp/vs_serve_campaign_" + pid_tag +
                                       ".sock"
                                 : config.socket_path;
  const std::string journal_path =
      config.journal_path.empty() ? socket_path + ".journal"
                                  : config.journal_path;

  // Supervised, isolated, journaled server: injections crash only forked
  // workers; deliberate kills crash the whole child and exercise replay.
  respawn_config rc;
  rc.server.socket_path = socket_path;
  rc.server.journal_path = journal_path;
  rc.server.isolate = true;
  rc.server.runners = std::max(1, config.runners);
  rc.server.pool_budget = config.pool_budget;
  rc.server.queue_capacity =
      std::max<std::size_t>(8, static_cast<std::size_t>(config.runners) * 4);
  rc.stable_uptime_s = 0.2;       // deliberate kills must not exhaust the
  rc.max_consecutive_failures = 50;  // failure budget mid-campaign
  rc.backoff.base_delay_ms = 10.0;
  rc.backoff.max_delay_ms = 100.0;

  respawn_supervisor supervisor(rc);
  respawn_stats supervision;
  std::thread supervisor_thread([&] { supervision = supervisor.run(); });
  if (!wait_for_socket(socket_path, 10.0)) {
    supervisor.request_shutdown();
    supervisor_thread.join();
    throw std::runtime_error("serve campaign: server never came up on " +
                             socket_path);
  }

  client cli(socket_path, /*receive_timeout_s=*/30.0);
  core::backoff_policy backoff;
  backoff.max_attempts = std::max(1, config.client_attempts);
  backoff.base_delay_ms = 20.0;
  backoff.max_delay_ms = 250.0;
  backoff.seed = config.seed;

  for (std::size_t i = 0;
       i < static_cast<std::size_t>(std::max(1, config.injections)); ++i) {
    const fault::experiment_plan plan =
        fault::plan_experiment(cc, setup.total_ops, i);

    job_request request;
    request.input = config.input;
    request.alg = config.alg;
    request.frames = config.frames;
    request.client_key = "exp-" + pid_tag + "-" + std::to_string(i);
    // A dead-register strike is masked without execution in the offline
    // campaign; here the job still runs (the client wants its montage),
    // just unarmed.
    request.fault.armed = plan.register_live;
    request.fault.cls = plan.plan.cls;
    request.fault.target = plan.plan.target;
    request.fault.bit = plan.plan.bit;
    request.fault.step_budget = setup.step_budget;

    // Crash drill: on every N-th experiment, SIGKILL the server child once
    // a second client sees the job in flight.
    std::atomic<bool> settled{false};
    std::thread killer;
    if (config.kill_every > 0 &&
        (i + 1) % static_cast<std::size_t>(config.kill_every) == 0) {
      killer = std::thread([&] {
        (void)kill_server_mid_job(supervisor, socket_path, settled);
      });
    }

    const auto t0 = clock::now();
    const submit_outcome out = cli.submit_resilient(request, backoff);
    const double wall = ms_between(t0, clock::now());
    settled.store(true);
    if (killer.joinable()) killer.join();

    serve_experiment record;
    record.index = i;
    record.fault_armed = request.fault.armed;
    record.attempts = out.attempts;
    record.reconnects = out.reconnects;
    record.wall_ms = wall;
    if (out.complete) {
      record.outcome = out.reconnects > 0
                           ? client_outcome::completed_after_restart
                           : client_outcome::completed;
      record.sdc = out.complete->panorama_hash != result.golden_hash;
    } else if (out.failed || out.rejected) {
      // Rejected = the service ANSWERED: either an admission refusal or
      // the contained failure taxonomy (crash/hang caught at the process
      // boundary and reported).  Either way nothing silently vanished.
      record.outcome = client_outcome::rejected;
    } else {
      record.outcome = client_outcome::lost;
    }
    ++result.counts[static_cast<int>(record.outcome)];
    if (record.sdc) ++result.sdc_visible;
    result.records.push_back(record);
  }

  supervisor.request_shutdown();
  supervisor_thread.join();
  // Injected faults kill only forked job workers, so every restart replaced
  // a server the drill killed.
  result.server_restarts = supervision.restarts();
  (void)::unlink(socket_path.c_str());
  (void)::unlink(journal_path.c_str());
  return result;
}

}  // namespace vs::serve
