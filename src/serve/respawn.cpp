#include "serve/respawn.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string_view>
#include <thread>

#include "core/log.h"
#include "fault/wire.h"
#include "supervise/fork_runner.h"

namespace vs::serve {

namespace {

using clock = std::chrono::steady_clock;

/// Cadence of a generation's heartbeat lines.
constexpr double kHeartbeatInterval_s = 0.25;

double seconds_between(clock::time_point a, clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Replaces `path` with the pid in one rename(), so a reader never sees a
/// half-written file.
void write_pidfile(const std::string& path, pid_t pid) {
  if (path.empty()) return;
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::trunc);
  out << pid << '\n';
  out.close();
  if (out.fail() || std::rename(tmp.c_str(), path.c_str()) != 0) {
    (void)std::remove(tmp.c_str());
    log::warn("respawn: cannot write pidfile " + path);
  }
}

/// The child generation's server, reachable from its drain signal handler.
server* g_child_server = nullptr;

void child_drain_signal(int) {
  if (g_child_server != nullptr) g_child_server->request_drain();
}

/// One server generation, inside the fork.  Leaves through _exit only —
/// the usual forked-child discipline (supervise/fork_runner.h).
[[noreturn]] void child_main(const respawn_config& config,
                             std::uint64_t generation, int wfd) {
  try {
    server_config sc = config.server;
    sc.restarts = generation;
    // Heartbeat: one sealed "B <seq>" line per interval, pulsed from the
    // accept loop so a wedged loop stops beating and takes the watchdog.
    sc.on_tick = [wfd, last = clock::time_point{},
                  seq = std::uint64_t{0}]() mutable {
      const auto now = clock::now();
      if (last != clock::time_point{} &&
          seconds_between(last, now) < kHeartbeatInterval_s) {
        return;
      }
      last = now;
      supervise::child_begin(wfd, seq++);
    };

    server srv(std::move(sc));
    g_child_server = &srv;
    // The generation owns its drain: SIGTERM/SIGINT reach the child's
    // process group in CLI use, and the handler must drain THIS server,
    // not whatever the parent had installed pre-fork.
    struct sigaction sa {};
    sa.sa_handler = child_drain_signal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);

    srv.start();
    srv.run();
    _exit(0);
  } catch (const std::exception& e) {
    supervise::child_fail(wfd, &e);
  } catch (...) {
    supervise::child_fail(wfd, nullptr);
  }
}

}  // namespace

respawn_supervisor::respawn_supervisor(respawn_config config)
    : config_(std::move(config)) {}

void respawn_supervisor::request_shutdown() noexcept {
  // Claim before looking for a child: the start callback in run() stores
  // the pid before it looks for a claim, so a request racing a fork is
  // seen by one side or the other.  Only the first request decides whether
  // the drain was asked of a live generation; a repeat (a second SIGTERM)
  // after that generation died must not turn its failed drain into a
  // clean end.
  const bool first = !shutdown_requested_.exchange(true);
  const pid_t pid = child_pid_.load();
  if (first) {
    idle_shutdown_.store(pid <= 0);
    shutdown_.store(true);
  }
  if (pid > 0) (void)::kill(pid, SIGTERM);
}

void respawn_supervisor::kill_child() noexcept {
  const pid_t pid = child_pid_.load(std::memory_order_relaxed);
  if (pid > 0) (void)::kill(pid, SIGKILL);
}

respawn_stats respawn_supervisor::run() {
  respawn_stats stats;
  int streak = 0;

  for (;;) {
    if (shutdown_.load()) {
      // No generation is alive: nothing is in flight and every accepted
      // job is journaled for the next boot, so this is a clean end.
      stats.clean_exit = true;
      log::info("respawn: shutdown between generations, supervision done");
      break;
    }
    const std::uint64_t generation = stats.generations++;
    const std::string gen_tag =
        "respawn: generation " + std::to_string(generation);
    const auto born = clock::now();
    // The pipe carries heartbeats and, from a generation that fails, one
    // "E <message>" line (supervise::child_fail): keep its reason.
    fault::wire::line_reader lines;
    std::string reason;
    const auto keep_reason = [&reason](std::string_view payload) {
      fault::wire::field_reader in(payload, "E");
      const std::string_view message = in.text();
      if (in.done()) reason = message;
    };
    // Every heartbeat byte rearms the idle watchdog; a generation whose
    // accept loop wedges goes quiet and is SIGKILLed as a hang.
    const supervise::fork_ending ending = supervise::run_forked(
        [this, generation](int wfd) { child_main(config_, generation, wfd); },
        config_.stall_timeout_s,
        [&](const char* data, std::size_t size) {
          lines.feed(std::string_view(data, size), keep_reason);
        },
        supervise::watchdog::idle,
        [&](pid_t pid) {
          child_pid_.store(pid);
          // A shutdown that raced this fork found no pid to signal.
          if (shutdown_requested_.load()) (void)::kill(pid, SIGTERM);
          write_pidfile(config_.pidfile, pid);
          log::info(gen_tag + " up (pid " + std::to_string(pid) + ")");
        });
    child_pid_.store(-1);
    lines.finish(keep_reason);

    const double uptime = seconds_between(born, clock::now());
    if (ending.how == supervise::fork_ending::kind::clean) {
      stats.clean_exit = true;
      log::info(gen_tag + " drained cleanly, supervision done");
      break;
    }
    std::string how = "exited nonzero";
    if (ending.how == supervise::fork_ending::kind::timeout) {
      ++stats.hangs;
      how = "stalled (no heartbeat for " +
            std::to_string(config_.stall_timeout_s) + " s), killed";
    } else if (ending.how == supervise::fork_ending::kind::signal) {
      ++stats.crashes;
      how = "died on signal " + std::to_string(ending.sig);
    } else {
      ++stats.failures;
    }
    log::warn(gen_tag + " " + how + ": " +
              fault::outcome_name(ending.outcome()) +
              (reason.empty() ? "" : " (" + reason + ")"));
    if (shutdown_.load()) {
      // Requested after this generation was already gone: same clean end
      // as between generations.  Requested while it lived: its death
      // during the drain stands.
      stats.clean_exit = idle_shutdown_.load();
      break;
    }

    // A generation that survived long enough proves the respawn healed
    // something; only quick deaths accumulate toward giving up.
    streak = uptime >= config_.stable_uptime_s ? 1 : streak + 1;
    if (streak > std::max(1, config_.max_consecutive_failures)) {
      stats.gave_up = true;
      log::warn("respawn: " + std::to_string(streak) +
                " consecutive short-lived generations, giving up");
      break;
    }

    const double delay = config_.backoff.delay_ms(streak);
    log::info("respawn: restarting in " +
              std::to_string(static_cast<long long>(delay + 0.5)) +
              " ms (streak " + std::to_string(streak) + ")");
    const auto until =
        clock::now() + std::chrono::duration<double, std::milli>(delay);
    while (clock::now() < until &&
           !shutdown_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  return stats;
}

}  // namespace vs::serve
