#include "serve/respawn.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <thread>

#include "core/error.h"
#include "core/log.h"
#include "fault/wire.h"
#include "supervise/fork_runner.h"

namespace vs::serve {

namespace {

using clock = std::chrono::steady_clock;

double seconds_between(clock::time_point a, clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
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
    const double interval = std::max(0.01, config.heartbeat_interval_s);
    sc.on_tick = [wfd, interval, last = clock::time_point{},
                  seq = std::uint64_t{0}]() mutable {
      const auto now = clock::now();
      if (last != clock::time_point{} &&
          seconds_between(last, now) < interval) {
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

pid_t respawn_supervisor::spawn(std::uint64_t generation, int* pipe_rd) {
  int fds[2];
  if (::pipe(fds) != 0) {
    throw io_error("respawn: pipe() failed: " +
                   std::string(std::strerror(errno)));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw io_error("respawn: fork() failed: " +
                   std::string(std::strerror(errno)));
  }
  if (pid == 0) {
    ::close(fds[0]);
    child_main(config_, generation, fds[1]);
  }
  ::close(fds[1]);
  (void)::fcntl(fds[0], F_SETFL, O_NONBLOCK);
  (void)::fcntl(fds[0], F_SETFD, FD_CLOEXEC);
  *pipe_rd = fds[0];
  return pid;
}

void respawn_supervisor::request_shutdown() noexcept {
  const pid_t pid = child_pid_.load();
  // Only the first request decides whether the drain was asked of a live
  // generation; a repeat (a second SIGTERM) after that generation died
  // must not turn its failed drain into a clean end.
  if (!shutdown_requested_.exchange(true)) {
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
    int rd = -1;
    const std::uint64_t generation = stats.generations;
    const pid_t pid = spawn(generation, &rd);
    ++stats.generations;
    child_pid_.store(pid, std::memory_order_relaxed);
    if (!config_.pidfile.empty()) {
      std::ofstream out(config_.pidfile, std::ios::trunc);
      out << pid << '\n';
    }
    log::info("respawn: generation " + std::to_string(generation) +
              " up (pid " + std::to_string(pid) + ")");

    const auto born = clock::now();
    auto last_beat = born;
    // Any valid heartbeat line proves liveness; a torn one (the child died
    // mid-write) just doesn't count.
    fault::wire::line_reader beats;
    const auto beat = [&last_beat](std::string_view payload) {
      if (supervise::parse_begin(payload)) last_beat = clock::now();
    };
    bool stalled = false;
    bool pipe_open = true;
    bool drain_sent = false;
    int status = 0;

    for (;;) {
      if (!drain_sent && shutdown_.load()) {
        // Covers a shutdown that raced this spawn and found no pid.
        (void)::kill(pid, SIGTERM);
        drain_sent = true;
      }
      if (pipe_open) {
        pollfd pfd{rd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 200);
        if (ready > 0 && (pfd.revents & (POLLIN | POLLHUP)) != 0) {
          char buf[4096];
          for (;;) {
            const ssize_t n = ::read(rd, buf, sizeof(buf));
            if (n > 0) {
              beats.feed(std::string_view(buf, static_cast<std::size_t>(n)),
                         beat);
              continue;
            }
            if (n == 0) pipe_open = false;  // child end closed
            break;                          // EOF, EAGAIN, or error
          }
        }
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }

      const pid_t done = ::waitpid(pid, &status, WNOHANG);
      if (done == pid) break;

      if (config_.stall_timeout_s > 0 &&
          seconds_between(last_beat, clock::now()) >
              config_.stall_timeout_s) {
        // Heartbeat stall: the accept loop is wedged even though the
        // process lives.  SIGKILL and classify as a hang, the same
        // taxonomy a campaign worker's watchdog timeout gets.
        stalled = true;
        (void)::kill(pid, SIGKILL);
        (void)::waitpid(pid, &status, 0);
        break;
      }
    }
    ::close(rd);
    child_pid_.store(-1, std::memory_order_relaxed);

    const double uptime = seconds_between(born, clock::now());
    const bool clean = !stalled && WIFEXITED(status) &&
                       WEXITSTATUS(status) == 0;
    const std::string gen_tag =
        "respawn: generation " + std::to_string(generation);
    if (stalled) {
      ++stats.hangs;
      log::warn(gen_tag + " stalled (no heartbeat for " +
                std::to_string(config_.stall_timeout_s) +
                " s), killed: hang");
    } else if (WIFSIGNALED(status)) {
      ++stats.crashes;
      log::warn(gen_tag + " died on signal " +
                std::to_string(WTERMSIG(status)) + ": " +
                fault::outcome_name(
                    supervise::classify_signal(WTERMSIG(status))));
    } else if (!clean) {
      ++stats.failures;
      log::warn(gen_tag + " exited with status " +
                std::to_string(WIFEXITED(status) ? WEXITSTATUS(status)
                                                 : -1));
    }

    if (clean) {
      stats.clean_exit = true;
      log::info(gen_tag + " drained cleanly, supervision done");
      break;
    }
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
