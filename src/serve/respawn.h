// Supervised respawn shell for the summarization service: `vs serve
// --supervised` runs the server as a forked child under this supervisor,
// which restarts it after crashes with capped exponential backoff.
//
// Each generation is one supervise::run_forked attempt (the repo's only
// fork site, supervise/fork_runner.h) under an idle watchdog.  The child
// pulses sealed heartbeat lines ("B <seq>", fault/wire.h) up the pipe from
// the server's accept loop (server_config::on_tick) every 0.25 s; each
// byte rearms the watchdog, so a wedged loop goes quiet and takes the
// SIGKILL after stall_timeout_s.  The ending maps to the paper's outcomes
// like any forked attempt (fork_ending::outcome): a signal is a crash, a
// stall-kill a hang, a nonzero exit a reported failure (whose warning
// quotes the child's "E <message>" line); exit 0 ends
// supervision, and so does a shutdown request that finds no generation
// alive.  The attempt ends when the generation exits, even while one of
// its isolated job workers still holds the heartbeat pipe.
// Respawn delays come from core::backoff_policy — deterministic jitter, so
// a given policy always produces the same schedule — and a streak of quick
// deaths beyond max_consecutive_failures gives up instead of spinning.
//
// Queued work crosses the crash through the admission journal
// (serve/job_journal.h): every generation boots with the same journal_path
// and replays the unfinished tail, so a SIGKILL mid-load loses no accepted
// job (ci/check_restart_gate.sh proves it byte-for-byte).
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <string>

#include "core/retry.h"
#include "serve/server.h"

namespace vs::serve {

struct respawn_config {
  server_config server;  ///< what every generation boots with
  /// No heartbeat for this long -> SIGKILL, classified as a hang; <= 0 =
  /// off.  A silent client does not stall the beat (the accept loop polls
  /// it with the rest); only an adopting resubmit whose client stops
  /// reading mid-replay blocks the loop, for at most the server's 5 s send
  /// timeout.
  double stall_timeout_s = 10.0;
  /// Respawn delay schedule (attempt = current quick-death streak).
  core::backoff_policy backoff;
  /// Give up after this many consecutive short-lived generations.
  int max_consecutive_failures = 5;
  /// A generation that lives at least this long resets the streak.
  double stable_uptime_s = 5.0;
  /// Replaced (temp file + rename) with the live child's pid each
  /// generation (crash drills SIGKILL `cat pidfile`); empty = off.
  std::string pidfile;
};

struct respawn_stats {
  std::uint64_t generations = 0;  ///< children spawned
  std::uint64_t crashes = 0;      ///< signal deaths
  std::uint64_t hangs = 0;        ///< heartbeat-stall SIGKILLs
  std::uint64_t failures = 0;     ///< nonzero exits
  bool gave_up = false;           ///< failure streak exhausted the budget
  /// Child finished a drain (exit 0), or shutdown was requested while no
  /// generation was alive (nothing in flight, every accepted job
  /// journaled).
  bool clean_exit = false;

  /// Generations after the first: each one replaced a generation that died.
  [[nodiscard]] std::uint64_t restarts() const noexcept {
    return generations > 0 ? generations - 1 : 0;
  }
};

class respawn_supervisor {
 public:
  explicit respawn_supervisor(respawn_config config);

  /// Spawn/monitor/respawn loop; returns when the child exits cleanly,
  /// the failure budget is exhausted, or request_shutdown() was called.
  respawn_stats run();

  /// Graceful stop: SIGTERM the live child (it drains) and never respawn;
  /// between generations (e.g. in the respawn backoff) run() returns
  /// clean at once.  Async-signal-safe.
  void request_shutdown() noexcept;

  /// Crash drill: SIGKILL the live child (the supervisor restarts it
  /// unless shutdown was requested).  Returns whether a child was
  /// signalled: false while no generation's pid is published yet (a fork
  /// in progress) or between generations.  Async-signal-safe.
  bool kill_child() noexcept;

  [[nodiscard]] pid_t child_pid() const noexcept {
    return child_pid_.load(std::memory_order_relaxed);
  }

 private:
  respawn_config config_;
  std::atomic<pid_t> child_pid_{-1};
  std::atomic<bool> shutdown_requested_{false};  ///< first request claimed
  std::atomic<bool> shutdown_{false};  ///< set after idle_shutdown_
  std::atomic<bool> idle_shutdown_{false};  ///< first request found no child
};

}  // namespace vs::serve
