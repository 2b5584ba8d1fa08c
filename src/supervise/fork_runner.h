// The OS-level fault-domain primitive: fork a worker, stream its pipe,
// watchdog it, classify its death.  It is the only fork site under src/,
// with three callers:
//
//   * the campaign supervisor (supervisor.cpp): one worker per shard
//     attempt, a fixed deadline (`--timeout`), checksummed wire lines;
//   * the summarization server's isolate mode (serve/server.cpp): one
//     worker per job, the job's remaining deadline, length-prefixed result
//     frames (serve/framing.h);
//   * the supervised server (serve/respawn.cpp): one long-lived generation,
//     an idle watchdog that every heartbeat line rearms.
//
// What travels over the pipe is the caller's business; each decoder sits
// on top of the raw byte sink this runner exposes.
//
// An attempt ends when the child exits, not when its pipe reaches EOF: a
// descendant the child forked (a generation's isolated job worker) holds
// the pipe open after the child dies, and must not delay the verdict.
// Whatever the child wrote before it died is drained without blocking.
// That same rule is why there is no lock around fork(): a worker that
// inherits another attempt's write end delays no one, and a lock held
// across fork() would be inherited locked by the child, deadlocking a
// child that forks workers of its own.  A worker never outlives the thread
// that forked it (PR_SET_PDEATHSIG SIGKILL): a SIGKILLed generation's job
// workers die with it instead of living on as orphans that hold each
// other's pipes, and its clients' sockets, open.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "fault/model.h"

namespace vs::supervise {

/// How a forked worker attempt ended.
struct fork_ending {
  enum class kind {
    clean,    ///< child _exit(0)
    signal,   ///< child died by signal (see `sig`)
    timeout,  ///< watchdog SIGKILL
    failure,  ///< child _exit(nonzero): reported its own failure
  };
  kind how = kind::failure;
  int sig = 0;  ///< valid when how == kind::signal

  /// The paper's outcome for an attempt that did not deliver its result:
  /// timeout -> Hang; signal -> Crash, abort class for the
  /// constraint-violation signals (SIGABRT, SIGILL, SIGFPE) and
  /// memory-violation class for the rest (SIGSEGV, SIGBUS, an OOM-killer
  /// SIGKILL, ...); anything else -> Crash (abort).
  [[nodiscard]] fault::outcome outcome() const noexcept;
};

/// What the watchdog measures from.
enum class watchdog {
  deadline,  ///< the fork: a fixed wall-clock budget for the whole attempt
  idle,      ///< the child's last byte: every byte written rearms it
};

/// Bytes the child wrote, delivered on the supervising thread in arrival
/// order (including everything drained after the child's death).
using byte_sink = std::function<void(const char* data, std::size_t size)>;

/// Forks `body(write_fd)` as a worker and supervises it.  `body` must
/// communicate exclusively through raw write(2) on its fd and leave through
/// _exit, never return — fork duplicates stdio buffers, and running static
/// destructors in the child would join thread-pool workers that only exist
/// in the parent.  The watchdog SIGKILLs the child once `timeout_s` passes
/// without its end (`deadline`) or without a byte from it (`idle`);
/// timeout_s <= 0 disables it.  `on_start`, if set, gets the child's pid on
/// the calling thread before supervision begins.  Throws io_error when
/// pipe()/fork() themselves fail.
[[nodiscard]] fork_ending run_forked(
    const std::function<void(int)>& body, double timeout_s,
    const byte_sink& sink, watchdog mode = watchdog::deadline,
    const std::function<void(pid_t)>& on_start = {});

/// EINTR-safe full write from a forked child; _exit(4) when the parent
/// vanished (nothing sensible left to do).
void child_write(int fd, const void* data, std::size_t size);

/// Writes one sealed wire line (fault/wire.h) from a forked child.
void child_write_line(int fd, const std::string& payload);

/// Writes a sealed "B <n>" line from a forked child: a campaign worker's
/// "starting experiment n" mark, or a server generation's n-th heartbeat.
void child_begin(int fd, std::uint64_t n);

/// The n of a "B <n>" payload; nullopt for any other payload.
[[nodiscard]] std::optional<std::uint64_t> parse_begin(
    std::string_view payload);

/// Reports a child-side failure as a sealed "E <message>" line, then
/// _exit(3).  Pass nullptr for a non-std::exception failure.
[[noreturn]] void child_fail(int fd, const std::exception* e);

}  // namespace vs::supervise
