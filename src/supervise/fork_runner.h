// The OS-level fault-domain primitive shared by the campaign supervisor and
// the summarization server: fork a worker, stream its pipe, watchdog it,
// classify its death.
//
// Extracted from the supervisor so src/serve/ can run isolated jobs under
// the exact same containment semantics (wall-clock SIGKILL watchdog, full
// post-mortem pipe drain, waitpid exit taxonomy) without duplicating any of
// the fork plumbing.  What travels over the pipe is the caller's business:
// the supervisor streams checksummed wire lines, the server streams
// length-prefixed result frames (serve/framing.h) — both decoders sit on
// top of the raw byte sink this runner exposes.
#pragma once

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
    timeout,  ///< watchdog SIGKILL at the wall-clock deadline
    failure,  ///< child _exit(nonzero): reported its own failure
  };
  kind how = kind::failure;
  int sig = 0;  ///< valid when how == kind::signal
};

/// Bytes the child wrote, delivered on the supervising thread in arrival
/// order (including everything drained after the child's death).
using byte_sink = std::function<void(const char* data, std::size_t size)>;

/// Forks `body(write_fd)` as a worker and supervises it.  `body` must
/// communicate exclusively through raw write(2) on its fd and leave through
/// _exit, never return — fork duplicates stdio buffers, and running static
/// destructors in the child would join thread-pool workers that only exist
/// in the parent.  timeout_s <= 0 disables the watchdog.  Throws io_error
/// when pipe()/fork() themselves fail.
[[nodiscard]] fork_ending run_forked(const std::function<void(int)>& body,
                                     double timeout_s, const byte_sink& sink);

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

/// Exit-status-based crash taxonomy: constraint-violation signals map to
/// the paper's library-abort crash class, everything else (SIGSEGV, SIGBUS,
/// an OOM-killer SIGKILL, ...) to the memory-violation class.
[[nodiscard]] fault::outcome classify_signal(int sig) noexcept;

}  // namespace vs::supervise
