#include "supervise/fork_runner.h"

#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <mutex>

#include "core/error.h"
#include "fault/wire.h"

namespace vs::supervise {

namespace {

using clock = std::chrono::steady_clock;

// Serializes [pipe(), fork(), close parent's write end] so a worker forked
// from one supervising thread can never inherit another worker's pipe write
// end (which would hold that pipe open past its own worker's death and
// stall the EOF the parent is waiting on).
std::mutex fork_mutex;

}  // namespace

void child_write(int fd, const void* data, std::size_t size) {
  const char* bytes = static_cast<const char*>(data);
  std::size_t off = 0;
  while (off < size) {
    const ssize_t k = ::write(fd, bytes + off, size - off);
    if (k < 0) {
      if (errno == EINTR) continue;
      _exit(4);  // parent vanished; nothing sensible left to do
    }
    off += static_cast<std::size_t>(k);
  }
}

void child_write_line(int fd, const std::string& payload) {
  const std::string line = fault::wire::seal(payload) + "\n";
  child_write(fd, line.data(), line.size());
}

void child_begin(int fd, std::uint64_t n) {
  child_write_line(fd, fault::wire::field_writer("B").num(n).str());
}

std::optional<std::uint64_t> parse_begin(std::string_view payload) {
  fault::wire::field_reader in(payload, "B");
  const std::uint64_t n = in.num();
  if (!in.done()) return std::nullopt;
  return n;
}

void child_fail(int fd, const std::exception* e) {
  child_write_line(
      fd, fault::wire::field_writer("E")
              .text(e != nullptr ? e->what() : "unknown_error")
              .str());
  _exit(3);
}

fork_ending run_forked(const std::function<void(int)>& body, double timeout_s,
                       const byte_sink& sink) {
  int fds[2];
  pid_t pid = -1;
  {
    const std::lock_guard<std::mutex> lock(fork_mutex);
    if (::pipe(fds) != 0) throw io_error("fork_runner: pipe() failed");
    pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw io_error("fork_runner: fork() failed");
    }
    if (pid == 0) {
      ::close(fds[0]);
      body(fds[1]);  // must _exit, never return
      _exit(0);
    }
    ::close(fds[1]);
  }

  char chunk[4096];
  bool timed_out = false;
  const bool bounded = timeout_s > 0.0;
  const auto deadline =
      clock::now() + std::chrono::duration_cast<clock::duration>(
                         std::chrono::duration<double>(bounded ? timeout_s
                                                               : 0.0));
  for (;;) {
    int timeout_ms = -1;
    if (bounded) {
      const auto remaining = deadline - clock::now();
      if (remaining <= clock::duration::zero()) {
        timed_out = true;
        break;
      }
      timeout_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
              .count()) +
          1;
    }
    struct pollfd p = {fds[0], POLLIN, 0};
    const int pr = ::poll(&p, 1, timeout_ms);
    if (pr == 0) {
      timed_out = true;
      break;
    }
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    const ssize_t k = ::read(fds[0], chunk, sizeof(chunk));
    if (k == 0) break;  // worker closed its end (exit or death)
    if (k < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (sink) sink(chunk, static_cast<std::size_t>(k));
  }

  if (timed_out) ::kill(pid, SIGKILL);
  // Drain whatever the worker managed to write before dying: completed
  // results are completed work whether or not the worker survived.
  for (;;) {
    const ssize_t k = ::read(fds[0], chunk, sizeof(chunk));
    if (k > 0) {
      if (sink) sink(chunk, static_cast<std::size_t>(k));
      continue;
    }
    if (k < 0 && errno == EINTR) continue;
    break;
  }
  ::close(fds[0]);

  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  fork_ending out;
  if (timed_out) {
    out.how = fork_ending::kind::timeout;
  } else if (WIFSIGNALED(status)) {
    out.how = fork_ending::kind::signal;
    out.sig = WTERMSIG(status);
  } else if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    out.how = fork_ending::kind::clean;
  } else {
    out.how = fork_ending::kind::failure;
  }
  return out;
}

fault::outcome classify_signal(int sig) noexcept {
  switch (sig) {
    case SIGABRT:
    case SIGILL:
    case SIGFPE:
      return fault::outcome::crash_abort;
    default:
      return fault::outcome::crash_segfault;
  }
}

}  // namespace vs::supervise
