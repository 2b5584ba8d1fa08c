#include "supervise/fork_runner.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>

#include "core/error.h"
#include "fault/wire.h"

namespace vs::supervise {

namespace {

using clock = std::chrono::steady_clock;

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
                       const byte_sink& sink, watchdog mode,
                       const std::function<void(pid_t)>& on_start) {
  int fds[2];
  if (::pipe(fds) != 0) throw io_error("fork_runner: pipe() failed");
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw io_error("fork_runner: fork() failed");
  }
  if (pid == 0) {
    // Die with the forking thread: an orphan's output has no reader left,
    // and it would hold open the pipes and client sockets it inherited.
    if (::prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || ::getppid() != parent) {
      _exit(4);
    }
    ::close(fds[0]);
    body(fds[1]);  // must _exit, never return
    _exit(0);
  }
  ::close(fds[1]);
  (void)::fcntl(fds[0], F_SETFL, O_NONBLOCK);
  if (on_start) on_start(pid);

  // The child's exit wakes the poll through its pidfd; without one (a
  // kernel before 5.3) a short poll stands in.
  const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
  pollfd watch[2] = {{fds[0], POLLIN, 0}, {pidfd, POLLIN, 0}};
  const bool bounded = timeout_s > 0.0;
  const auto budget = std::chrono::duration_cast<clock::duration>(
      std::chrono::duration<double>(bounded ? timeout_s : 0.0));
  auto deadline = clock::now() + budget;
  char chunk[4096];
  bool timed_out = false;
  int status = 0;
  pid_t reaped = 0;
  while ((reaped = ::waitpid(pid, &status, WNOHANG)) == 0) {
    int timeout_ms = pidfd >= 0 ? -1 : 10;
    if (bounded) {
      const auto remaining = deadline - clock::now();
      if (remaining <= clock::duration::zero()) {
        timed_out = true;
        ::kill(pid, SIGKILL);
        break;
      }
      const int remaining_ms = static_cast<int>(
          std::chrono::ceil<std::chrono::milliseconds>(remaining).count());
      timeout_ms = pidfd >= 0 ? remaining_ms : std::min(10, remaining_ms);
    }
    if (::poll(watch, 2, timeout_ms) <= 0 || watch[0].revents == 0) continue;
    // One read per wakeup, so a child that never stops writing still
    // meets its deadline.
    const ssize_t k = ::read(fds[0], chunk, sizeof(chunk));
    if (k > 0) {
      if (sink) sink(chunk, static_cast<std::size_t>(k));
      if (mode == watchdog::idle) deadline = clock::now() + budget;
    } else if (k == 0 || (errno != EAGAIN && errno != EINTR)) {
      watch[0].fd = -1;  // every writer closed its end; wait for the exit
    }
  }
  if (reaped != pid) {
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
  // Drain whatever the worker managed to write before dying: completed
  // results are completed work whether or not the worker survived.
  for (;;) {
    const ssize_t k = ::read(fds[0], chunk, sizeof(chunk));
    if (k > 0) {
      if (sink) sink(chunk, static_cast<std::size_t>(k));
    } else if (k == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  if (pidfd >= 0) ::close(pidfd);

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

fault::outcome fork_ending::outcome() const noexcept {
  switch (how) {
    case kind::timeout:
      return fault::outcome::hang;
    case kind::signal:
      return sig == SIGABRT || sig == SIGILL || sig == SIGFPE
                 ? fault::outcome::crash_abort
                 : fault::outcome::crash_segfault;
    default:
      return fault::outcome::crash_abort;
  }
}

}  // namespace vs::supervise
