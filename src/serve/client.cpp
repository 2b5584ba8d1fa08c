#include "serve/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "core/error.h"
#include "serve/framing.h"

namespace vs::serve {

namespace {

/// Closes the fd on every exit path — the response loop has several.
class fd_guard {
 public:
  explicit fd_guard(int fd) noexcept : fd_(fd) {}
  ~fd_guard() {
    if (fd_ >= 0) ::close(fd_);
  }
  fd_guard(const fd_guard&) = delete;
  fd_guard& operator=(const fd_guard&) = delete;
  [[nodiscard]] int get() const noexcept { return fd_; }

 private:
  int fd_;
};

void send_or_throw(int fd, std::string_view bytes) {
  if (!send_all(fd, bytes)) {
    throw io_error("serve client: send failed: " +
                   std::string(std::strerror(errno)));
  }
}

/// Blocks until the decoder yields the next validated frame.  Throws
/// io_error on EOF/timeout — the server never half-answers a request, so
/// a short stream means it died or we timed out.
frame next_frame(int fd, frame_decoder& decoder) {
  for (;;) {
    if (auto f = decoder.next()) return std::move(*f);
    const ssize_t n = recv_into(fd, decoder);
    if (n > 0) continue;
    throw io_error(n == 0 ? "serve client: server closed mid-stream"
                          : "serve client: recv failed: " +
                                std::string(std::strerror(errno)));
  }
}

/// Process-unique idempotency key for callers that didn't bring one: the
/// pid decorrelates concurrent fleets, the counter decorrelates jobs.
std::string auto_client_key() {
  static std::atomic<std::uint64_t> counter{0};
  return "c" + std::to_string(static_cast<long>(::getpid())) + "-" +
         std::to_string(counter.fetch_add(1));
}

void sleep_backoff(double ms) {
  if (ms <= 0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

client::client(std::string socket_path, double receive_timeout_s)
    : socket_path_(std::move(socket_path)),
      receive_timeout_s_(receive_timeout_s) {}

int client::open_connection() {
  sockaddr_un addr{};
  if (socket_path_.empty() ||
      socket_path_.size() >= sizeof(addr.sun_path)) {
    throw io_error("serve client: bad socket path: " + socket_path_);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw io_error("serve client: socket() failed: " +
                   std::string(std::strerror(errno)));
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw io_error("serve client: cannot connect to " + socket_path_ +
                   ": " + why);
  }
  set_socket_timeout(fd, SO_RCVTIMEO, receive_timeout_s_);
  return fd;
}

submit_outcome client::submit(
    const job_request& request,
    const std::function<void(const panorama_msg&)>& on_panorama) {
  const fd_guard fd(open_connection());
  frame_decoder decoder;
  send_or_throw(fd.get(), encode_submit(request));

  submit_outcome outcome;
  for (;;) {
    const frame f = next_frame(fd.get(), decoder);
    switch (static_cast<msg_type>(f.type)) {
      case msg_type::rejected: {
        auto m = parse_rejected(f.payload);
        if (!m) throw io_error("serve client: garbled rejected frame");
        outcome.rejected = *m;
        return outcome;
      }
      case msg_type::accepted: {
        auto m = parse_accepted(f.payload);
        if (!m) throw io_error("serve client: garbled accepted frame");
        outcome.accepted = *m;
        continue;
      }
      case msg_type::panorama: {
        auto m = parse_panorama(f.payload);
        if (!m) throw io_error("serve client: garbled panorama frame");
        if (on_panorama) on_panorama(*m);
        outcome.panoramas.push_back(std::move(*m));
        continue;
      }
      case msg_type::complete: {
        auto m = parse_complete(f.payload);
        if (!m) throw io_error("serve client: garbled complete frame");
        outcome.complete = std::move(*m);
        return outcome;
      }
      case msg_type::failed: {
        auto m = parse_failed(f.payload);
        if (!m) throw io_error("serve client: garbled failed frame");
        outcome.failed = std::move(*m);
        return outcome;
      }
      default:
        throw io_error("serve client: unexpected frame type " +
                       std::to_string(f.type));
    }
  }
}

submit_outcome client::submit_resilient(
    job_request request, const core::backoff_policy& backoff,
    const std::function<void(const panorama_msg&)>& on_panorama) {
  if (request.client_key.empty()) request.client_key = auto_client_key();
  const int max_attempts = std::max(1, backoff.max_attempts);
  int reconnects = 0;
  // Highest mini index already handed to on_panorama: a reconnect adopts
  // the server-side sink and replays the whole stream, so earlier minis
  // come down the wire again — deliver each to the caller exactly once.
  int streamed_past = -1;

  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    submit_outcome out;
    try {
      out = submit(request, [&](const panorama_msg& m) {
        if (m.index <= streamed_past) return;
        streamed_past = m.index;
        if (on_panorama) on_panorama(m);
      });
    } catch (const io_error&) {
      // Server unreachable or died mid-stream: the journaled job (if it
      // was accepted) survives the crash, so back off and resubmit under
      // the same key to adopt it.
      ++reconnects;
      if (attempt < max_attempts) {
        sleep_backoff(backoff.delay_ms(attempt));
      }
      continue;
    }
    out.attempts = attempt;
    out.reconnects = reconnects;
    if (out.complete || out.failed) return out;
    if (out.rejected) {
      const reject_reason reason = out.rejected->reason;
      const bool retryable = reason == reject_reason::queue_full ||
                             reason == reject_reason::draining;
      if (!retryable || attempt == max_attempts) return out;
      sleep_backoff(std::max(
          backoff.delay_ms(attempt),
          static_cast<double>(out.rejected->retry_after_ms)));
      continue;
    }
    return out;  // defensive: submit() always sets a terminal field
  }

  // Every attempt died without a terminal reply: the job is Lost from
  // this client's point of view (it may still complete server-side).
  submit_outcome lost;
  lost.attempts = max_attempts;
  lost.reconnects = reconnects;
  return lost;
}

stats_reply client::stats() {
  const fd_guard fd(open_connection());
  frame_decoder decoder;
  send_or_throw(fd.get(), encode_stats_request());
  const frame f = next_frame(fd.get(), decoder);
  if (static_cast<msg_type>(f.type) != msg_type::stats_reply) {
    throw io_error("serve client: unexpected frame type " +
                   std::to_string(f.type));
  }
  const auto m = parse_stats_reply(f.payload);
  if (!m) throw io_error("serve client: garbled stats frame");
  return *m;
}

}  // namespace vs::serve
