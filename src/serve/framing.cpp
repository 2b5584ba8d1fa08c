#include "serve/framing.h"

#include <sys/socket.h>
#include <sys/time.h>

#include <cerrno>
#include <chrono>

#include "fault/wire.h"

namespace vs::serve {

namespace {

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

void put_u32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

std::uint16_t get_u16(const char* p) noexcept {
  return static_cast<std::uint16_t>(
      static_cast<unsigned char>(p[0]) |
      (static_cast<unsigned char>(p[1]) << 8));
}

std::uint32_t get_u32(const char* p) noexcept {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[2]))
          << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[3]))
          << 24);
}

// The checksum seals everything after the magic: type, flags, length, and
// the payload bytes, hashed as one contiguous stream.
std::uint32_t frame_checksum(std::uint16_t type, std::uint16_t flags,
                             std::uint32_t length,
                             std::string_view payload) {
  std::string sealed;
  sealed.reserve(8 + payload.size());
  put_u16(sealed, type);
  put_u16(sealed, flags);
  put_u32(sealed, length);
  sealed.append(payload.data(), payload.size());
  return fault::wire::checksum(sealed);
}

/// True once a send begun at `t0` has (all but: jiffy rounding) spent the
/// socket's send timeout.  A blocking send returns short only when that
/// timeout or a signal cuts it, and a signal must not drop the peer.
bool send_timeout_spent(int fd, std::chrono::steady_clock::time_point t0) {
  timeval tv{};
  socklen_t len = sizeof(tv);
  if (::getsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, &len) != 0) return false;
  const auto timeout = std::chrono::seconds(tv.tv_sec) +
                       std::chrono::microseconds(tv.tv_usec);
  return timeout.count() > 0 && std::chrono::steady_clock::now() - t0 >=
                                    timeout - std::chrono::milliseconds(10);
}

}  // namespace

std::string encode_frame(std::uint16_t type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  put_u32(out, kFrameMagic);
  put_u16(out, type);
  put_u16(out, 0);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, frame_checksum(type, 0,
                              static_cast<std::uint32_t>(payload.size()),
                              payload));
  out.append(payload.data(), payload.size());
  return out;
}

void frame_decoder::feed(const char* data, std::size_t size) {
  buffer_.append(data, size);
}

void frame_decoder::compact() {
  // Reclaim consumed prefix once it dominates the buffer — keeps the
  // decoder O(bytes) without erasing on every frame.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
}

std::optional<frame> frame_decoder::next() {
  for (;;) {
    compact();
    const std::size_t available = buffer_.size() - consumed_;
    if (available < kFrameHeaderSize) return std::nullopt;
    const char* p = buffer_.data() + consumed_;

    if (get_u32(p) != kFrameMagic) {
      ++consumed_;
      ++skipped_;
      continue;
    }
    const std::uint16_t type = get_u16(p + 4);
    const std::uint16_t flags = get_u16(p + 6);
    const std::uint32_t length = get_u32(p + 8);
    const std::uint32_t stated = get_u32(p + 12);
    if (flags != 0 || length > kMaxFramePayload) {
      // Implausible header: likely a stray magic inside garbage.  Skip one
      // byte, not the whole claimed frame — the claimed length is exactly
      // the field we don't trust.
      ++consumed_;
      ++skipped_;
      continue;
    }
    if (available < kFrameHeaderSize + length) return std::nullopt;
    const std::string_view payload(p + kFrameHeaderSize, length);
    if (frame_checksum(type, flags, length, payload) != stated) {
      ++consumed_;
      ++skipped_;
      continue;
    }
    frame out;
    out.type = type;
    out.payload.assign(payload.data(), payload.size());
    consumed_ += kFrameHeaderSize + length;
    return out;
  }
}

bool send_all(int fd, std::string_view bytes) {
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      if (sent < bytes.size() && send_timeout_spent(fd, t0)) {
        errno = EAGAIN;
        return false;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

ssize_t recv_into(int fd, frame_decoder& decoder) {
  char buf[16384];
  ssize_t n;
  do {
    n = ::recv(fd, buf, sizeof(buf), 0);
  } while (n < 0 && errno == EINTR);
  if (n > 0) decoder.feed(buf, static_cast<std::size_t>(n));
  return n;
}

void set_socket_timeout(int fd, int option, double seconds) {
  if (seconds <= 0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  (void)::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
}

}  // namespace vs::serve
