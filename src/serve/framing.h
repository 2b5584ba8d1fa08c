// Versioned, length-prefixed binary framing for the summarization service.
//
// The repo's text codec (fault/wire.h) is sealed lines — right for
// journal greppability, wrong for shipping panorama pixels (which contain
// newlines).  The service instead frames every message as
//
//   u32  magic     "VSF1" — protocol identity *and* version in one probe
//   u16  type      message discriminator (serve/protocol.h)
//   u16  flags     reserved, must be 0
//   u32  length    payload byte count
//   u32  checksum  FNV-1a (fault/wire.h) over [type|flags|length|payload]
//   ...  payload   `length` opaque bytes
//
// all little-endian, assembled byte-by-byte so the codec is
// endianness-portable.  The decoder is incremental and self-resynchronizing:
// bytes are fed as they arrive off the socket, and any prefix that fails
// validation — wrong magic, absurd length, checksum mismatch, a frame
// truncated by a dying peer — is skipped one byte at a time until the next
// plausible frame boundary, with the damage tallied in skipped_bytes().
// Garbage never throws and never yields a half-parsed frame; that contract
// is pinned by the shared adversarial round-trip tests
// (tests/wire_fuzz_test.cpp) alongside the sealed-line decoder.  Inside a
// frame, the payload's header is again the one text codec
// (serve/protocol.h).
//
// The socket transport under the frames lives here too, so server and
// client share one send loop and one EINTR-safe receive.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace vs::serve {

/// Protocol identity and the one version mark: bump the trailing digit for
/// an incompatible frame layout or message vocabulary.
inline constexpr std::uint32_t kFrameMagic = 0x31465356u;  // "VSF1" in LE
inline constexpr std::size_t kFrameHeaderSize = 16;
/// Upper bound on a payload: comfortably above any montage the pipeline
/// renders (max_panorama_pixels is 4 MiB per mini-panorama), far below
/// anything that would let a corrupted length field allocate the host out
/// of memory.
inline constexpr std::size_t kMaxFramePayload = 64u << 20;

struct frame {
  std::uint16_t type = 0;
  std::string payload;
};

/// Serializes one frame (header + sealed payload bytes).
[[nodiscard]] std::string encode_frame(std::uint16_t type,
                                       std::string_view payload);

/// Incremental decoder over a byte stream.
class frame_decoder {
 public:
  /// Appends raw bytes from the transport.
  void feed(const char* data, std::size_t size);
  void feed(std::string_view bytes) { feed(bytes.data(), bytes.size()); }

  /// Extracts the next validated frame, or nullopt when the buffer holds
  /// no complete valid frame yet.  Invalid prefixes are skipped.
  [[nodiscard]] std::optional<frame> next();

  /// Bytes discarded while resynchronizing (torn frames, garbage).
  [[nodiscard]] std::uint64_t skipped_bytes() const noexcept {
    return skipped_;
  }

  /// Bytes buffered but not yet consumed (a partial frame in flight).
  [[nodiscard]] std::size_t pending_bytes() const noexcept {
    return buffer_.size() - consumed_;
  }

 private:
  void compact();

  std::string buffer_;
  std::size_t consumed_ = 0;  ///< prefix of buffer_ already processed
  std::uint64_t skipped_ = 0;
};

// --- socket transport, shared by server and client ---

/// Sends every byte, retrying EINTR.  MSG_NOSIGNAL: a vanished peer
/// surfaces as EPIPE, never as a SIGPIPE.  False once the peer is gone
/// (errno says why), or once the socket's send timeout (SO_SNDTIMEO) has
/// run out, counted over the whole call rather than per send(2): a peer
/// that stops reading costs one timeout, not one per partial send.
[[nodiscard]] bool send_all(int fd, std::string_view bytes);

/// One recv(2) into `decoder`, retried on EINTR — a signal landing in a
/// blocked recv must not read as a dead peer (SO_RCVTIMEO makes recv
/// non-restartable even under SA_RESTART).  Returns recv's result: bytes
/// fed, 0 at EOF, -1 on error or receive timeout (errno set).
ssize_t recv_into(int fd, frame_decoder& decoder);

/// Bounds each blocking recv (`option` = SO_RCVTIMEO) or send
/// (SO_SNDTIMEO) on `fd` to `seconds`; <= 0 leaves it unbounded.
void set_socket_timeout(int fd, int option, double seconds);

}  // namespace vs::serve
