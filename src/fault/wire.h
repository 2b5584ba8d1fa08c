// The one text codec of the repo: sealed lines of space-separated fields.
//
// Every text format speaks this grammar — campaign records and journal
// lines (supervise/journal.h), the serve admission journal
// (serve/job_journal.h), worker and heartbeat pipe lines
// (supervise/fork_runner.h), and the headers of all serve messages
// (serve/protocol.h).  A payload is a tag token followed by fields: decimal
// unsigned integers, or free text squeezed into one token by `token`.
// Lines that cross a pipe or land in a journal are sealed with a trailing
// FNV-1a checksum token ("~xxxxxxxx"); a reader validates the seal first,
// then reads fields with full range checks, so a line truncated by a
// SIGKILL mid-write or overwritten with garbage is rejected as a unit
// instead of producing a half-parsed record.  (Serve frames carry their
// own checksum, so message payloads are not sealed again.)
//
// No format tokenizes, parses numbers or splits lines on its own; formats
// differ only in which fields they put after which tag.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "fault/model.h"
#include "image/image.h"

namespace vs::fault::wire {

/// FNV-1a over the payload bytes (the seal appended by `seal`).
[[nodiscard]] std::uint32_t checksum(std::string_view payload) noexcept;

/// `payload` + " ~crc32hex".  The payload must not contain newlines.
[[nodiscard]] std::string seal(std::string_view payload);

/// Validates and strips the seal; nullopt for truncated/garbled lines.
[[nodiscard]] std::optional<std::string> unseal(std::string_view line);

/// Free text as one field: space, CR, LF and '~' (which would open a seal)
/// become '_'.  Empty stays empty — each caller picks its own default.
[[nodiscard]] std::string token(std::string_view text);

/// The whole of `text` as a decimal in [0, max]: no sign, no spaces, no
/// trailing junk ("12x" is not 12).  The one strict integer parser: every
/// field read and every command-line count goes through it.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(
    std::string_view text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// The whole of `text` as a finite decimal >= 0, fractions allowed
/// (command-line seconds and factors); nullopt for anything else.
[[nodiscard]] std::optional<double> parse_nonneg(std::string_view text);

/// Builds one payload: the tag, then one space-prefixed field per call.
class field_writer {
 public:
  explicit field_writer(std::string_view tag) : out_(tag) {}

  /// A decimal field.
  field_writer& num(std::uint64_t value);
  /// A free-text field through `token`; `if_empty` stands in for "".
  field_writer& text(std::string_view value, std::string_view if_empty = {});

  [[nodiscard]] const std::string& str() const noexcept { return out_; }
  [[nodiscard]] std::string take() noexcept { return std::move(out_); }

 private:
  std::string out_;
};

/// Reads one payload: split once on runs of spaces, check the tag, then
/// typed reads in field order.  A failed read (missing field, not a plain
/// decimal, above its inclusive max) returns zero/empty and poisons the
/// reader; `done()` is the single verdict, true only when the tag matched,
/// every read succeeded and every field was consumed.
class field_reader {
 public:
  /// Any tag; inspect it with tag().
  explicit field_reader(std::string_view payload);
  /// Poisoned unless the first token is exactly `tag`.
  field_reader(std::string_view payload, std::string_view tag);

  [[nodiscard]] std::string_view tag() const noexcept {
    return tokens_.empty() ? std::string_view() : tokens_.front();
  }

  /// The next field as a decimal in [0, max], cast to T.  Enums must pass
  /// their max; integral types default to the largest value T holds.
  template <class T = std::uint64_t>
  T num(std::uint64_t max = max_of<T>()) {
    return static_cast<T>(next_u64(max));
  }

  /// The next field verbatim, at most `max_size` bytes.
  std::string_view text(std::size_t max_size = std::string_view::npos);

  [[nodiscard]] bool done() const noexcept {
    return ok_ && next_ == tokens_.size();
  }

 private:
  template <class T>
  static constexpr std::uint64_t max_of() {
    static_assert(std::is_integral_v<T>, "enum reads need an explicit max");
    return static_cast<std::uint64_t>(std::numeric_limits<T>::max());
  }

  std::uint64_t next_u64(std::uint64_t max);

  std::vector<std::string_view> tokens_;
  std::size_t next_ = 1;  ///< tokens_[0] is the tag
  bool ok_ = true;
};

/// Incremental sealed-line splitter for pipes and journal files.  Bytes go
/// in as they arrive; every complete line whose seal validates comes out as
/// its payload.  Empty lines are ignored; torn, bit-flipped or garbage
/// lines (and sealed empty payloads) are dropped and counted.
class line_reader {
 public:
  using payload_fn = std::function<void(std::string_view payload)>;

  /// Appends `bytes` and hands each newly completed line's payload to fn.
  void feed(std::string_view bytes, const payload_fn& fn);
  /// End of input: a buffered unterminated tail is read as a last line.
  void finish(const payload_fn& fn);

  [[nodiscard]] std::size_t rejected() const noexcept { return rejected_; }

 private:
  void line(std::string_view text, const payload_fn& fn);

  std::string buffer_;
  std::size_t rejected_ = 0;
};

/// Serializes one experiment record (unsealed payload, "R" tag first):
///   R index cls target bit reg_id scoped scope scope_b live fired outcome
///     fired_scope fired_kind detections replica_divergences retries
///     frames_degraded
[[nodiscard]] std::string record_payload(std::size_t index,
                                         const injection_record& record);

struct parsed_record {
  std::size_t index = 0;
  injection_record record;
};

/// Parses a record payload (already unsealed).  Every enum field is range
/// checked; nullopt on any malformed field or any field count but 18.
[[nodiscard]] std::optional<parsed_record> parse_record(
    std::string_view payload);

/// FNV-1a 64 over an image's shape and pixels — the summary fingerprint
/// workers report instead of shipping whole panoramas across the pipe.
[[nodiscard]] std::uint64_t hash_image(const img::image_u8& image) noexcept;

}  // namespace vs::fault::wire
