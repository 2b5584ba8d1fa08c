#include "fault/wire.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace vs::fault::wire {

namespace {

constexpr std::uint32_t kFnvOffset32 = 2166136261u;
constexpr std::uint32_t kFnvPrime32 = 16777619u;
constexpr std::uint64_t kFnvOffset64 = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime64 = 1099511628211ULL;

}  // namespace

std::uint32_t checksum(std::string_view payload) noexcept {
  std::uint32_t h = kFnvOffset32;
  for (const char c : payload) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime32;
  }
  return h;
}

std::string seal(std::string_view payload) {
  char tag[16];
  std::snprintf(tag, sizeof(tag), " ~%08x", checksum(payload));
  return std::string(payload) + tag;
}

std::optional<std::string> unseal(std::string_view line) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  const std::size_t tag = line.rfind(" ~");
  if (tag == std::string_view::npos) return std::nullopt;
  const std::string_view payload = line.substr(0, tag);
  const std::string_view crc = line.substr(tag + 2);
  if (crc.size() != 8) return std::nullopt;
  std::uint32_t stated = 0;
  const auto [ptr, ec] =
      std::from_chars(crc.data(), crc.data() + crc.size(), stated, 16);
  if (ec != std::errc{} || ptr != crc.data() + crc.size()) return std::nullopt;
  if (stated != checksum(payload)) return std::nullopt;
  if (payload.find('\n') != std::string_view::npos) return std::nullopt;
  return std::string(payload);
}

std::string token(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    if (c == ' ' || c == '\n' || c == '\r' || c == '~') c = '_';
  }
  return out;
}

std::optional<std::uint64_t> parse_u64(std::string_view text,
                                       std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || value > max) return std::nullopt;
  return value;
}

std::optional<double> parse_nonneg(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value) ||
      !(value >= 0.0)) {
    return std::nullopt;
  }
  return value;
}

field_writer& field_writer::num(std::uint64_t value) {
  char buf[24];
  buf[0] = ' ';
  const auto [end, ec] = std::to_chars(buf + 1, buf + sizeof(buf), value);
  out_.append(buf, end);
  return *this;
}

field_writer& field_writer::text(std::string_view value,
                                 std::string_view if_empty) {
  out_.push_back(' ');
  out_ += token(value.empty() ? if_empty : value);
  return *this;
}

field_reader::field_reader(std::string_view payload) {
  std::size_t pos = 0;
  while (pos < payload.size()) {
    while (pos < payload.size() && payload[pos] == ' ') ++pos;
    std::size_t end = pos;
    while (end < payload.size() && payload[end] != ' ') ++end;
    if (end > pos) tokens_.push_back(payload.substr(pos, end - pos));
    pos = end;
  }
  ok_ = !tokens_.empty();
}

field_reader::field_reader(std::string_view payload, std::string_view tag)
    : field_reader(payload) {
  ok_ = ok_ && tokens_.front() == tag;
}

std::uint64_t field_reader::next_u64(std::uint64_t max) {
  if (!ok_ || next_ >= tokens_.size()) {
    ok_ = false;
    return 0;
  }
  const auto value = parse_u64(tokens_[next_++], max);
  ok_ = value.has_value();
  return value.value_or(0);
}

std::string_view field_reader::text(std::size_t max_size) {
  if (!ok_ || next_ >= tokens_.size() || tokens_[next_].size() > max_size) {
    ok_ = false;
    return {};
  }
  return tokens_[next_++];
}

void line_reader::feed(std::string_view bytes, const payload_fn& fn) {
  buffer_.append(bytes.data(), bytes.size());
  std::size_t start = 0;
  std::size_t nl = buffer_.find('\n');
  while (nl != std::string::npos) {
    line(std::string_view(buffer_).substr(start, nl - start), fn);
    start = nl + 1;
    nl = buffer_.find('\n', start);
  }
  buffer_.erase(0, start);
}

void line_reader::finish(const payload_fn& fn) {
  const std::string tail = std::move(buffer_);
  buffer_.clear();
  line(tail, fn);
}

void line_reader::line(std::string_view text, const payload_fn& fn) {
  if (text.empty()) return;
  const auto payload = unseal(text);
  if (!payload || payload->empty()) {
    ++rejected_;
    return;
  }
  fn(*payload);
}

std::string record_payload(std::size_t index, const injection_record& r) {
  field_writer w("R");
  w.num(index)
      .num(static_cast<std::uint64_t>(r.plan.cls))
      .num(r.plan.target)
      .num(r.plan.bit)
      .num(r.plan.reg_id)
      .num(r.plan.scoped ? 1 : 0)
      .num(static_cast<std::uint64_t>(r.plan.scope))
      .num(static_cast<std::uint64_t>(r.plan.scope_b))
      .num(r.register_live ? 1 : 0)
      .num(r.fired ? 1 : 0)
      .num(static_cast<std::uint64_t>(r.result))
      .num(static_cast<std::uint64_t>(r.fired_scope))
      .num(static_cast<std::uint64_t>(r.fired_kind))
      .num(r.detections)
      .num(r.replica_divergences)
      .num(r.retries)
      .num(r.frames_degraded);
  return w.take();
}

std::optional<parsed_record> parse_record(std::string_view payload) {
  constexpr std::uint64_t last_fn = rt::fn_count - 1;
  field_reader in(payload, "R");
  parsed_record out;
  out.index = in.num<std::size_t>();
  injection_record& r = out.record;
  r.plan.cls = in.num<rt::reg_class>(rt::reg_class_count - 1);
  r.plan.target = in.num();
  r.plan.bit = in.num<std::uint32_t>(63);
  r.plan.reg_id = in.num<std::uint32_t>();
  r.plan.scoped = in.num<bool>();
  r.plan.scope = in.num<rt::fn>(last_fn);
  r.plan.scope_b = in.num<rt::fn>(last_fn);
  r.register_live = in.num<bool>();
  r.fired = in.num<bool>();
  r.result = in.num<outcome>(
      static_cast<std::uint64_t>(outcome::detected_degraded));
  r.fired_scope = in.num<rt::fn>(last_fn);
  r.fired_kind = in.num<rt::op>(rt::op_count - 1);
  r.detections = in.num<std::uint32_t>();
  r.replica_divergences = in.num<std::uint32_t>();
  r.retries = in.num<std::uint32_t>();
  r.frames_degraded = in.num<std::uint32_t>();
  if (!in.done()) return std::nullopt;
  return out;
}

std::uint64_t hash_image(const img::image_u8& image) noexcept {
  std::uint64_t h = kFnvOffset64;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xFF;
      h *= kFnvPrime64;
    }
  };
  mix(static_cast<std::uint64_t>(image.width()));
  mix(static_cast<std::uint64_t>(image.height()));
  mix(static_cast<std::uint64_t>(image.channels()));
  const std::uint8_t* data = image.data();
  for (std::size_t i = 0; i < image.size(); ++i) {
    h ^= data[i];
    h *= kFnvPrime64;
  }
  return h;
}

}  // namespace vs::fault::wire
