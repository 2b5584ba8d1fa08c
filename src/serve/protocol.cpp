#include "serve/protocol.h"

#include <algorithm>

namespace vs::serve {

namespace {

// Latencies cross the wire as integer microseconds so parsing never touches
// floating point; 1 us of quantization is noise against millisecond jobs.
std::uint64_t ms_to_us(double ms) {
  if (ms <= 0.0) return 0;
  return static_cast<std::uint64_t>(ms * 1000.0 + 0.5);
}

double us_to_ms(std::uint64_t us) { return static_cast<double>(us) / 1000.0; }

using fault::wire::field_reader;
using fault::wire::field_writer;

// Image-bearing payloads: the header fields, then '\n' and the raw pixels.
std::string with_image(field_writer& w, const img::image_u8& image) {
  w.num(static_cast<std::uint64_t>(image.width()))
      .num(static_cast<std::uint64_t>(image.height()))
      .num(static_cast<std::uint64_t>(image.channels()));
  std::string out = w.take();
  out.reserve(out.size() + 1 + image.size());
  out.push_back('\n');
  out.append(reinterpret_cast<const char*>(image.data()), image.size());
  return out;
}

// Splits an image-bearing payload at the first '\n': header fields before,
// raw pixels after.
struct image_payload {
  std::string_view header;
  std::string_view pixels;
};

std::optional<image_payload> split_image_payload(std::string_view payload) {
  const std::size_t nl = payload.find('\n');
  if (nl == std::string_view::npos) return std::nullopt;
  return image_payload{payload.substr(0, nl), payload.substr(nl + 1)};
}

// Reads the trailing (w, h, c) fields and rebuilds the image from the pixel
// bytes, whose count must equal w*h*c exactly.  Dimensions are bounded by
// the frame payload cap, so a garbled header can't trigger a giant
// allocation before the byte-count cross-check rejects it.
std::optional<img::image_u8> read_image(field_reader& in,
                                        std::string_view pixels) {
  const auto w = in.num(kMaxFramePayload);
  const auto h = in.num(kMaxFramePayload);
  const auto c = in.num(3);
  // basic_image only models 1- and 3-channel layouts (its ctor throws on
  // anything else; parsers never throw).
  if (!in.done() || (c != 1 && c != 3)) return std::nullopt;
  const std::uint64_t expected = w * h * c;
  if (expected != pixels.size()) return std::nullopt;
  if (w == 0 || h == 0) return img::image_u8();
  img::image_u8 image(static_cast<int>(w), static_cast<int>(h),
                      static_cast<int>(c));
  std::copy(pixels.begin(), pixels.end(),
            reinterpret_cast<char*>(image.data()));
  return image;
}

std::string frame_of(msg_type type, std::string_view payload) {
  return encode_frame(static_cast<std::uint16_t>(type), payload);
}

}  // namespace

const char* priority_name(priority_class p) noexcept {
  return p == priority_class::interactive ? "interactive" : "batch";
}

const char* reject_reason_name(reject_reason r) noexcept {
  switch (r) {
    case reject_reason::queue_full: return "queue_full";
    case reject_reason::draining: return "draining";
    case reject_reason::bad_request: return "bad_request";
  }
  return "unknown";
}

void write_request_fields(field_writer& w, const job_request& m) {
  w.num(static_cast<std::uint64_t>(m.input))
      .num(static_cast<std::uint64_t>(m.alg))
      .num(static_cast<std::uint64_t>(m.frames))
      .num(static_cast<std::uint64_t>(m.hardening))
      .num(static_cast<std::uint64_t>(m.priority))
      .num(m.deadline_ms)
      .num(m.max_threads)
      .text(std::string_view(m.client_key).substr(0, kMaxClientKey), "-")
      .num(m.fault.armed ? 1 : 0)
      .num(static_cast<std::uint64_t>(m.fault.cls))
      .num(m.fault.target)
      .num(m.fault.bit)
      .num(m.fault.step_budget);
}

std::optional<job_request> read_request_fields(field_reader& in) {
  job_request m;
  m.input = in.num<video::input_id>(2);
  m.alg = in.num<app::algorithm>(
      static_cast<std::uint64_t>(app::algorithm::vs_sm));
  m.frames = in.num<int>();
  m.hardening = in.num<resil::hardening_level>(
      static_cast<std::uint64_t>(resil::hardening_level::full));
  m.priority = in.num<priority_class>(1);
  m.deadline_ms = in.num();
  m.max_threads = in.num<unsigned>(256);
  const std::string_view key = in.text(kMaxClientKey);
  if (key != "-") m.client_key = std::string(key);
  m.fault.armed = in.num<bool>();
  m.fault.cls = in.num<rt::reg_class>(rt::reg_class_count - 1);
  m.fault.target = in.num();
  m.fault.bit = in.num<std::uint32_t>(63);
  m.fault.step_budget = in.num();
  if (!in.done()) return std::nullopt;
  return m;
}

std::string encode_submit(const job_request& m) {
  field_writer w("J");
  write_request_fields(w, m);
  return frame_of(msg_type::submit, w.str());
}

std::string encode_accepted(const job_accepted& m) {
  return frame_of(msg_type::accepted,
                  field_writer("A").num(m.job_id).num(m.queue_depth).str());
}

std::string encode_rejected(const job_rejected& m) {
  field_writer w("R");
  w.num(static_cast<std::uint64_t>(m.reason))
      .num(m.retry_after_ms)
      .num(m.queue_depth);
  return frame_of(msg_type::rejected, w.str());
}

std::string encode_panorama(const panorama_msg& m) {
  return encode_panorama(m.job_id, m.index, m.image);
}

std::string encode_panorama(std::uint64_t job_id, int index,
                            const img::image_u8& image) {
  field_writer w("P");
  w.num(job_id).num(static_cast<std::uint64_t>(index));
  return frame_of(msg_type::panorama, with_image(w, image));
}

std::string encode_complete(const job_complete& m) {
  field_writer w("C");
  w.num(m.job_id)
      .num(static_cast<std::uint64_t>(m.stats.frames_total))
      .num(static_cast<std::uint64_t>(m.stats.frames_dropped_rfd))
      .num(static_cast<std::uint64_t>(m.stats.frames_stitched))
      .num(static_cast<std::uint64_t>(m.stats.frames_discarded))
      .num(static_cast<std::uint64_t>(m.stats.homography_alignments))
      .num(static_cast<std::uint64_t>(m.stats.affine_alignments))
      .num(static_cast<std::uint64_t>(m.stats.mini_panoramas))
      .num(m.stats.keypoints_detected)
      .num(m.stats.keypoints_matched_on)
      .num(m.stats.total_matches)
      .num(m.detections)
      .num(m.retries)
      .num(m.frames_degraded)
      .num(m.wall_us)
      .num(m.panorama_hash);
  return frame_of(msg_type::complete, with_image(w, m.montage));
}

std::string encode_failed(const job_failed& m) {
  field_writer w("F");
  w.num(m.job_id)
      .num(static_cast<std::uint64_t>(m.failure))
      .text(m.message, "_");
  return frame_of(msg_type::failed, w.str());
}

std::string encode_stats_request() {
  return frame_of(msg_type::stats_request, "Q");
}

std::string encode_stats_reply(const stats_reply& m) {
  field_writer w("S");
  w.num(m.queue_depth)
      .num(m.in_flight)
      .num(m.completed)
      .num(m.rejected)
      .num(m.failed)
      .num(m.draining ? 1 : 0)
      .num(m.pool_budget)
      .num(m.pool_in_use)
      .num(m.pool_peak_in_use)
      .num(m.restarts)
      .num(m.journal_depth)
      .num(m.replayed)
      .num(m.latency.count)
      .num(ms_to_us(m.latency.mean_ms))
      .num(ms_to_us(m.latency.p50_ms))
      .num(ms_to_us(m.latency.p90_ms))
      .num(ms_to_us(m.latency.p95_ms))
      .num(ms_to_us(m.latency.p99_ms))
      .num(ms_to_us(m.latency.max_ms));
  return frame_of(msg_type::stats_reply, w.str());
}

std::optional<job_request> parse_submit(std::string_view payload) {
  field_reader in(payload, "J");
  return read_request_fields(in);
}

std::optional<job_accepted> parse_accepted(std::string_view payload) {
  field_reader in(payload, "A");
  job_accepted m;
  m.job_id = in.num();
  m.queue_depth = in.num();
  if (!in.done()) return std::nullopt;
  return m;
}

std::optional<job_rejected> parse_rejected(std::string_view payload) {
  field_reader in(payload, "R");
  job_rejected m;
  m.reason = in.num<reject_reason>(
      static_cast<std::uint64_t>(reject_reason::bad_request));
  m.retry_after_ms = in.num();
  m.queue_depth = in.num();
  if (!in.done()) return std::nullopt;
  return m;
}

std::optional<panorama_msg> parse_panorama(std::string_view payload) {
  const auto parts = split_image_payload(payload);
  if (!parts) return std::nullopt;
  field_reader in(parts->header, "P");
  panorama_msg m;
  m.job_id = in.num();
  m.index = in.num<int>();
  auto image = read_image(in, parts->pixels);
  if (!image) return std::nullopt;
  m.image = std::move(*image);
  return m;
}

std::optional<job_complete> parse_complete(std::string_view payload) {
  const auto parts = split_image_payload(payload);
  if (!parts) return std::nullopt;
  field_reader in(parts->header, "C");
  job_complete m;
  m.job_id = in.num();
  m.stats.frames_total = in.num<int>();
  m.stats.frames_dropped_rfd = in.num<int>();
  m.stats.frames_stitched = in.num<int>();
  m.stats.frames_discarded = in.num<int>();
  m.stats.homography_alignments = in.num<int>();
  m.stats.affine_alignments = in.num<int>();
  m.stats.mini_panoramas = in.num<int>();
  m.stats.keypoints_detected = in.num<std::size_t>();
  m.stats.keypoints_matched_on = in.num<std::size_t>();
  m.stats.total_matches = in.num<std::size_t>();
  m.detections = in.num<std::uint32_t>();
  m.retries = in.num<std::uint32_t>();
  m.frames_degraded = in.num<std::uint32_t>();
  m.wall_us = in.num();
  m.panorama_hash = in.num();
  auto montage = read_image(in, parts->pixels);
  if (!montage) return std::nullopt;
  m.montage = std::move(*montage);
  return m;
}

std::optional<job_failed> parse_failed(std::string_view payload) {
  field_reader in(payload, "F");
  job_failed m;
  m.job_id = in.num();
  m.failure = in.num<fault::outcome>(
      static_cast<std::uint64_t>(fault::outcome::detected_degraded));
  m.message = std::string(in.text());
  if (!in.done()) return std::nullopt;
  return m;
}

std::optional<stats_reply> parse_stats_reply(std::string_view payload) {
  field_reader in(payload, "S");
  stats_reply m;
  m.queue_depth = in.num();
  m.in_flight = in.num();
  m.completed = in.num();
  m.rejected = in.num();
  m.failed = in.num();
  m.draining = in.num<bool>();
  m.pool_budget = in.num();
  m.pool_in_use = in.num();
  m.pool_peak_in_use = in.num();
  m.restarts = in.num();
  m.journal_depth = in.num();
  m.replayed = in.num();
  m.latency.count = in.num<std::size_t>();
  m.latency.mean_ms = us_to_ms(in.num());
  m.latency.p50_ms = us_to_ms(in.num());
  m.latency.p90_ms = us_to_ms(in.num());
  m.latency.p95_ms = us_to_ms(in.num());
  m.latency.p99_ms = us_to_ms(in.num());
  m.latency.max_ms = us_to_ms(in.num());
  if (!in.done()) return std::nullopt;
  return m;
}

}  // namespace vs::serve
