// Message layer of the summarization service, one struct per frame type.
//
// Every message travels as one frame (serve/framing.h).  The payload is a
// header in the repo's one text codec (fault/wire.h): a one-letter tag,
// then decimal fields and sanitized text tokens — doubles are carried as
// integer microseconds/milliseconds so the codec never parses floating
// point — and image-bearing messages append '\n' plus the raw pixel bytes
// after the header.  Parsers are wire::field_reader walks: every field is
// range checked and any malformed payload yields nullopt, never a throw and
// never a half-parsed message.  The frame checksum already seals the
// payload, so there is no inner seal.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "app/config.h"
#include "app/pipeline.h"
#include "fault/model.h"
#include "fault/wire.h"
#include "image/image.h"
#include "perf/latency.h"
#include "rt/instrument.h"
#include "serve/framing.h"
#include "video/generator.h"

namespace vs::serve {

/// One request frame (submit or stats_request) per connection, then the
/// server's answer.  Number 1 is retired and stays unused.
enum class msg_type : std::uint16_t {
  submit = 2,         ///< client -> server: one clip job
  accepted = 3,       ///< server -> client: job admitted, id assigned
  rejected = 4,       ///< server -> client: admission refused, retry-after
  panorama = 5,       ///< server -> client: one mini-panorama, streamed
  complete = 6,       ///< server -> client: stats + final montage
  failed = 7,         ///< server -> client: job died (crash/hang taxonomy)
  stats_request = 8,  ///< client -> server: snapshot request
  stats_reply = 9,    ///< server -> client: queue/pool/latency snapshot
};

/// Admission priority: interactive jobs overtake batch jobs in the queue
/// (FIFO within a class).
enum class priority_class : std::uint8_t { interactive = 0, batch = 1 };

[[nodiscard]] const char* priority_name(priority_class p) noexcept;

/// Why an admission was refused.
enum class reject_reason : std::uint8_t {
  queue_full = 0,   ///< bounded queue at capacity — honor retry_after
  draining = 1,     ///< server is in SIGTERM drain, not admitting
  bad_request = 2,  ///< malformed or out-of-range submit
};

[[nodiscard]] const char* reject_reason_name(reject_reason r) noexcept;

/// Maximum length of a client idempotency key on the wire (bounds journal
/// line growth from hostile submits).
inline constexpr std::size_t kMaxClientKey = 64;

/// A planned register-file bit flip armed around one job's pipeline run —
/// the serve-layer fault campaign's delivery mechanism (serve/campaign.h).
/// The plan fields are exactly fault::plan_experiment's output, so an
/// injection replayed from the admission journal after a server crash
/// reproduces the same flip at the same dynamic operation.
struct fault_spec {
  bool armed = false;
  rt::reg_class cls = rt::reg_class::gpr;
  std::uint64_t target = 0;       ///< dynamic op index within the class
  std::uint32_t bit = 0;          ///< 0..63
  std::uint64_t step_budget = 0;  ///< hang watchdog steps; 0 = none
};

/// One clip job: the same axes vs summarize takes on the command line,
/// plus the service-only knobs (priority, deadline, thread cap).
struct job_request {
  video::input_id input = video::input_id::input1;
  app::algorithm alg = app::algorithm::vs;
  int frames = 20;
  resil::hardening_level hardening = resil::hardening_level::off;
  priority_class priority = priority_class::batch;
  std::uint64_t deadline_ms = 0;  ///< wall-clock budget; 0 = none
  unsigned max_threads = 0;       ///< cap on the leased width; 0 = fair share
  /// Client-supplied idempotency key; empty = none ("-" on the wire).
  /// Sent as one wire::token of at most kMaxClientKey bytes.
  /// Resubmitting under the same key never double-executes: the server
  /// dedupes against queued/running/recently-completed jobs and replays the
  /// buffered result stream instead (server.h, "crash-only serving").
  std::string client_key;
  fault_spec fault;  ///< campaign injection to arm around this run
};

struct job_accepted {
  std::uint64_t job_id = 0;
  std::uint64_t queue_depth = 0;  ///< jobs ahead at admission time
};

struct job_rejected {
  reject_reason reason = reject_reason::queue_full;
  std::uint64_t retry_after_ms = 0;  ///< backpressure hint, 0 = don't retry
  std::uint64_t queue_depth = 0;
};

/// One mini-panorama, pushed the moment the pipeline closes it.
struct panorama_msg {
  std::uint64_t job_id = 0;
  int index = 0;  ///< monotonically increasing per job (replays dropped)
  img::image_u8 image;
};

struct job_complete {
  std::uint64_t job_id = 0;
  app::run_stats stats;
  std::uint32_t detections = 0;       ///< resil::run_report::faults_detected
  std::uint32_t retries = 0;          ///< recovery retries
  std::uint32_t frames_degraded = 0;  ///< recovery degradations
  std::uint64_t wall_us = 0;
  std::uint64_t panorama_hash = 0;  ///< wire::hash_image of the montage
  img::image_u8 montage;
};

struct job_failed {
  std::uint64_t job_id = 0;
  fault::outcome failure = fault::outcome::crash_abort;
  std::string message;  ///< one wire::token; "_" on the wire when empty
};

struct stats_reply {
  std::uint64_t queue_depth = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  bool draining = false;
  std::uint64_t pool_budget = 0;
  std::uint64_t pool_in_use = 0;
  std::uint64_t pool_peak_in_use = 0;
  std::uint64_t restarts = 0;       ///< supervisor respawn generation
  std::uint64_t journal_depth = 0;  ///< journaled accepted-not-settled jobs
  std::uint64_t replayed = 0;       ///< jobs re-enqueued from the journal
  perf::latency_snapshot latency;  ///< per-job wall latency, milliseconds
};

// --- encoders: each returns the complete frame (header + payload) ---

[[nodiscard]] std::string encode_submit(const job_request& m);
[[nodiscard]] std::string encode_accepted(const job_accepted& m);
[[nodiscard]] std::string encode_rejected(const job_rejected& m);
[[nodiscard]] std::string encode_panorama(const panorama_msg& m);
/// Copy-free variant for streaming callbacks that only borrow the image.
[[nodiscard]] std::string encode_panorama(std::uint64_t job_id, int index,
                                          const img::image_u8& image);
[[nodiscard]] std::string encode_complete(const job_complete& m);
[[nodiscard]] std::string encode_failed(const job_failed& m);
[[nodiscard]] std::string encode_stats_request();
[[nodiscard]] std::string encode_stats_reply(const stats_reply& m);

// --- parsers: take a validated frame's payload; nullopt on any malformed
// field (including image dimensions that disagree with the byte count) ---

[[nodiscard]] std::optional<job_request> parse_submit(
    std::string_view payload);
[[nodiscard]] std::optional<job_accepted> parse_accepted(
    std::string_view payload);
[[nodiscard]] std::optional<job_rejected> parse_rejected(
    std::string_view payload);
[[nodiscard]] std::optional<panorama_msg> parse_panorama(
    std::string_view payload);
[[nodiscard]] std::optional<job_complete> parse_complete(
    std::string_view payload);
[[nodiscard]] std::optional<job_failed> parse_failed(
    std::string_view payload);
[[nodiscard]] std::optional<stats_reply> parse_stats_reply(
    std::string_view payload);

// --- shared request-field codec ---
//
// The request's wire fields, shared between the submit frame and the
// admission journal's A/G lines (serve/job_journal.h) so a journaled job
// replays through the same reader that admitted it.  The request fields
// always end their payload: the reader requires every field consumed.

void write_request_fields(fault::wire::field_writer& out,
                          const job_request& m);
[[nodiscard]] std::optional<job_request> read_request_fields(
    fault::wire::field_reader& in);

}  // namespace vs::serve
