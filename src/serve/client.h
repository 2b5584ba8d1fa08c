// Client side of the summarization service (`vs submit`).
//
// One connection per request, mirroring the server: connect, send one
// request frame, then consume the streamed response — each mini-panorama
// as the server closes it, then the final montage — through an optional
// callback.  The returned submit_outcome holds everything a
// caller needs to reproduce the one-shot `vs summarize` behaviour
// byte-for-byte: the montage in `complete->montage` is the same image
// summarize() returns in summary_result::panorama.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/retry.h"
#include "serve/protocol.h"

namespace vs::serve {

/// Everything one submission produced.  Exactly one of `accepted` /
/// `rejected` is set; when accepted, exactly one of `complete` / `failed`
/// is set (unless the connection died mid-stream, which surfaces as an
/// io_error from submit()).
///
/// submit_resilient() relaxes the "exactly one" contract in one direction:
/// after exhausting its attempt budget it can return with NONE of
/// complete/failed/rejected set — the client-visible Lost outcome of the
/// serve-layer fault campaign (serve/campaign.h).
struct submit_outcome {
  std::optional<job_accepted> accepted;
  std::optional<job_rejected> rejected;
  std::optional<job_complete> complete;
  std::optional<job_failed> failed;
  std::vector<panorama_msg> panoramas;  ///< streamed minis, index order
  int attempts = 1;    ///< submissions tried (resilient path)
  int reconnects = 0;  ///< reconnects after a dead/unreachable server
};

class client {
 public:
  /// `receive_timeout_s` bounds each wait for server bytes (0 = forever).
  explicit client(std::string socket_path, double receive_timeout_s = 0.0);

  /// Submits one job and consumes the whole response stream.  `on_panorama`
  /// (optional) fires per streamed mini-panorama, before submit() returns —
  /// the streaming hook `vs submit` uses to write partial summaries as
  /// they land.  Throws io_error when the socket cannot be reached or the
  /// server vanishes mid-stream.
  [[nodiscard]] submit_outcome submit(
      const job_request& request,
      const std::function<void(const panorama_msg&)>& on_panorama = {});

  /// Crash-tolerant submit: reconnect-with-backoff around submit(), keyed
  /// by a client-supplied idempotency id so a resubmission after a server
  /// crash adopts the journaled job instead of re-executing it
  /// (serve/server.h, "crash-only serving").  An empty request.client_key
  /// gets a process-unique one.  Retries connect failures, mid-stream
  /// deaths, and queue_full/draining rejections (sleeping the server's
  /// retry_after hint when longer than the backoff).  Every attempt, even a
  /// failed connect, counts against `backoff.max_attempts`.  Minis already
  /// streamed on a previous attempt are not re-delivered to `on_panorama`.
  /// Returns the terminal outcome, or — attempts exhausted with no
  /// terminal reply — an outcome with neither complete, failed, nor
  /// rejected set: the job is Lost from this client's point of view.
  [[nodiscard]] submit_outcome submit_resilient(
      job_request request, const core::backoff_policy& backoff = {},
      const std::function<void(const panorama_msg&)>& on_panorama = {});

  /// Fetches the server's live stats snapshot.  Throws io_error on
  /// connection failure or a garbled reply.
  [[nodiscard]] stats_reply stats();

  [[nodiscard]] const std::string& socket_path() const noexcept {
    return socket_path_;
  }

 private:
  /// A connected socket to the server, receive timeout applied.
  [[nodiscard]] int open_connection();

  std::string socket_path_;
  double receive_timeout_s_;
};

}  // namespace vs::serve
