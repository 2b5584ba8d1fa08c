// Durable admission journal for the summarization service — the persistent
// half of crash-only serving (serve/server.h).
//
// Same physical format as the campaign journal (supervise/journal.h): one
// sealed payload in the one text codec (fault/wire.h) per line, flushed
// per line, replayed through the shared torn-tail-tolerant scanner.  Line
// kinds:
//
//   H <version> <label>                      journal identity
//   A <id> <request fields...>               job accepted (written BEFORE
//                                            the client's accept frame)
//   D <id> <completed> <outcome> <hash>      job settled (result delivered
//                                            or explicitly failed)
//   G <request fields...>                    queued job deferred: rejected
//                                            with `draining` during a
//                                            SIGTERM drain, to be
//                                            re-admitted on the next boot
//
// The request fields are exactly the submit frame's
// (serve::write_request_fields), client key and armed fault plan
// included, so a replayed job re-executes byte-identically — and a
// replayed campaign injection re-fires the same bit at the same dynamic
// op.
//
// Replay rules: an A without a matching D is unfinished and re-enqueues;
// an A with a D is a no-op (never double-executed); G lines become fresh
// admissions.  On startup the server compacts the journal (load → rewrite
// via tmp+rename, so a crash mid-compaction keeps the old file) down to a
// header plus one A line per unfinished job — which also consumes G lines
// exactly once across repeated restarts.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "fault/model.h"
#include "serve/protocol.h"

namespace vs::serve {

inline constexpr int kJobJournalVersion = 1;

/// One journaled admission: the request plus its server-assigned id.
struct journaled_job {
  std::uint64_t id = 0;
  job_request request;
};

/// Everything a job journal reconstructs.
struct job_journal_state {
  bool saw_header = false;
  std::map<std::uint64_t, job_request> accepted;  ///< id -> request
  std::set<std::uint64_t> settled;                ///< ids with a D line
  std::vector<job_request> deferred;              ///< drain-tail G lines
  std::size_t skipped_lines = 0;  ///< torn/garbled/duplicate lines dropped

  /// The replay set: accepted-but-unsettled jobs in admission (id) order,
  /// then the deferred drain tail under fresh ids past the largest
  /// journaled one.  Settled ids never reappear — replay of a completed
  /// job is a no-op.
  [[nodiscard]] std::vector<journaled_job> unfinished() const;

  [[nodiscard]] std::uint64_t max_id() const;
};

// --- line payload builders (sealed + newline-framed by the writer) ---

[[nodiscard]] std::string job_journal_header_payload(std::string_view label);
[[nodiscard]] std::string accepted_payload(std::uint64_t id,
                                           const job_request& request);
[[nodiscard]] std::string settled_payload(std::uint64_t id, bool completed,
                                          fault::outcome failure,
                                          std::uint64_t panorama_hash);
[[nodiscard]] std::string deferred_payload(const job_request& request);

/// Loads a job journal; missing file = empty state; malformed lines are
/// counted and skipped, duplicates (same A id, same D id) are no-ops.
[[nodiscard]] job_journal_state load_job_journal(const std::string& path);

/// Startup compaction: loads `path`, rewrites it (tmp + atomic rename) as
/// header + one A line per unfinished job, and returns that replay set.
/// Original ids are preserved for accepted jobs; the deferred tail gets
/// fresh ids, so G lines are consumed exactly once.  A missing journal
/// compacts to a fresh header-only file.
[[nodiscard]] std::vector<journaled_job> compact_job_journal(
    const std::string& path, std::string_view label);

}  // namespace vs::serve
