#include "serve/job_journal.h"

#include <cstdio>

#include "core/error.h"
#include "supervise/journal.h"

namespace vs::serve {

using fault::wire::field_reader;
using fault::wire::field_writer;

std::vector<journaled_job> job_journal_state::unfinished() const {
  std::vector<journaled_job> out;
  for (const auto& [id, request] : accepted) {
    if (settled.count(id) != 0) continue;
    out.push_back({id, request});
  }
  std::uint64_t next = max_id();
  for (const auto& request : deferred) {
    out.push_back({++next, request});
  }
  return out;
}

std::uint64_t job_journal_state::max_id() const {
  return accepted.empty() ? 0 : accepted.rbegin()->first;
}

std::string job_journal_header_payload(std::string_view label) {
  return field_writer("H").num(kJobJournalVersion).text(label, "serve").take();
}

std::string accepted_payload(std::uint64_t id, const job_request& request) {
  field_writer w("A");
  w.num(id);
  write_request_fields(w, request);
  return w.take();
}

std::string settled_payload(std::uint64_t id, bool completed,
                            fault::outcome failure,
                            std::uint64_t panorama_hash) {
  return field_writer("D")
      .num(id)
      .num(completed ? 1 : 0)
      .num(static_cast<std::uint64_t>(failure))
      .num(panorama_hash)
      .take();
}

std::string deferred_payload(const job_request& request) {
  field_writer w("G");
  write_request_fields(w, request);
  return w.take();
}

job_journal_state load_job_journal(const std::string& path) {
  job_journal_state state;
  state.skipped_lines +=
      supervise::scan_journal_lines(path, [&](std::string_view payload) {
        field_reader in(payload);
        const std::string_view tag = in.tag();
        if (tag == "H") {
          const bool current = in.num() == kJobJournalVersion;
          (void)in.text();  // the label
          // Only the first header counts; a duplicate is journal damage.
          if (current && in.done() && !state.saw_header) {
            state.saw_header = true;
            return;
          }
        } else if (tag == "A") {
          const auto id = in.num();
          const auto request = read_request_fields(in);
          // A duplicated A line (same id) is a replayed write, not damage —
          // first admission wins, matching the server's dedupe rule.
          if (request && id > 0) {
            state.accepted.emplace(id, *request);
            return;
          }
        } else if (tag == "D") {
          const auto id = in.num();
          for (int field = 0; field < 3; ++field) {
            (void)in.num();  // completed, outcome, hash: shape only
          }
          if (in.done()) {
            state.settled.insert(id);  // duplicates are no-ops
            return;
          }
        } else if (tag == "G") {
          if (const auto request = read_request_fields(in)) {
            state.deferred.push_back(*request);
            return;
          }
        }
        ++state.skipped_lines;
      });
  // A journal without a readable header has no identity; its records could
  // belong to anything (or be pure corruption) — drop them.
  if (!state.saw_header) {
    state.skipped_lines +=
        state.accepted.size() + state.settled.size() + state.deferred.size();
    state.accepted.clear();
    state.settled.clear();
    state.deferred.clear();
  }
  return state;
}

std::vector<journaled_job> compact_job_journal(const std::string& path,
                                               std::string_view label) {
  const job_journal_state state = load_job_journal(path);
  const std::vector<journaled_job> replay = state.unfinished();

  // Rewrite via tmp + rename: a crash at any point during compaction
  // leaves either the old journal or the complete new one, never a mix.
  // A tmp file that did not fully land never replaces the journal.
  const std::string tmp = path + ".compact";
  bool written = false;
  {
    supervise::journal_writer writer;
    writer.open(tmp, /*truncate=*/true);
    written = writer.append(job_journal_header_payload(label));
    for (const auto& job : replay) {
      written &= writer.append(accepted_payload(job.id, job.request));
    }
  }
  if (!written || std::rename(tmp.c_str(), path.c_str()) != 0) {
    (void)std::remove(tmp.c_str());
    throw io_error("job_journal: cannot replace " + path + " with " + tmp);
  }
  return replay;
}

}  // namespace vs::serve
