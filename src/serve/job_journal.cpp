#include "serve/job_journal.h"

#include <charconv>
#include <cstdio>

#include "core/error.h"
#include "supervise/journal.h"

namespace vs::serve {

namespace {

std::optional<std::uint64_t> parse_u64(std::string_view token) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || ptr != token.data() + token.size()) {
    return std::nullopt;
  }
  return value;
}

std::string sanitize_label(std::string_view label) {
  std::string out(label.empty() ? "serve" : label);
  for (char& c : out) {
    if (c == ' ' || c == '\n' || c == '\r' || c == '~') c = '_';
  }
  return out;
}

}  // namespace

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
  return "H " + std::to_string(kJobJournalVersion) + ' ' +
         sanitize_label(label);
}

std::string accepted_payload(std::uint64_t id, const job_request& request) {
  return "A " + std::to_string(id) + request_fields_payload(request);
}

std::string settled_payload(std::uint64_t id, bool completed,
                            fault::outcome failure,
                            std::uint64_t panorama_hash) {
  return "D " + std::to_string(id) + ' ' + (completed ? "1" : "0") + ' ' +
         std::to_string(static_cast<int>(failure)) + ' ' +
         std::to_string(panorama_hash);
}

std::string deferred_payload(const job_request& request) {
  // Appended, not `"G" + ...`: GCC 12 flags that form with a false
  // -Wrestrict once the compaction path inlines it.
  std::string out = "G";
  out += request_fields_payload(request);
  return out;
}

job_journal_state load_job_journal(const std::string& path) {
  job_journal_state state;
  state.skipped_lines +=
      supervise::scan_journal_lines(path, [&](std::string_view payload) {
        auto tokens = split_fields(payload);
        if (tokens.empty()) {
          ++state.skipped_lines;
          return;
        }
        const std::string_view tag = tokens[0];
        tokens.erase(tokens.begin());
        if (tag == "H") {
          // Only the first header counts; a duplicate is journal damage.
          const bool valid = tokens.size() == 2 &&
                             parse_u64(tokens[0]) ==
                                 std::optional<std::uint64_t>(
                                     kJobJournalVersion);
          if (valid && !state.saw_header) {
            state.saw_header = true;
          } else {
            ++state.skipped_lines;
          }
        } else if (tag == "A") {
          if (tokens.empty()) {
            ++state.skipped_lines;
            return;
          }
          const auto id = parse_u64(tokens[0]);
          tokens.erase(tokens.begin());
          const auto request = parse_request_fields(tokens);
          // A duplicated A line (same id) is a replayed write, not damage —
          // first admission wins, matching the server's dedupe rule.
          if (id && request && *id > 0) {
            state.accepted.emplace(*id, *request);
          } else {
            ++state.skipped_lines;
          }
        } else if (tag == "D") {
          const bool shape_ok =
              tokens.size() == 4 && parse_u64(tokens[1]).has_value() &&
              parse_u64(tokens[2]).has_value() &&
              parse_u64(tokens[3]).has_value();
          const auto id =
              shape_ok ? parse_u64(tokens[0]) : std::optional<std::uint64_t>{};
          if (shape_ok && id) {
            state.settled.insert(*id);  // duplicates are no-ops
          } else {
            ++state.skipped_lines;
          }
        } else if (tag == "G") {
          const auto request = parse_request_fields(tokens);
          if (request) {
            state.deferred.push_back(*request);
          } else {
            ++state.skipped_lines;
          }
        } else {
          ++state.skipped_lines;
        }
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
