#include "supervise/journal.h"

#include <charconv>
#include <sstream>

#include "core/error.h"

namespace vs::supervise {

namespace {

constexpr int kJournalVersion = 1;

std::optional<std::uint64_t> parse_u64(std::string_view token) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || ptr != token.data() + token.size()) {
    return std::nullopt;
  }
  return value;
}

std::vector<std::string_view> split(std::string_view payload) {
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    while (pos < payload.size() && payload[pos] == ' ') ++pos;
    std::size_t end = pos;
    while (end < payload.size() && payload[end] != ' ') ++end;
    if (end > pos) tokens.push_back(payload.substr(pos, end - pos));
    pos = end;
  }
  return tokens;
}

}  // namespace

std::string header_payload(const journal_header& header) {
  std::string label = header.workload.empty() ? "campaign" : header.workload;
  for (char& c : label) {
    if (c == ' ' || c == '\n' || c == '\r' || c == '~') c = '_';
  }
  std::ostringstream out;
  out << "H " << kJournalVersion << ' ' << label << ' '
      << static_cast<int>(header.cls) << ' ' << header.injections << ' '
      << header.seed << ' ' << header.total_ops << ' ' << header.step_budget
      << ' ' << header.golden_hash << ' ' << header.shard_size;
  return out.str();
}

std::optional<journal_header> parse_header(std::string_view payload) {
  const auto tokens = split(payload);
  if (tokens.size() != 10 || tokens[0] != "H") return std::nullopt;
  const auto version = parse_u64(tokens[1]);
  if (!version || *version != static_cast<std::uint64_t>(kJournalVersion)) {
    return std::nullopt;
  }
  const auto cls = parse_u64(tokens[3]);
  const auto injections = parse_u64(tokens[4]);
  const auto seed = parse_u64(tokens[5]);
  const auto total_ops = parse_u64(tokens[6]);
  const auto step_budget = parse_u64(tokens[7]);
  const auto golden_hash = parse_u64(tokens[8]);
  const auto shard_size = parse_u64(tokens[9]);
  if (!cls || *cls >= rt::reg_class_count || !injections ||
      *injections > 0x7FFFFFFFULL || !seed || !total_ops || !step_budget ||
      !golden_hash || !shard_size || *shard_size == 0) {
    return std::nullopt;
  }
  journal_header header;
  header.workload = std::string(tokens[2]);
  header.cls = static_cast<rt::reg_class>(*cls);
  header.injections = static_cast<int>(*injections);
  header.seed = *seed;
  header.total_ops = *total_ops;
  header.step_budget = *step_budget;
  header.golden_hash = *golden_hash;
  header.shard_size = static_cast<std::size_t>(*shard_size);
  return header;
}

std::string checkpoint_payload(std::size_t shard) {
  return "C " + std::to_string(shard);
}

std::string quarantine_payload(std::size_t shard) {
  return "Q " + std::to_string(shard);
}

std::optional<std::size_t> parse_shard_mark(std::string_view payload,
                                            char tag) {
  const auto tokens = split(payload);
  if (tokens.size() != 2 || tokens[0].size() != 1 || tokens[0][0] != tag) {
    return std::nullopt;
  }
  const auto shard = parse_u64(tokens[1]);
  if (!shard) return std::nullopt;
  return static_cast<std::size_t>(*shard);
}

std::size_t scan_journal_lines(
    const std::string& path,
    const std::function<void(std::string_view)>& fn) {
  std::ifstream in(path);
  if (!in) return 0;
  std::size_t skipped = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto payload = fault::wire::unseal(line);
    if (!payload || payload->empty()) {
      ++skipped;
      continue;
    }
    fn(*payload);
  }
  return skipped;
}

journal_state load_journal(const std::string& path) {
  journal_state state;
  bool saw_header = false;
  // The lambda counts well-sealed-but-malformed lines; the scan's return
  // value adds the unreadable ones (torn writes, bit flips, garbage).
  state.skipped_lines += scan_journal_lines(path, [&](std::string_view
                                                          payload_view) {
    const std::string payload(payload_view);
    const char tag = payload[0];
    if (tag == 'H') {
      const auto header = parse_header(payload);
      // Only the first header counts; anything else is journal damage.
      if (header && !saw_header) {
        state.header = *header;
        saw_header = true;
      } else {
        ++state.skipped_lines;
      }
    } else if (tag == 'R') {
      const auto parsed = fault::wire::parse_record(payload);
      if (parsed) {
        state.records[parsed->index] = parsed->record;
      } else {
        ++state.skipped_lines;
      }
    } else if (tag == 'C') {
      const auto shard = parse_shard_mark(payload, 'C');
      if (shard) {
        state.completed_shards.insert(*shard);
      } else {
        ++state.skipped_lines;
      }
    } else if (tag == 'Q') {
      const auto shard = parse_shard_mark(payload, 'Q');
      if (shard) {
        state.quarantined_shards.insert(*shard);
      } else {
        ++state.skipped_lines;
      }
    } else {
      ++state.skipped_lines;
    }
  });
  // Records journaled before the header (impossible in a healthy journal)
  // would have no identity to validate against; drop them.
  if (!state.header) {
    state.skipped_lines += state.records.size() +
                           state.completed_shards.size() +
                           state.quarantined_shards.size();
    state.records.clear();
    state.completed_shards.clear();
    state.quarantined_shards.clear();
  }
  return state;
}

void journal_writer::open(const std::string& path, bool truncate) {
  out_.open(path, truncate ? std::ios::out | std::ios::trunc
                           : std::ios::out | std::ios::app);
  if (!out_) throw io_error("journal: cannot open " + path);
}

bool journal_writer::append(std::string_view payload) {
  if (!out_.is_open()) return true;
  out_ << fault::wire::seal(payload) << '\n';
  // Flush per line: a killed supervisor loses at most the torn tail line,
  // which load_journal skips.
  out_.flush();
  return static_cast<bool>(out_);
}

}  // namespace vs::supervise
