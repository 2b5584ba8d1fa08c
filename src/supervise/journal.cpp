#include "supervise/journal.h"

#include "core/error.h"

namespace vs::supervise {

namespace {

constexpr std::uint64_t kJournalVersion = 1;

}  // namespace

std::string header_payload(const journal_header& header) {
  fault::wire::field_writer w("H");
  w.num(kJournalVersion)
      .text(header.workload, "campaign")
      .num(static_cast<std::uint64_t>(header.cls))
      .num(static_cast<std::uint64_t>(header.injections))
      .num(header.seed)
      .num(header.total_ops)
      .num(header.step_budget)
      .num(header.golden_hash)
      .num(header.shard_size);
  return w.take();
}

std::optional<journal_header> parse_header(std::string_view payload) {
  fault::wire::field_reader in(payload, "H");
  const bool version_ok = in.num() == kJournalVersion;
  journal_header header;
  header.workload = std::string(in.text());
  header.cls = in.num<rt::reg_class>(rt::reg_class_count - 1);
  header.injections = in.num<int>();
  header.seed = in.num();
  header.total_ops = in.num();
  header.step_budget = in.num();
  header.golden_hash = in.num();
  header.shard_size = in.num<std::size_t>();
  if (!in.done() || !version_ok || header.shard_size == 0) {
    return std::nullopt;
  }
  return header;
}

std::string checkpoint_payload(std::size_t shard) {
  return fault::wire::field_writer("C").num(shard).take();
}

std::string quarantine_payload(std::size_t shard) {
  return fault::wire::field_writer("Q").num(shard).take();
}

std::optional<std::size_t> parse_shard_mark(std::string_view payload,
                                            char tag) {
  fault::wire::field_reader in(payload, std::string_view(&tag, 1));
  const auto shard = in.num<std::size_t>();
  if (!in.done()) return std::nullopt;
  return shard;
}

std::size_t scan_journal_lines(
    const std::string& path,
    const std::function<void(std::string_view)>& fn) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  fault::wire::line_reader lines;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    lines.feed(std::string_view(chunk, static_cast<std::size_t>(in.gcount())),
               fn);
  }
  lines.finish(fn);
  return lines.rejected();
}

journal_state load_journal(const std::string& path) {
  journal_state state;
  bool saw_header = false;
  // The lambda counts well-sealed-but-malformed lines; the scan's return
  // value adds the unreadable ones (torn writes, bit flips, garbage).
  state.skipped_lines += scan_journal_lines(path, [&](std::string_view
                                                          payload) {
    const char tag = payload.front();
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
