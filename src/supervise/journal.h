// Append-only campaign journal: the supervisor's crash-consistent state.
//
// Every line is a sealed wire payload (fault/wire.h).  Line kinds:
//
//   H <v> <workload> <cls> <injections> <seed> <total_ops> <step_budget>
//       <golden_hash> <shard_size>                      campaign identity
//   R <index> <record fields...>                        one experiment done
//   C <shard>                                           shard checkpoint
//   Q <shard>                                           shard quarantined
//
// The writer flushes after every line, so a SIGKILL of the supervisor loses
// at most the line being written — and the loader skips any line whose seal
// or fields don't validate, so a truncated/garbled tail costs only the
// experiments of the shard it belonged to (they are simply recomputed on
// resume).  Replayed from the top, the journal reconstructs exactly which
// experiments are done; merged in experiment order they are bit-identical
// to an uninterrupted run.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>

#include "fault/campaign.h"
#include "fault/wire.h"

namespace vs::supervise {

/// Line-wise scan of any sealed-line journal: invokes `fn` with the
/// unsealed payload of every line whose checksum validates, skipping (and
/// counting) torn, bit-flipped, or garbage lines.  A missing file scans as
/// empty.  This is the torn-tail-tolerant replay primitive shared by the
/// campaign journal below and the serve admission journal
/// (serve/job_journal.h) — both formats are "sealed payloads, one per
/// line, flushed per line", so a SIGKILL at any byte offset costs at most
/// the line being written.
std::size_t scan_journal_lines(
    const std::string& path,
    const std::function<void(std::string_view payload)>& fn);

/// Campaign identity stamped at the top of a journal.  Resume refuses a
/// journal whose identity doesn't match the campaign being run (a record
/// stream from a different workload, seed, or golden output would merge
/// nonsense); shard_size is adopted from the journal instead, so checkpoint
/// lines keep meaning the same experiment ranges.
struct journal_header {
  std::string workload = "campaign";  ///< label; spaces become '_'
  rt::reg_class cls = rt::reg_class::gpr;
  int injections = 0;
  std::uint64_t seed = 0;
  std::uint64_t total_ops = 0;
  std::uint64_t step_budget = 0;
  std::uint64_t golden_hash = 0;
  std::size_t shard_size = 1;

  /// Identity match, ignoring shard_size (which resume adopts).
  [[nodiscard]] bool compatible(const journal_header& other) const noexcept {
    return workload == other.workload && cls == other.cls &&
           injections == other.injections && seed == other.seed &&
           total_ops == other.total_ops &&
           step_budget == other.step_budget &&
           golden_hash == other.golden_hash;
  }
};

[[nodiscard]] std::string header_payload(const journal_header& header);
[[nodiscard]] std::optional<journal_header> parse_header(
    std::string_view payload);

[[nodiscard]] std::string checkpoint_payload(std::size_t shard);
[[nodiscard]] std::string quarantine_payload(std::size_t shard);
/// Parses "C <shard>" / "Q <shard>" payloads (tag must match).
[[nodiscard]] std::optional<std::size_t> parse_shard_mark(
    std::string_view payload, char tag);

/// Everything a journal reconstructs.
struct journal_state {
  std::optional<journal_header> header;
  std::map<std::size_t, fault::injection_record> records;
  std::set<std::size_t> completed_shards;
  std::set<std::size_t> quarantined_shards;
  std::size_t skipped_lines = 0;  ///< unreadable lines (torn writes, garbage)
};

/// Loads a journal; a missing file yields an empty state.  Never throws on
/// malformed content — bad lines are counted in skipped_lines and ignored.
[[nodiscard]] journal_state load_journal(const std::string& path);

/// Append-only writer; seals and flushes each payload as its own line.
class journal_writer {
 public:
  journal_writer() = default;  ///< inactive: append() is a no-op

  /// Opens `path` (truncating when `truncate`); throws io_error on failure.
  void open(const std::string& path, bool truncate);
  [[nodiscard]] bool active() const noexcept { return out_.is_open(); }
  /// Seals, writes and flushes one line.  Returns false when the line may
  /// not have reached the file (ENOSPC, EIO, ...); the writer then stays
  /// failed, because a torn line would garble whatever followed it.  An
  /// inactive writer returns true.
  [[nodiscard]] bool append(std::string_view payload);

 private:
  std::ofstream out_;
};

}  // namespace vs::supervise
