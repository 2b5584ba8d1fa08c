// Process-isolated campaign supervisor: OS-level fault domains above the
// in-process exception model.
//
// The AFI driver (fault/campaign.h) contains injected faults with the
// crash_error/hang_error exception taxonomy — which works exactly as long as
// every corruption is caught by a guarded accessor before it damages state
// the orchestrator itself depends on.  A flip that escapes that model (or a
// genuine wild store in a future kernel) takes the whole campaign down, and
// worse, can silently poison every later experiment in the same address
// space.  HAFT solves this with hardware-transaction fault domains; the
// portable equivalent used here is the oldest one: fork.
//
// The supervisor shards campaign experiment ranges across forked workers.
// Each worker owns its address space, streams results over a pipe as
// checksummed wire lines, and is watched by a wall-clock watchdog
// (supervise/fork_runner.h) (real hang detection, complementing the deterministic
// step-budget watchdog inside the instrumented lane).  A worker death by
// signal is classified into the campaign's Crash outcome from its
// exit status — SIGSEGV and friends map to Crash even when the in-process
// exception model never saw them; a watchdog kill maps to Hang.  Completed
// work is journaled (supervise/journal.h) with a checkpoint after every
// shard, so an interrupted campaign resumes where it stopped; transient
// worker deaths retry with capped exponential backoff + deterministic
// jitter (core/retry.h), and a shard that keeps failing without forward
// progress is quarantined instead of wedging the run.
//
// Determinism contract: experiment plans are a pure function of
// (campaign.seed, index) and workers merge in experiment order, so the
// aggregated outcome distribution is bit-identical to the single-process
// reference at any job count — enforced by ci/check_campaign_gate.sh.
#pragma once

#include <string>
#include <vector>

#include "core/retry.h"
#include "fault/campaign.h"

namespace vs::supervise {

struct supervisor_config {
  int jobs = 1;        ///< concurrent forked worker processes
  std::size_t shard_size = 0;   ///< experiments per shard; 0 = auto
  double shard_timeout_s = 0.0; ///< wall-clock watchdog per attempt; 0 = off
  int max_failures = 3;  ///< consecutive no-progress failures -> quarantine
  core::backoff_policy backoff;  ///< retry delays between failed attempts
  std::string journal_path;      ///< empty = keep state in memory only
  bool resume = false;   ///< reuse a matching journal instead of truncating
  std::string workload_label = "campaign";  ///< journal identity label
};

struct shard_stats {
  std::size_t shards_total = 0;
  std::size_t shards_resumed = 0;    ///< satisfied entirely from the journal
  std::size_t records_recovered = 0; ///< journal records reused on resume
  std::size_t worker_crashes = 0;    ///< worker attempts ended by a signal
  std::size_t worker_timeouts = 0;   ///< watchdog kills
  std::size_t retries = 0;           ///< shard attempts after the first
  std::vector<std::size_t> quarantined;  ///< shards abandoned after
                                         ///< max_failures
};

struct sharded_result {
  fault::campaign_result campaign;  ///< merged in experiment order;
                                    ///< sdc_outputs stays empty (images are
                                    ///< not shipped across worker pipes)
  shard_stats stats;
};

/// Runs `campaign` sharded under the supervisor.  The golden run happens
/// once in the supervisor; forked workers inherit it.  Throws
/// invalid_argument when the campaign is already range-restricted (the
/// supervisor owns the sharding) or when resuming against a journal whose
/// identity doesn't match.
[[nodiscard]] sharded_result run_sharded_campaign(
    const fault::workload& work, const fault::campaign_config& campaign,
    const supervisor_config& config);

}  // namespace vs::supervise
