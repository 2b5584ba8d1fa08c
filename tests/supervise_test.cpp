// src/supervise/ — the process-isolated campaign supervisor.
//
// The workload here is WP (warp a small image): cheap enough to run dozens
// of shard attempts per test, instrumented like every other kernel.  Poison
// fixtures make the workload misbehave *only while a fault plan is armed*
// (never during the golden run), keyed off the planned target index so
// which experiments die is deterministic — real SIGSEGV deaths, real
// worker hangs, exercised against real fork/waitpid containment.
#include <gtest/gtest.h>
#include <unistd.h>

#include <csignal>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "app/pipeline.h"
#include "app/wp.h"
#include "fault/campaign.h"
#include "fault/wire.h"
#include "rt/instrument.h"
#include "supervise/fork_runner.h"
#include "supervise/journal.h"
#include "supervise/supervisor.h"
#include "video/generator.h"

namespace vs {
namespace {

img::image_u8 wp_source() {
  img::image_u8 src(28, 20);
  for (int y = 0; y < src.height(); ++y) {
    for (int x = 0; x < src.width(); ++x) {
      src.at(x, y) = static_cast<std::uint8_t>((x * 7 + y * 13) & 0xFF);
    }
  }
  return src;
}

fault::workload wp_workload() {
  return [] { return app::run_wp(wp_source(), app::wp_default_transform()); };
}

fault::campaign_config small_campaign(int injections = 40) {
  fault::campaign_config campaign;
  campaign.injections = injections;
  campaign.seed = 7;
  campaign.threads = 1;
  return campaign;
}

// Serializes a whole campaign's record stream; equal strings mean equal
// campaigns, field for field, in experiment order.
std::string records_key(const std::vector<fault::injection_record>& records) {
  std::string out;
  for (std::size_t i = 0; i < records.size(); ++i) {
    out += fault::wire::record_payload(i, records[i]);
    out += '\n';
  }
  return out;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

core::backoff_policy fast_backoff() {
  core::backoff_policy p;
  p.base_delay_ms = 1.0;
  p.max_delay_ms = 4.0;
  return p;
}

TEST(Wire, RecordRoundTripAndTamperRejection) {
  fault::injection_record r;
  r.plan.cls = rt::reg_class::fpr;
  r.plan.target = 123456789ULL;
  r.plan.bit = 61;
  r.plan.reg_id = 17;
  r.plan.scoped = true;
  r.plan.scope = rt::fn::warp;
  r.plan.scope_b = rt::fn::remap;
  r.register_live = true;
  r.fired = true;
  r.result = fault::outcome::detected_degraded;
  r.fired_scope = rt::fn::remap;
  r.fired_kind = rt::op::fp_alu;
  r.detections = 3;
  r.replica_divergences = 5;
  r.retries = 2;
  r.frames_degraded = 1;

  const std::string payload = fault::wire::record_payload(42, r);
  const std::string line = fault::wire::seal(payload);
  const auto unsealed = fault::wire::unseal(line + "\n");
  ASSERT_TRUE(unsealed.has_value());
  const auto parsed = fault::wire::parse_record(*unsealed);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->index, 42u);
  EXPECT_EQ(fault::wire::record_payload(42, parsed->record), payload);

  // One corrupted byte anywhere in the line must reject it as a unit.
  std::string tampered = line;
  tampered[4] = tampered[4] == '0' ? '1' : '0';
  EXPECT_FALSE(fault::wire::unseal(tampered).has_value());
  // A truncated line (torn write) fails the seal.
  EXPECT_FALSE(
      fault::wire::unseal(line.substr(0, line.size() - 3)).has_value());
  // A sealed but field-damaged payload fails the parse.
  EXPECT_FALSE(fault::wire::parse_record("R 1 9 0 0 0 0 0 0 0 0 0 0 0 0 0 0")
                   .has_value());
  // A row one field short — the 17-token shape journals had before the
  // replica_divergences column — is rejected now, so a pre-upgrade journal
  // recomputes those experiments on resume.
  const std::size_t replica_at = payload.rfind(" 5 2 1");
  ASSERT_NE(replica_at, std::string::npos);
  std::string short_row = payload;
  short_row.erase(replica_at, 2);
  EXPECT_EQ(short_row, "R 42 1 123456789 61 17 1 7 8 1 1 6 8 3 3 2 1");
  EXPECT_FALSE(fault::wire::parse_record(short_row).has_value());
  EXPECT_FALSE(fault::wire::parse_record(payload + " 0").has_value());
}

TEST(Wire, DetectedReplicaOutcomeRoundTrips) {
  // A Detected(replica) record — dual execution caught the fault and the
  // retry recovered — must survive the journal byte-for-byte.
  fault::injection_record r;
  r.plan.cls = rt::reg_class::gpr;
  r.plan.target = 1024;
  r.plan.bit = 7;
  r.register_live = true;
  r.fired = true;
  r.result = fault::outcome::detected_recovered;
  r.fired_scope = rt::fn::fast_detect;
  r.fired_kind = rt::op::int_alu;
  r.detections = 1;
  r.replica_divergences = 1;
  r.retries = 1;

  const std::string payload = fault::wire::record_payload(9, r);
  const auto parsed = fault::wire::parse_record(payload);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->record.replica_divergences, 1u);
  EXPECT_EQ(parsed->record.result, fault::outcome::detected_recovered);
  EXPECT_EQ(fault::wire::record_payload(9, parsed->record), payload);
}

TEST(Supervisor, ShardedMatchesReferenceAtAnyJobCount) {
  const auto work = wp_workload();
  const auto campaign = small_campaign();
  const auto reference = fault::run_campaign(work, campaign);
  const std::string ref_key = records_key(reference.records);

  supervise::supervisor_config config;
  config.jobs = 2;
  config.shard_size = 7;  // deliberately not a divisor of 40
  const auto sharded = supervise::run_sharded_campaign(work, campaign, config);
  EXPECT_EQ(records_key(sharded.campaign.records), ref_key);
  EXPECT_EQ(sharded.campaign.rates.to_string(), reference.rates.to_string());
  EXPECT_EQ(sharded.stats.quarantined.size(), 0u);
  EXPECT_EQ(sharded.stats.worker_crashes, 0u);
}

TEST(Supervisor, JournalRoundTripAndFullResume) {
  const auto work = wp_workload();
  const auto campaign = small_campaign(24);
  const std::string path = temp_path("supervise_roundtrip.journal");
  std::remove(path.c_str());

  supervise::supervisor_config config;
  config.jobs = 2;
  config.shard_size = 5;
  config.journal_path = path;
  const auto first = supervise::run_sharded_campaign(work, campaign, config);
  ASSERT_EQ(first.campaign.records.size(), 24u);

  // Resuming a finished journal recomputes nothing.
  config.resume = true;
  const auto resumed = supervise::run_sharded_campaign(work, campaign, config);
  EXPECT_EQ(records_key(resumed.campaign.records),
            records_key(first.campaign.records));
  EXPECT_EQ(resumed.stats.records_recovered, 24u);
  EXPECT_EQ(resumed.stats.shards_resumed, resumed.stats.shards_total);
  EXPECT_EQ(resumed.stats.retries, 0u);
  std::remove(path.c_str());
}

TEST(Supervisor, RecoversFromTruncatedAndGarbledJournalTail) {
  const auto work = wp_workload();
  const auto campaign = small_campaign(24);
  const std::string path = temp_path("supervise_truncated.journal");
  std::remove(path.c_str());

  supervise::supervisor_config config;
  config.jobs = 1;
  config.shard_size = 6;
  config.journal_path = path;
  const auto first = supervise::run_sharded_campaign(work, campaign, config);

  // Simulate a SIGKILL mid-write plus later garbage: chop the tail line in
  // half, then append a line that never had a valid seal.
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  in.close();
  std::string content = buffer.str();
  // Cut mid-way through the last record line, losing it and every line after
  // it (trailing checkpoints included).
  const std::size_t last_record = content.rfind("\nR ");
  ASSERT_NE(last_record, std::string::npos);
  content.resize(last_record + 10);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content << "\nnot a sealed line at all\n";
  }

  const auto state = supervise::load_journal(path);
  ASSERT_TRUE(state.header.has_value());
  EXPECT_GE(state.skipped_lines, 2u);  // the torn line + the garbage line
  EXPECT_LT(state.records.size(), 24u);

  // Resume: the lost tail is recomputed; the result is bit-identical.
  config.resume = true;
  const auto resumed = supervise::run_sharded_campaign(work, campaign, config);
  EXPECT_EQ(records_key(resumed.campaign.records),
            records_key(first.campaign.records));
  EXPECT_EQ(resumed.campaign.records.size(), 24u);
  std::remove(path.c_str());
}

TEST(Supervisor, PreUpgradeRecordRowsAreRecomputedOnResume) {
  // A journal written before the replica_divergences column: every R row
  // has 17 tokens, and every shard still has its C checkpoint.  The rows no
  // longer parse, so resume must recompute every experiment — a checkpoint
  // whose records are gone must not count the shard as done.
  const auto work = wp_workload();
  const auto campaign = small_campaign(24);
  const auto reference = fault::run_campaign(work, campaign);
  const std::string path = temp_path("supervise_pre_upgrade.journal");
  std::remove(path.c_str());

  supervise::supervisor_config config;
  config.jobs = 1;
  config.shard_size = 5;
  config.journal_path = path;
  (void)supervise::run_sharded_campaign(work, campaign, config);

  std::ifstream in(path, std::ios::binary);
  std::string rewritten;
  std::size_t old_rows = 0;
  std::size_t checkpoints = 0;
  for (std::string line; std::getline(in, line);) {
    const auto payload = fault::wire::unseal(line);
    ASSERT_TRUE(payload.has_value());
    std::string out = *payload;
    if (out.rfind("R ", 0) == 0) {
      // Drop token 15 (replica_divergences): R index cls target bit reg_id
      // scoped scope scope_b live fired outcome fired_scope fired_kind
      // detections [replica_divergences] retries frames_degraded.
      std::istringstream tokens(out);
      std::vector<std::string> fields;
      for (std::string t; tokens >> t;) fields.push_back(t);
      ASSERT_EQ(fields.size(), 18u);
      fields.erase(fields.begin() + 15);
      out = fields[0];
      for (std::size_t i = 1; i < fields.size(); ++i) out += ' ' + fields[i];
      ++old_rows;
    } else if (out.rfind("C ", 0) == 0) {
      ++checkpoints;
    }
    rewritten += fault::wire::seal(out) + '\n';
  }
  in.close();
  ASSERT_EQ(old_rows, 24u);
  ASSERT_EQ(checkpoints, 5u);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << rewritten;
  }
  const auto state = supervise::load_journal(path);
  EXPECT_EQ(state.records.size(), 0u);
  EXPECT_EQ(state.completed_shards.size(), 5u);
  EXPECT_EQ(state.skipped_lines, 24u);

  config.resume = true;
  const auto resumed = supervise::run_sharded_campaign(work, campaign, config);
  EXPECT_EQ(resumed.campaign.records.size(), 24u);
  EXPECT_EQ(records_key(resumed.campaign.records),
            records_key(reference.records));
  EXPECT_EQ(resumed.campaign.rates.to_string(), reference.rates.to_string());
  EXPECT_EQ(resumed.stats.shards_resumed, 0u);
  EXPECT_EQ(resumed.stats.records_recovered, 0u);
  std::remove(path.c_str());
}

TEST(Supervisor, JournalAppendReportsAFullDevice) {
  // /dev/full fails every write with ENOSPC: append must say the line did
  // not land, never acknowledge it.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  supervise::journal_writer writer;
  writer.open("/dev/full", /*truncate=*/false);
  EXPECT_FALSE(writer.append(supervise::checkpoint_payload(0)));
  EXPECT_FALSE(writer.append(supervise::checkpoint_payload(1)));
  EXPECT_TRUE(supervise::journal_writer{}.append("inactive is a no-op"));
}

TEST(Supervisor, RejectsJournalFromDifferentCampaign) {
  const auto work = wp_workload();
  auto campaign = small_campaign(12);
  const std::string path = temp_path("supervise_mismatch.journal");
  std::remove(path.c_str());

  supervise::supervisor_config config;
  config.journal_path = path;
  (void)supervise::run_sharded_campaign(work, campaign, config);

  campaign.seed = 8;  // a different campaign entirely
  config.resume = true;
  EXPECT_THROW(
      (void)supervise::run_sharded_campaign(work, campaign, config),
      vs::invalid_argument);
  std::remove(path.c_str());
}

TEST(Supervisor, RejectsPreRestrictedCampaign) {
  auto campaign = small_campaign(12);
  campaign.range_first = 4;
  campaign.range_count = 4;
  EXPECT_THROW((void)supervise::run_sharded_campaign(
                   wp_workload(), campaign, supervise::supervisor_config{}),
               vs::invalid_argument);
}

// Workload that dies of a *real* SIGSEGV — not a guarded crash_error — in a
// deterministic subset of experiments.  Only process isolation survives.
fault::workload segv_workload() {
  return [] {
    if (rt::tls.enabled && rt::tls.armed && rt::tls.target % 5 == 3) {
      // Restore the default action first: a sanitizer's SIGSEGV handler
      // would otherwise turn the raise into an abort, and the worker would
      // not die by the signal under test.
      std::signal(SIGSEGV, SIG_DFL);
      std::raise(SIGSEGV);
    }
    return app::run_wp(wp_source(), app::wp_default_transform());
  };
}

TEST(Supervisor, WorkerSignalDeathClassifiedAsCrashAndShardRetried) {
  const auto campaign = small_campaign();
  // The poison never fires in-process here: the reference uses the clean
  // workload, and the golden run is unarmed.
  const auto reference = fault::run_campaign(wp_workload(), campaign);

  std::size_t poisoned = 0;
  for (const auto& r : reference.records) {
    poisoned += r.register_live && r.plan.target % 5 == 3 ? 1u : 0u;
  }
  ASSERT_GE(poisoned, 1u) << "fixture needs at least one poisoned experiment";

  supervise::supervisor_config config;
  config.jobs = 2;
  config.shard_size = 7;
  config.backoff = fast_backoff();
  const auto sharded =
      supervise::run_sharded_campaign(segv_workload(), campaign, config);

  ASSERT_EQ(sharded.campaign.records.size(), reference.records.size());
  EXPECT_GE(sharded.stats.worker_crashes, poisoned);
  EXPECT_GE(sharded.stats.retries, 1u);
  EXPECT_EQ(sharded.stats.quarantined.size(), 0u);
  for (std::size_t i = 0; i < reference.records.size(); ++i) {
    const auto& ref = reference.records[i];
    const auto& got = sharded.campaign.records[i];
    if (ref.register_live && ref.plan.target % 5 == 3) {
      EXPECT_EQ(got.result, fault::outcome::crash_segfault) << "exp " << i;
      EXPECT_TRUE(got.fired) << "exp " << i;
    } else {
      EXPECT_EQ(fault::wire::record_payload(i, got),
                fault::wire::record_payload(i, ref))
          << "exp " << i;
    }
  }
}

// Workload that wedges (sleeps far past the watchdog) in a deterministic
// subset of experiments: the wall-clock analog of an infinite loop the
// step-budget watchdog cannot see.
fault::workload hang_workload() {
  return [] {
    if (rt::tls.enabled && rt::tls.armed && rt::tls.target % 7 == 1) {
      std::this_thread::sleep_for(std::chrono::seconds(5));
    }
    return app::run_wp(wp_source(), app::wp_default_transform());
  };
}

TEST(Supervisor, WatchdogKillsWedgedWorkerAndClassifiesHang) {
  const auto campaign = small_campaign(30);
  const auto reference = fault::run_campaign(wp_workload(), campaign);
  std::size_t poisoned = 0;
  for (const auto& r : reference.records) {
    poisoned += r.register_live && r.plan.target % 7 == 1 ? 1u : 0u;
  }
  ASSERT_GE(poisoned, 1u) << "fixture needs at least one wedged experiment";

  supervise::supervisor_config config;
  config.jobs = 2;
  config.shard_size = 6;
  config.shard_timeout_s = 0.4;
  config.backoff = fast_backoff();
  const auto sharded =
      supervise::run_sharded_campaign(hang_workload(), campaign, config);

  ASSERT_EQ(sharded.campaign.records.size(), reference.records.size());
  EXPECT_GE(sharded.stats.worker_timeouts, poisoned);
  EXPECT_EQ(sharded.stats.quarantined.size(), 0u);
  for (std::size_t i = 0; i < reference.records.size(); ++i) {
    const auto& ref = reference.records[i];
    const auto& got = sharded.campaign.records[i];
    if (ref.register_live && ref.plan.target % 7 == 1) {
      EXPECT_EQ(got.result, fault::outcome::hang) << "exp " << i;
    } else {
      EXPECT_EQ(fault::wire::record_payload(i, got),
                fault::wire::record_payload(i, ref))
          << "exp " << i;
    }
  }
}

// Workload that fails *every* armed run with an ordinary exception: no
// forward progress is possible on live experiments, so retry must give up
// and quarantine instead of spinning forever.
fault::workload poison_workload() {
  return []() -> img::image_u8 {
    if (rt::tls.enabled && rt::tls.armed) {
      throw std::logic_error("poisoned workload");
    }
    return app::run_wp(wp_source(), app::wp_default_transform());
  };
}

TEST(Supervisor, QuarantinesShardAfterPersistentFailures) {
  const auto campaign = small_campaign(12);
  supervise::supervisor_config config;
  config.jobs = 1;
  config.shard_size = 12;
  config.max_failures = 2;
  config.backoff = fast_backoff();
  const auto sharded =
      supervise::run_sharded_campaign(poison_workload(), campaign, config);
  // Dead-register experiments classify as masked without executing the
  // workload, so they complete even under total poisoning; the campaign
  // still terminates, with the unfinishable shard abandoned.
  ASSERT_EQ(sharded.stats.quarantined.size(), 1u);
  EXPECT_LT(sharded.campaign.records.size(), 12u);
  EXPECT_EQ(sharded.campaign.rates.experiments,
            sharded.campaign.records.size());
  EXPECT_GE(sharded.stats.retries, 1u);
}

// --- the fork boundary itself (supervise/fork_runner.h) ---

using supervise::fork_ending;
using supervise::run_forked;
using supervise::watchdog;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(ForkRunner, IdleWatchdogIsRearmedByOutputAndFiresOnSilence) {
  // Ten bytes 80 ms apart outlast a 300 ms idle timeout several times
  // over; then the child goes quiet and takes the SIGKILL.
  std::string bytes;
  const auto t0 = std::chrono::steady_clock::now();
  const fork_ending ending = run_forked(
      [](int fd) {
        for (int i = 0; i < 10; ++i) {
          supervise::child_write(fd, "x", 1);
          ::usleep(80 * 1000);
        }
        ::sleep(30);
        _exit(0);
      },
      0.3,
      [&](const char* data, std::size_t size) { bytes.append(data, size); },
      watchdog::idle);
  const double elapsed = seconds_since(t0);
  EXPECT_EQ(ending.how, fork_ending::kind::timeout);
  EXPECT_EQ(bytes, std::string(10, 'x'));
  EXPECT_GE(elapsed, 0.9);
  EXPECT_LT(elapsed, 10.0);
}

TEST(ForkRunner, DeadlineFiresWhileTheChildKeepsWriting) {
  std::size_t received = 0;
  const auto t0 = std::chrono::steady_clock::now();
  const fork_ending ending = run_forked(
      [](int fd) {
        for (;;) {
          supervise::child_write(fd, "y", 1);
          ::usleep(5 * 1000);
        }
      },
      0.3, [&](const char*, std::size_t size) { received += size; },
      watchdog::deadline);
  EXPECT_EQ(ending.how, fork_ending::kind::timeout);
  EXPECT_GT(received, 0u);
  EXPECT_LT(seconds_since(t0), 10.0);
}

TEST(ForkRunner, AttemptEndsOnExitWhileADescendantHoldsThePipe) {
  // The child forks a grandchild that keeps the pipe's write end open for
  // 30 s, reports both pids, and exits: the attempt must end with the
  // child, and the pid handed to on_start must be the child's.
  std::string bytes;
  pid_t started = -1;
  const auto t0 = std::chrono::steady_clock::now();
  const fork_ending ending = run_forked(
      [](int fd) {
        const pid_t grandchild = ::fork();
        if (grandchild == 0) {
          ::sleep(30);
          _exit(0);
        }
        const std::string pids = std::to_string(::getpid()) + " " +
                                 std::to_string(grandchild);
        supervise::child_write(fd, pids.data(), pids.size());
        _exit(0);
      },
      60.0,
      [&](const char* data, std::size_t size) { bytes.append(data, size); },
      watchdog::deadline, [&](pid_t pid) { started = pid; });
  const double elapsed = seconds_since(t0);
  std::istringstream in(bytes);
  pid_t child = -1;
  pid_t grandchild = -1;
  in >> child >> grandchild;
  if (grandchild > 0) ::kill(grandchild, SIGKILL);
  EXPECT_EQ(ending.how, fork_ending::kind::clean);
  EXPECT_EQ(started, child);
  EXPECT_GT(grandchild, 0);
  EXPECT_LT(elapsed, 10.0) << "the attempt waited for the descendant";
}

TEST(ForkRunner, NestedRunForkedFromAForkedBodyCompletes) {
  // A forked body that forks workers of its own, as a supervised server
  // generation does for isolated jobs.
  std::string bytes;
  const fork_ending ending = run_forked(
      [](int fd) {
        std::string inner;
        const fork_ending nested = run_forked(
            [](int inner_fd) {
              supervise::child_write(inner_fd, "inner", 5);
              _exit(0);
            },
            10.0,
            [&](const char* data, std::size_t size) {
              inner.append(data, size);
            });
        if (nested.how == fork_ending::kind::clean) inner += " clean";
        supervise::child_write(fd, inner.data(), inner.size());
        _exit(0);
      },
      20.0,
      [&](const char* data, std::size_t size) { bytes.append(data, size); });
  EXPECT_EQ(ending.how, fork_ending::kind::clean);
  EXPECT_EQ(bytes, "inner clean");
}

/// True once `pid` has exited: gone, or a zombie not yet reaped.
bool process_ended(pid_t pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(stat, line)) return true;
  const std::size_t state = line.rfind(')') + 2;  // "pid (comm) S ..."
  return state >= line.size() || line[state] == 'Z' || line[state] == 'X';
}

TEST(ForkRunner, WorkerDiesWithTheProcessThatForkedIt) {
  // A server generation SIGKILLed mid-job must not leave its job worker
  // running: nobody reads the worker's result any more, and it would hold
  // the pipes and client sockets it inherited open.
  std::string bytes;
  const fork_ending ending = run_forked(
      [](int fd) {
        (void)run_forked(
            [](int) {
              ::pause();
              _exit(0);
            },
            0.0, {}, watchdog::deadline,
            [fd](pid_t worker) {
              const std::string pid = std::to_string(worker);
              supervise::child_write(fd, pid.data(), pid.size());
              ::kill(::getpid(), SIGKILL);
            });
        _exit(0);
      },
      20.0,
      [&](const char* data, std::size_t size) { bytes.append(data, size); });
  EXPECT_EQ(ending.how, fork_ending::kind::signal);
  pid_t worker = -1;
  std::istringstream(bytes) >> worker;
  ASSERT_GT(worker, 0);
  const auto t0 = std::chrono::steady_clock::now();
  while (!process_ended(worker) && seconds_since(t0) < 5.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const bool ended = process_ended(worker);
  if (!ended) ::kill(worker, SIGKILL);
  EXPECT_TRUE(ended) << "the orphaned worker outlived its parent";
}

TEST(ForkRunner, EndingsMapToThePapersOutcomes) {
  const auto outcome = [](fork_ending::kind how, int sig = 0) {
    fork_ending e;
    e.how = how;
    e.sig = sig;
    return e.outcome();
  };
  EXPECT_EQ(outcome(fork_ending::kind::timeout), fault::outcome::hang);
  EXPECT_EQ(outcome(fork_ending::kind::signal, SIGSEGV),
            fault::outcome::crash_segfault);
  EXPECT_EQ(outcome(fork_ending::kind::signal, SIGKILL),
            fault::outcome::crash_segfault);
  EXPECT_EQ(outcome(fork_ending::kind::signal, SIGABRT),
            fault::outcome::crash_abort);
  EXPECT_EQ(outcome(fork_ending::kind::signal, SIGFPE),
            fault::outcome::crash_abort);
  EXPECT_EQ(outcome(fork_ending::kind::failure), fault::outcome::crash_abort);
}

}  // namespace
}  // namespace vs
