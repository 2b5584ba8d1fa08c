// src/supervise/ — the process-isolated campaign supervisor.
//
// The workload here is WP (warp a small image): cheap enough to run dozens
// of shard attempts per test, instrumented like every other kernel.  Poison
// fixtures make the workload misbehave *only while a fault plan is armed*
// (never during the golden run), keyed off the planned target index so
// which experiments die is deterministic — real SIGSEGV deaths, real
// worker hangs, exercised against real fork/waitpid containment.
#include <gtest/gtest.h>

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

TEST(Wire, LegacyRecordWithoutReplicaFieldParses) {
  // Journals written before the replica_divergences column carry one token
  // less; they must parse with the field defaulting to zero so a resumed
  // campaign can read its own pre-upgrade checkpoint.
  fault::injection_record r;
  r.fired = true;
  r.result = fault::outcome::detected_degraded;
  r.detections = 2;
  r.replica_divergences = 4;
  r.retries = 1;
  r.frames_degraded = 1;
  std::string payload = fault::wire::record_payload(3, r);

  // Drop the replica_divergences token (16th field counting the "R" tag).
  std::vector<std::string> tokens;
  std::size_t begin = 0;
  while (begin <= payload.size()) {
    const std::size_t space = payload.find(' ', begin);
    tokens.push_back(payload.substr(
        begin, space == std::string::npos ? space : space - begin));
    begin = space == std::string::npos ? payload.size() + 1 : space + 1;
  }
  ASSERT_EQ(tokens.size(), 18u);
  EXPECT_EQ(tokens[15], "4");
  tokens.erase(tokens.begin() + 15);
  std::string legacy;
  for (const auto& token : tokens) {
    if (!legacy.empty()) legacy.push_back(' ');
    legacy += token;
  }

  const auto parsed = fault::wire::parse_record(legacy);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->record.replica_divergences, 0u);
  EXPECT_EQ(parsed->record.detections, 2u);
  EXPECT_EQ(parsed->record.retries, 1u);
  EXPECT_EQ(parsed->record.frames_degraded, 1u);
  EXPECT_EQ(parsed->record.result, fault::outcome::detected_degraded);
}

TEST(Supervisor, ShardedMatchesReferenceAtAnyJobCount) {
  const auto work = wp_workload();
  const auto campaign = small_campaign();
  const auto reference = fault::run_campaign(work, campaign);
  const std::string ref_key = records_key(reference.records);

  for (const bool isolate : {false, true}) {
    supervise::supervisor_config config;
    config.jobs = 2;
    config.isolate = isolate;
    config.shard_size = 7;  // deliberately not a divisor of 40
    const auto sharded = supervise::run_sharded_campaign(work, campaign, config);
    EXPECT_EQ(records_key(sharded.campaign.records), ref_key)
        << "isolate=" << isolate;
    EXPECT_EQ(sharded.campaign.rates.to_string(),
              reference.rates.to_string())
        << "isolate=" << isolate;
    EXPECT_EQ(sharded.stats.quarantined.size(), 0u);
    EXPECT_EQ(sharded.stats.worker_crashes, 0u);
  }
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
// deterministic subset of experiments.  Only processes isolation survives.
fault::workload segv_workload() {
  return [] {
    if (rt::tls.enabled && rt::tls.armed && rt::tls.target % 5 == 3) {
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
  config.isolate = true;
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
  config.isolate = true;
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
  for (const bool isolate : {false, true}) {
    const auto campaign = small_campaign(12);
    supervise::supervisor_config config;
    config.jobs = 1;
    config.isolate = isolate;
    config.shard_size = 12;
    config.max_failures = 2;
    config.backoff = fast_backoff();
    const auto sharded =
        supervise::run_sharded_campaign(poison_workload(), campaign, config);
    // Dead-register experiments classify as masked without executing the
    // workload, so they complete even under total poisoning; the campaign
    // still terminates, with the unfinishable shard abandoned.
    ASSERT_EQ(sharded.stats.quarantined.size(), 1u) << "isolate=" << isolate;
    EXPECT_LT(sharded.campaign.records.size(), 12u) << "isolate=" << isolate;
    EXPECT_EQ(sharded.campaign.rates.experiments,
              sharded.campaign.records.size());
    EXPECT_GE(sharded.stats.retries, 1u);
  }
}

}  // namespace
}  // namespace vs
