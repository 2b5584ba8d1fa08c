// Byte pins for the one text codec (fault/wire.h): one instance of every
// sealed line kind and every serve message payload, compared against the
// exact bytes the format has always produced.  Any drift in field order,
// separators, number formatting or token sanitizing fails here before it
// can strand a journal or a peer on the other side of the wire.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "fault/wire.h"
#include "serve/framing.h"
#include "serve/job_journal.h"
#include "serve/protocol.h"
#include "supervise/fork_runner.h"
#include "supervise/journal.h"

namespace vs {
namespace {

serve::job_request pinned_request() {
  serve::job_request r;
  r.input = video::input_id::input3;
  r.alg = app::algorithm::vs_kds;
  r.frames = 24;
  r.hardening = resil::hardening_level::cfcss;
  r.priority = serve::priority_class::interactive;
  r.deadline_ms = 1500;
  r.max_threads = 3;
  r.client_key = "key 7";
  r.fault.armed = true;
  r.fault.cls = rt::reg_class::fpr;
  r.fault.target = 987654321ULL;
  r.fault.bit = 61;
  r.fault.step_budget = 5555555ULL;
  return r;
}

img::image_u8 pinned_image() {
  img::image_u8 image(2, 1, 1);
  image.data()[0] = 7;
  image.data()[1] = 200;
  return image;
}

/// Decodes one encoder's frame and returns its payload, checking the type.
std::string payload_of(const std::string& frame_bytes, serve::msg_type type) {
  serve::frame_decoder decoder;
  decoder.feed(frame_bytes);
  const auto f = decoder.next();
  EXPECT_TRUE(f.has_value());
  if (!f) return {};
  EXPECT_EQ(f->type, static_cast<std::uint16_t>(type));
  EXPECT_EQ(decoder.pending_bytes(), 0u);
  return f->payload;
}

TEST(WireBytes, CampaignJournalLines) {
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
  EXPECT_EQ(fault::wire::seal(fault::wire::record_payload(42, r)),
            "R 42 1 123456789 61 17 1 7 8 1 1 6 8 3 3 5 2 1 ~0d658da4");

  supervise::journal_header h;
  h.workload = "VS gpr~x";
  h.cls = rt::reg_class::fpr;
  h.injections = 120;
  h.seed = 99;
  h.total_ops = 123456789012ULL;
  h.step_budget = 2469135780ULL;
  h.golden_hash = 18446744073709551615ULL;
  h.shard_size = 8;
  EXPECT_EQ(fault::wire::seal(supervise::header_payload(h)),
            "H 1 VS_gpr_x 1 120 99 123456789012 2469135780 "
            "18446744073709551615 8 ~a3c6374a");
  h.workload.clear();
  EXPECT_EQ(supervise::header_payload(h),
            "H 1 campaign 1 120 99 123456789012 2469135780 "
            "18446744073709551615 8");

  EXPECT_EQ(fault::wire::seal(supervise::checkpoint_payload(3)),
            "C 3 ~1e9ba2bf");
  EXPECT_EQ(fault::wire::seal(supervise::quarantine_payload(11)),
            "Q 11 ~6b714d4a");
}

TEST(WireBytes, JobJournalLines) {
  EXPECT_EQ(fault::wire::seal(serve::job_journal_header_payload("my serve")),
            "H 1 my_serve ~3cf828aa");
  EXPECT_EQ(serve::job_journal_header_payload(""), "H 1 serve");
  EXPECT_EQ(fault::wire::seal(serve::accepted_payload(5, pinned_request())),
            "A 5 2 2 24 2 0 1500 3 key_7 1 1 987654321 61 5555555 "
            "~2c0d4f7a");
  EXPECT_EQ(fault::wire::seal(serve::settled_payload(
                5, true, fault::outcome::masked, 0xabcdef0123ULL)),
            "D 5 1 0 737894400291 ~e19d6445");
  EXPECT_EQ(serve::settled_payload(6, false, fault::outcome::crash_abort, 0),
            "D 6 0 3 0");
  EXPECT_EQ(fault::wire::seal(serve::deferred_payload(serve::job_request{})),
            "G 0 0 20 0 1 0 0 - 0 0 0 0 0 ~1113a49c");
}

TEST(WireBytes, WorkerAndHeartbeatLines) {
  // A forked child's begin mark (the heartbeat pulse shares its shape) and
  // its failure report, captured off the pipe exactly as the parent sees
  // them.
  std::string bytes;
  const auto ending = supervise::run_forked(
      [](int fd) {
        supervise::child_begin(fd, 42);
        const std::runtime_error e("bad thing\nhappened");
        supervise::child_fail(fd, &e);
      },
      10.0,
      [&](const char* data, std::size_t size) { bytes.append(data, size); });
  EXPECT_EQ(ending.how, supervise::fork_ending::kind::failure);
  EXPECT_EQ(bytes, "B 42 ~17345759\nE bad_thing_happened ~5100a460\n");
}

TEST(WireBytes, ServeMessages) {
  using serve::msg_type;
  EXPECT_EQ(payload_of(serve::encode_submit(pinned_request()),
                       msg_type::submit),
            "J 2 2 24 2 0 1500 3 key_7 1 1 987654321 61 5555555");
  EXPECT_EQ(payload_of(serve::encode_submit(serve::job_request{}),
                       msg_type::submit),
            "J 0 0 20 0 1 0 0 - 0 0 0 0 0");
  EXPECT_EQ(payload_of(serve::encode_accepted({77, 4}), msg_type::accepted),
            "A 77 4");
  serve::job_rejected rejected;
  rejected.reason = serve::reject_reason::draining;
  rejected.retry_after_ms = 250;
  rejected.queue_depth = 16;
  EXPECT_EQ(payload_of(serve::encode_rejected(rejected), msg_type::rejected),
            "R 1 250 16");
  EXPECT_EQ(payload_of(serve::encode_panorama(77, 2, pinned_image()),
                       msg_type::panorama),
            "P 77 2 2 1 1\n\x07\xC8");

  serve::job_complete done;
  done.job_id = 77;
  done.stats.frames_total = 24;
  done.stats.frames_dropped_rfd = 3;
  done.stats.frames_stitched = 19;
  done.stats.frames_discarded = 2;
  done.stats.homography_alignments = 15;
  done.stats.affine_alignments = 4;
  done.stats.mini_panoramas = 2;
  done.stats.keypoints_detected = 12345;
  done.stats.keypoints_matched_on = 6789;
  done.stats.total_matches = 4321;
  done.detections = 1;
  done.retries = 2;
  done.frames_degraded = 3;
  done.wall_us = 987654;
  done.panorama_hash = 0xfedcba9876543210ULL;
  done.montage = pinned_image();
  EXPECT_EQ(payload_of(serve::encode_complete(done), msg_type::complete),
            "C 77 24 3 19 2 15 4 2 12345 6789 4321 1 2 3 987654 "
            "18364758544493064720 2 1 1\n\x07\xC8");

  serve::job_failed failed;
  failed.job_id = 78;
  failed.failure = fault::outcome::hang;
  failed.message = "deadline expired\r\nwhile queued";
  EXPECT_EQ(payload_of(serve::encode_failed(failed), msg_type::failed),
            "F 78 4 deadline_expired__while_queued");
  failed.message.clear();
  EXPECT_EQ(payload_of(serve::encode_failed(failed), msg_type::failed),
            "F 78 4 _");

  EXPECT_EQ(payload_of(serve::encode_stats_request(),
                       msg_type::stats_request),
            "Q");

  serve::stats_reply s;
  s.queue_depth = 1;
  s.in_flight = 2;
  s.completed = 3;
  s.rejected = 4;
  s.failed = 5;
  s.draining = true;
  s.pool_budget = 6;
  s.pool_in_use = 7;
  s.pool_peak_in_use = 8;
  s.restarts = 9;
  s.journal_depth = 10;
  s.replayed = 11;
  s.latency.count = 12;
  s.latency.mean_ms = 1.5;
  s.latency.p50_ms = 2.0004;
  s.latency.p90_ms = 3.0006;
  s.latency.p95_ms = 4.25;
  s.latency.p99_ms = 5.125;
  s.latency.max_ms = 6789.0;
  EXPECT_EQ(payload_of(serve::encode_stats_reply(s), msg_type::stats_reply),
            "S 1 2 3 4 5 1 6 7 8 9 10 11 12 1500 2000 3001 4250 5125 6789000");
}

TEST(WireCodec, ReaderChecksTagRangeAndFieldCount) {
  using fault::wire::field_reader;
  {
    field_reader in("X 7  18446744073709551615 abc", "X");
    EXPECT_EQ(in.num<int>(7), 7);
    EXPECT_EQ(in.num(), 18446744073709551615ULL);
    EXPECT_EQ(in.text(3), "abc");
    EXPECT_TRUE(in.done());
  }
  {
    field_reader in("X 8", "X");
    (void)in.num(7);  // above the inclusive max
    EXPECT_FALSE(in.done());
  }
  for (const char* bad :
       {"X -1", "X +1", "X 1x", "X 0x1", "X 18446744073709551616"}) {
    field_reader in(bad, "X");
    (void)in.num();
    EXPECT_FALSE(in.done()) << bad;
  }
  {
    field_reader in("X 1 2", "X");
    (void)in.num();
    EXPECT_FALSE(in.done());  // a field left over
  }
  {
    field_reader in("X", "X");
    EXPECT_EQ(in.text(), "");  // a field missing
    EXPECT_FALSE(in.done());
  }
  {
    field_reader in("Y 1", "X");
    EXPECT_EQ(in.tag(), "Y");
    (void)in.num();
    EXPECT_FALSE(in.done());
  }
  {
    field_reader in("X toolong", "X");
    (void)in.text(6);
    EXPECT_FALSE(in.done());
  }
  EXPECT_FALSE(field_reader("").done());
  EXPECT_TRUE(field_reader("   X  ").done());
}

TEST(WireCodec, LineReaderYieldsSealedPayloadsAcrossChunks) {
  using fault::wire::seal;
  const std::string stream = seal("B 1") + "\n\n" + seal("R 2") +
                             "\ngarbage\n" + seal("") + "\n" +
                             seal("C 3") + "\r\n" + seal("Q 4");
  for (std::size_t chunk = 1; chunk <= stream.size(); ++chunk) {
    fault::wire::line_reader lines;
    std::vector<std::string> got;
    const auto keep = [&got](std::string_view p) { got.emplace_back(p); };
    for (std::size_t at = 0; at < stream.size(); at += chunk) {
      lines.feed(std::string_view(stream).substr(at, chunk), keep);
    }
    // The unterminated tail only counts once the input is known to end.
    EXPECT_EQ(got, (std::vector<std::string>{"B 1", "R 2", "C 3"}));
    lines.finish(keep);
    EXPECT_EQ(got, (std::vector<std::string>{"B 1", "R 2", "C 3", "Q 4"}));
    EXPECT_EQ(lines.rejected(), 2u);  // "garbage" and the sealed empty line
  }
}

TEST(WireBytes, TildeInKeyOrMessageBecomesUnderscore) {
  // '~' opens a seal, so the codec maps it like a separator in every free
  // text token: client keys and failure messages as in journal labels.
  serve::job_request request;
  request.client_key = "a~b";
  EXPECT_EQ(payload_of(serve::encode_submit(request), serve::msg_type::submit),
            "J 0 0 20 0 1 0 0 a_b 0 0 0 0 0");
  serve::job_failed failed;
  failed.job_id = 1;
  failed.message = "x ~y";
  EXPECT_EQ(payload_of(serve::encode_failed(failed), serve::msg_type::failed),
            "F 1 3 x__y");
}

}  // namespace
}  // namespace vs
