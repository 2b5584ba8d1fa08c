// Adversarial round-trip tests shared by the two wire decoders: the
// supervisor's checksummed line protocol (fault/wire.h) and the serving
// front end's length-prefixed binary framing (serve/framing.h).  Both sit
// on byte streams written by processes that die mid-write, so the contract
// under test is the same for each: random payloads survive a round trip,
// and truncation, bit flips, or outright garbage are skipped — never a
// crash, never a half-parsed record.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "fault/wire.h"
#include "serve/framing.h"
#include "serve/job_journal.h"
#include "serve/protocol.h"
#include "supervise/journal.h"

namespace vs {
namespace {

std::string random_bytes(std::mt19937_64& rng, std::size_t max_len) {
  std::uniform_int_distribution<std::size_t> len_dist(0, max_len);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  std::string out(len_dist(rng), '\0');
  for (char& c : out) c = static_cast<char>(byte_dist(rng));
  return out;
}

std::string random_line_text(std::mt19937_64& rng, std::size_t max_len) {
  // Line protocol payloads must stay newline-free (seal()'s contract).
  std::uniform_int_distribution<std::size_t> len_dist(0, max_len);
  std::uniform_int_distribution<int> byte_dist(32, 126);
  std::string out(len_dist(rng), '\0');
  for (char& c : out) c = static_cast<char>(byte_dist(rng));
  return out;
}

// --- fault/wire line protocol ---

TEST(WireFuzz, RandomPayloadsRoundTripThroughSeal) {
  std::mt19937_64 rng(3);
  for (int i = 0; i < 200; ++i) {
    const std::string payload = random_line_text(rng, 120);
    const auto back = fault::wire::unseal(fault::wire::seal(payload));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, payload);
  }
}

TEST(WireFuzz, TruncatedSealedLinesAreRejected) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 200; ++i) {
    const std::string sealed = fault::wire::seal(random_line_text(rng, 80));
    std::uniform_int_distribution<std::size_t> cut(0, sealed.size() - 1);
    const std::string torn = sealed.substr(0, cut(rng));
    const auto back = fault::wire::unseal(torn);
    if (back.has_value()) {
      // A cut can legally land after a shorter valid seal only if the
      // remaining text still checksums; rebuilding must agree.
      EXPECT_EQ(fault::wire::seal(*back), torn);
    }
  }
}

TEST(WireFuzz, FlippedChecksumByteRejectsTheLine) {
  const std::string sealed = fault::wire::seal("R 1 2 3");
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    std::string bent = sealed;
    bent[i] = static_cast<char>(bent[i] ^ 0x20);  // stays printable-ish
    const auto back = fault::wire::unseal(bent);
    if (back.has_value()) {
      // A single-byte flip can change the payload or the checksum, never
      // both consistently.  The only legal survivors are hex-case flips in
      // the checksum digits (unseal parses hex case-insensitively), which
      // leave the payload untouched.
      EXPECT_EQ(*back, "R 1 2 3");
      EXPECT_GE(i, sealed.rfind('~'));
    }
  }
}

TEST(WireFuzz, GarbageNeverParsesAsARecord) {
  std::mt19937_64 rng(11);
  for (int i = 0; i < 500; ++i) {
    // Must not crash; almost always nullopt, and any survivor must have
    // passed every range check.
    (void)fault::wire::parse_record(random_bytes(rng, 100));
  }
}

// --- serve framing ---

TEST(FrameFuzz, RandomPayloadsRoundTrip) {
  std::mt19937_64 rng(21);
  serve::frame_decoder decoder;
  for (int i = 0; i < 100; ++i) {
    const std::string payload = random_bytes(rng, 600);
    const std::uint16_t type = static_cast<std::uint16_t>(i % 9 + 1);
    decoder.feed(serve::encode_frame(type, payload));
    const auto frame = decoder.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, type);
    EXPECT_EQ(frame->payload, payload);
  }
  EXPECT_EQ(decoder.skipped_bytes(), 0u);
}

TEST(FrameFuzz, ArbitraryChunkBoundariesDontMatter) {
  std::mt19937_64 rng(22);
  std::string stream;
  std::vector<std::string> payloads;
  for (int i = 0; i < 40; ++i) {
    payloads.push_back(random_bytes(rng, 300));
    stream += serve::encode_frame(5, payloads.back());
  }
  serve::frame_decoder decoder;
  std::size_t decoded = 0;
  std::size_t pos = 0;
  std::uniform_int_distribution<std::size_t> chunk(1, 7);
  while (pos < stream.size()) {
    const std::size_t n = std::min(chunk(rng), stream.size() - pos);
    decoder.feed(stream.data() + pos, n);
    pos += n;
    while (const auto frame = decoder.next()) {
      ASSERT_LT(decoded, payloads.size());
      EXPECT_EQ(frame->payload, payloads[decoded]);
      ++decoded;
    }
  }
  EXPECT_EQ(decoded, payloads.size());
  EXPECT_EQ(decoder.skipped_bytes(), 0u);
}

TEST(FrameFuzz, TruncatedFrameIsSkippedAndStreamResyncs) {
  // A worker died mid-payload: the torn frame carries an intact header, so
  // the decoder knows the claimed length, reads that many bytes from what
  // follows, fails the checksum, and resyncs.  The survivor frame is made
  // longer than any claimed length so the checksum check always fires.
  // (A cut inside the header leaves a garbage length field the decoder can
  // only wait out — that path is covered by the length-cap test below.)
  std::mt19937_64 rng(23);
  for (int i = 0; i < 50; ++i) {
    std::string torn_payload = random_bytes(rng, 200);
    if (torn_payload.empty()) torn_payload = "x";
    const std::string torn_full = serve::encode_frame(2, torn_payload);
    std::uniform_int_distribution<std::size_t> cut(serve::kFrameHeaderSize,
                                                   torn_full.size() - 1);
    std::string survivor_payload = random_bytes(rng, 200);
    survivor_payload.resize(400, '\x5A');
    serve::frame_decoder decoder;
    decoder.feed(torn_full.substr(0, cut(rng)));
    decoder.feed(serve::encode_frame(6, survivor_payload));
    std::optional<serve::frame> got;
    while (const auto frame = decoder.next()) got = frame;
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->type, 6);
    EXPECT_EQ(got->payload, survivor_payload);
  }
}

TEST(FrameFuzz, FlippedBytesNeverYieldACorruptFrame) {
  std::mt19937_64 rng(24);
  for (int i = 0; i < 120; ++i) {
    const std::string payload = random_bytes(rng, 150);
    std::string bent = serve::encode_frame(3, payload);
    std::uniform_int_distribution<std::size_t> pick(0, bent.size() - 1);
    std::uniform_int_distribution<int> bit(0, 7);
    const std::size_t at = pick(rng);
    bent[at] = static_cast<char>(bent[at] ^ (1 << bit(rng)));

    const std::string clean_payload = random_bytes(rng, 150);
    serve::frame_decoder decoder;
    decoder.feed(bent);
    decoder.feed(serve::encode_frame(4, clean_payload));

    // However the flip lands, every frame that comes out is internally
    // consistent, and the clean frame always survives — though a flip in
    // the length field can inflate the claimed payload (up to the 64 MiB
    // cap), in which case the decoder legitimately waits for those bytes
    // before it can fail the checksum and resync.  Feed filler until it
    // does; a correct decoder recovers the clean frame within the cap.
    bool saw_clean = false;
    const auto drain = [&] {
      while (const auto frame = decoder.next()) {
        if (frame->type == 4 && frame->payload == clean_payload) {
          saw_clean = true;
        } else {
          EXPECT_EQ(frame->type, 3);
          EXPECT_EQ(frame->payload, payload);  // flip hit dead bytes only
        }
      }
    };
    drain();
    const std::string filler(1u << 20, '\0');
    for (int flush = 0; !saw_clean && flush < 72; ++flush) {
      decoder.feed(filler);
      drain();
    }
    EXPECT_TRUE(saw_clean);
  }
}

TEST(FrameFuzz, PureGarbageNeverCrashesOrWedges) {
  std::mt19937_64 rng(25);
  serve::frame_decoder decoder;
  std::size_t fed = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string junk = random_bytes(rng, 300);
    fed += junk.size();
    decoder.feed(junk);
    while (decoder.next()) {
      // A random 16-byte header + checksum colliding is ~2^-64; finding a
      // frame here means the validator is broken.
      ADD_FAILURE() << "garbage decoded as a frame";
    }
  }
  // Everything but a sub-header tail must have been consumed and tallied.
  EXPECT_GE(decoder.skipped_bytes() + serve::kFrameHeaderSize, fed);
}

TEST(FrameFuzz, AbsurdLengthFieldsCannotReserveMemory) {
  // A header claiming a 3 GiB payload must be rejected by the cap, not
  // buffered until the host dies.
  std::string bent = serve::encode_frame(1, "x");
  bent[8] = '\xFF';  // length field low byte
  bent[9] = '\xFF';
  bent[10] = '\xFF';
  bent[11] = '\x7F';
  serve::frame_decoder decoder;
  decoder.feed(bent);
  while (decoder.next()) {
  }
  EXPECT_LT(decoder.pending_bytes(), bent.size());
  EXPECT_GT(decoder.skipped_bytes(), 0u);
}

// --- serve protocol parsers on top of the framing ---

TEST(ProtocolFuzz, GarbagePayloadsNeverCrashParsers) {
  std::mt19937_64 rng(31);
  for (int i = 0; i < 300; ++i) {
    const std::string junk = random_bytes(rng, 200);
    (void)serve::parse_submit(junk);
    (void)serve::parse_accepted(junk);
    (void)serve::parse_rejected(junk);
    (void)serve::parse_panorama(junk);
    (void)serve::parse_complete(junk);
    (void)serve::parse_failed(junk);
    (void)serve::parse_stats_reply(junk);
  }
}

TEST(ProtocolFuzz, ImageDimensionByteCountMismatchIsRejected) {
  img::image_u8 image(6, 4, 1);
  for (std::size_t i = 0; i < image.size(); ++i) {
    image[i] = static_cast<std::uint8_t>(i * 7);
  }
  serve::panorama_msg msg;
  msg.job_id = 9;
  msg.index = 1;
  msg.image = image;
  const std::string framed = serve::encode_panorama(msg);

  serve::frame_decoder decoder;
  decoder.feed(framed);
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());

  // Valid as-is...
  ASSERT_TRUE(serve::parse_panorama(frame->payload).has_value());
  // ...but claiming one more column than the bytes provide must fail
  // (dimension tokens live before the '\n').
  std::string bent = frame->payload;
  const std::size_t nl = bent.find('\n');
  ASSERT_NE(nl, std::string::npos);
  std::string header = bent.substr(0, nl);
  const std::size_t w_at = header.find(" 6 ");
  ASSERT_NE(w_at, std::string::npos);
  header.replace(w_at, 3, " 7 ");
  EXPECT_FALSE(
      serve::parse_panorama(header + bent.substr(nl)).has_value());
}

TEST(ProtocolFuzz, SubmitRoundTripPreservesEveryField) {
  serve::job_request request;
  request.input = video::input_id::input2;
  request.alg = app::algorithm::vs_kds;
  request.frames = 33;
  request.hardening = resil::hardening_level::cfcss;
  request.priority = serve::priority_class::interactive;
  request.deadline_ms = 12345;
  request.max_threads = 5;
  request.client_key = "fleet-42-7";
  request.fault.armed = true;
  request.fault.cls = rt::reg_class::fpr;
  request.fault.target = 987654321ULL;
  request.fault.bit = 61;
  request.fault.step_budget = 5555555ULL;

  serve::frame_decoder decoder;
  decoder.feed(serve::encode_submit(request));
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  const auto back = serve::parse_submit(frame->payload);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->input, request.input);
  EXPECT_EQ(back->alg, request.alg);
  EXPECT_EQ(back->frames, request.frames);
  EXPECT_EQ(back->hardening, request.hardening);
  EXPECT_EQ(back->priority, request.priority);
  EXPECT_EQ(back->deadline_ms, request.deadline_ms);
  EXPECT_EQ(back->max_threads, request.max_threads);
  EXPECT_EQ(back->client_key, request.client_key);
  EXPECT_EQ(back->fault.armed, request.fault.armed);
  EXPECT_EQ(back->fault.cls, request.fault.cls);
  EXPECT_EQ(back->fault.target, request.fault.target);
  EXPECT_EQ(back->fault.bit, request.fault.bit);
  EXPECT_EQ(back->fault.step_budget, request.fault.step_budget);

  // Only the full 13-field shape parses: the 7-field pre-idempotency-key
  // request is rejected now, like any field count in between.
  EXPECT_FALSE(serve::parse_submit("J 1 2 24 1 0 500 4").has_value());
  EXPECT_FALSE(serve::parse_submit("J 1 2 24 1 0 500 4 key").has_value());
  EXPECT_FALSE(
      serve::parse_submit("J 1 2 24 1 0 500 4 key 1 0 9 3").has_value());
  EXPECT_TRUE(
      serve::parse_submit("J 1 2 24 1 0 500 4 key 1 0 9 3 0").has_value());
}

// --- serve job journal on top of the sealed line protocol ---
//
// The admission journal shares the campaign journal's physics (sealed
// payloads, one per line, flushed per line), so the adversary is the same:
// a SIGKILL tearing the tail, a disk flipping a bit, a replay duplicating
// lines.  The contract under fuzz: the replayed job set is exactly the
// clean journal's minus the corrupted records — never a crash, never a
// half-parsed admission, never a double execution.

serve::job_request journal_request(int i) {
  serve::job_request r;
  r.input = i % 2 == 0 ? video::input_id::input1 : video::input_id::input2;
  r.alg = static_cast<app::algorithm>(i % 4);
  r.frames = 6 + i;
  r.client_key = "fuzz-" + std::to_string(i);
  r.fault.armed = i % 3 == 0;
  r.fault.target = static_cast<std::uint64_t>(i) * 1013904223ULL;
  r.fault.bit = static_cast<std::uint32_t>(i % 64);
  r.fault.step_budget = 1000000ULL + static_cast<std::uint64_t>(i);
  return r;
}

/// The clean journal every corruption test perturbs: header, five
/// admissions, two settlements (ids 1 and 4), one deferred drain-tail job.
std::vector<std::string> clean_journal_payloads() {
  std::vector<std::string> lines;
  lines.push_back(serve::job_journal_header_payload("fuzz"));
  for (int i = 1; i <= 5; ++i) {
    lines.push_back(serve::accepted_payload(static_cast<std::uint64_t>(i),
                                            journal_request(i)));
  }
  lines.push_back(
      serve::settled_payload(1, true, fault::outcome::masked, 0xabcdULL));
  lines.push_back(serve::settled_payload(4, false,
                                         fault::outcome::crash_segfault, 0));
  lines.push_back(serve::deferred_payload(journal_request(99)));
  return lines;
}

void write_journal(const std::string& path,
                   const std::vector<std::string>& payloads) {
  supervise::journal_writer writer;
  writer.open(path, /*truncate=*/true);
  for (const auto& p : payloads) ASSERT_TRUE(writer.append(p));
}

/// Serializes a replay set; equal strings mean equal job sets, field for
/// field, in replay order.
std::string replay_key(const std::vector<serve::journaled_job>& jobs) {
  std::string out;
  for (const auto& j : jobs) {
    out += std::to_string(j.id) + ":" + serve::deferred_payload(j.request) +
           "\n";
  }
  return out;
}

std::string journal_temp(const std::string& name) {
  return testing::TempDir() + name;
}

TEST(JournalFuzz, CleanJournalReplaysUnsettledPlusDeferred) {
  const std::string path = journal_temp("job_journal_clean.journal");
  write_journal(path, clean_journal_payloads());
  const auto state = serve::load_job_journal(path);
  EXPECT_TRUE(state.saw_header);
  EXPECT_EQ(state.skipped_lines, 0u);
  const auto replay = state.unfinished();
  // Ids 1 and 4 settled; 2, 3, 5 replay in admission order, then the
  // deferred job under a fresh id past the largest journaled one.
  ASSERT_EQ(replay.size(), 4u);
  EXPECT_EQ(replay[0].id, 2u);
  EXPECT_EQ(replay[1].id, 3u);
  EXPECT_EQ(replay[2].id, 5u);
  EXPECT_GT(replay[3].id, 5u);
  EXPECT_EQ(replay[0].request.client_key, "fuzz-2");
  EXPECT_EQ(replay[3].request.client_key, "fuzz-99");
  EXPECT_EQ(serve::deferred_payload(replay[2].request),
            serve::deferred_payload(journal_request(5)));
  std::remove(path.c_str());
}

TEST(JournalFuzz, TruncationReplaysExactlyTheIntactPrefix) {
  // Cutting the byte stream anywhere must replay exactly what a journal
  // holding only the fully-written lines would: the torn tail costs its
  // own line, never the records before it.
  const auto payloads = clean_journal_payloads();
  std::string stream;
  std::vector<std::size_t> line_ends;
  for (const auto& p : payloads) {
    stream += fault::wire::seal(p) + "\n";
    line_ends.push_back(stream.size());
  }
  const std::string torn_path = journal_temp("job_journal_torn.journal");
  const std::string ref_path = journal_temp("job_journal_ref.journal");
  std::mt19937_64 rng(41);
  std::uniform_int_distribution<std::size_t> cut(0, stream.size());
  for (int i = 0; i < 100; ++i) {
    const std::size_t at = cut(rng);
    std::ofstream(torn_path, std::ios::binary | std::ios::trunc)
        << stream.substr(0, at);
    // A line survives if every byte except its trailing '\n' made it:
    // getline yields an unterminated final line, and the seal still
    // validates.
    std::size_t complete = 0;
    while (complete < line_ends.size() && line_ends[complete] - 1 <= at) {
      ++complete;
    }
    write_journal(ref_path, {payloads.begin(),
                             payloads.begin() +
                                 static_cast<std::ptrdiff_t>(complete)});
    EXPECT_EQ(replay_key(serve::load_job_journal(torn_path).unfinished()),
              replay_key(serve::load_job_journal(ref_path).unfinished()));
  }
  std::remove(torn_path.c_str());
  std::remove(ref_path.c_str());
}

TEST(JournalFuzz, BitFlipCostsAtMostTheFlippedRecord) {
  // Flip one bit somewhere in one line: the loader must either reject that
  // line (replay == clean journal minus that record) or, if the flip
  // happens to leave the seal valid (hex-case flips in the checksum),
  // replay the clean set untouched.
  const auto payloads = clean_journal_payloads();
  const std::string flip_path = journal_temp("job_journal_flip.journal");
  const std::string ref_path = journal_temp("job_journal_flipref.journal");
  std::mt19937_64 rng(43);
  std::uniform_int_distribution<int> bit(0, 7);
  for (std::size_t victim = 0; victim < payloads.size(); ++victim) {
    const std::string sealed = fault::wire::seal(payloads[victim]);
    std::uniform_int_distribution<std::size_t> pick(0, sealed.size() - 1);
    for (int trial = 0; trial < 30; ++trial) {
      std::string bent = sealed;
      const std::size_t at = pick(rng);
      bent[at] = static_cast<char>(bent[at] ^ (1 << bit(rng)));
      if (bent[at] == '\n') continue;  // a flip INTO framing splits lines
      std::ofstream out(flip_path, std::ios::binary | std::ios::trunc);
      for (std::size_t i = 0; i < payloads.size(); ++i) {
        out << (i == victim ? bent : fault::wire::seal(payloads[i])) << "\n";
      }
      out.close();
      const auto flipped = serve::load_job_journal(flip_path);
      if (fault::wire::unseal(bent) == payloads[victim]) {
        write_journal(ref_path, payloads);  // benign hex-case flip
      } else {
        std::vector<std::string> minus;
        for (std::size_t i = 0; i < payloads.size(); ++i) {
          if (i != victim) minus.push_back(payloads[i]);
        }
        write_journal(ref_path, minus);
        EXPECT_GE(flipped.skipped_lines, 1u);
      }
      EXPECT_EQ(replay_key(flipped.unfinished()),
                replay_key(serve::load_job_journal(ref_path).unfinished()));
    }
  }
  std::remove(flip_path.c_str());
  std::remove(ref_path.c_str());
}

TEST(JournalFuzz, DuplicatedLinesAreNoOps) {
  // A replayed write (crash between append and ack, then re-append) must
  // not double-admit or double-settle: duplicate A and D lines are no-ops.
  const auto payloads = clean_journal_payloads();
  const std::string clean_path = journal_temp("job_journal_dup_ref.journal");
  write_journal(clean_path, payloads);
  const std::string clean_key =
      replay_key(serve::load_job_journal(clean_path).unfinished());

  const std::string dup_path = journal_temp("job_journal_dup.journal");
  std::vector<std::string> doubled;
  for (const auto& p : payloads) {
    doubled.push_back(p);
    if (p.size() > 1 && (p[0] == 'A' || p[0] == 'D')) doubled.push_back(p);
  }
  write_journal(dup_path, doubled);
  const auto state = serve::load_job_journal(dup_path);
  EXPECT_EQ(replay_key(state.unfinished()), clean_key);
  EXPECT_EQ(state.accepted.size(), 5u);
  EXPECT_EQ(state.settled.size(), 2u);
  std::remove(clean_path.c_str());
  std::remove(dup_path.c_str());
}

TEST(JournalFuzz, HeaderlessJournalDropsEveryRecord) {
  // Records without an identity line are another journal's strays; replay
  // must refuse them all rather than resurrect foreign jobs.
  auto payloads = clean_journal_payloads();
  payloads.erase(payloads.begin());
  const std::string path = journal_temp("job_journal_headerless.journal");
  write_journal(path, payloads);
  const auto state = serve::load_job_journal(path);
  EXPECT_FALSE(state.saw_header);
  EXPECT_TRUE(state.unfinished().empty());
  EXPECT_EQ(state.skipped_lines, payloads.size());
  std::remove(path.c_str());
}

TEST(JournalFuzz, GarbageJournalNeverCrashesTheLoader) {
  std::mt19937_64 rng(47);
  const std::string path = journal_temp("job_journal_garbage.journal");
  for (int i = 0; i < 50; ++i) {
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << random_bytes(rng, 2000);
    const auto state = serve::load_job_journal(path);
    EXPECT_TRUE(state.unfinished().empty());
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vs
