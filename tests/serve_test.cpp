// End-to-end tests of the summarization service: byte-identity against
// one-shot app::summarize at concurrency, admission control (backpressure,
// draining, deadlines, priority), pool-budget ceilings, stats, and a
// garbage-spraying client that must not hurt anyone.
#include "serve/server.h"

#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "app/pipeline.h"
#include "fault/wire.h"
#include "serve/campaign.h"
#include "serve/client.h"
#include "serve/job_journal.h"
#include "serve/respawn.h"
#include "supervise/journal.h"
#include "video/generator.h"

namespace vs::serve {
namespace {

std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/vs_serve_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++) + ".sock";
}

/// A server on its own thread; drains and joins on destruction.
class server_fixture {
 public:
  explicit server_fixture(server_config config) : server_(std::move(config)) {
    server_.start();
    thread_ = std::thread([this] { server_.run(); });
  }
  ~server_fixture() { shutdown(); }

  void shutdown() {
    if (thread_.joinable()) {
      server_.request_drain();
      thread_.join();
    }
  }

  server& get() { return server_; }
  /// The thread inside run() — the one that serves connections.
  std::thread::native_handle_type run_thread() {
    return thread_.native_handle();
  }

 private:
  server server_;
  std::thread thread_;
};

server_config quick_config(const std::string& socket_path) {
  server_config config;
  config.socket_path = socket_path;
  config.queue_capacity = 16;
  config.runners = 2;
  config.pool_budget = 2;
  return config;
}

app::summary_result reference_run(const job_request& request) {
  const auto source = video::make_input(request.input, request.frames);
  app::pipeline_config config;
  config.approx.alg = request.alg;
  config.hardening.level = request.hardening;
  return app::summarize(*source, config);
}

TEST(Serve, ServedMontageIsByteIdenticalToOneShotSummarize) {
  const std::string path = unique_socket_path();
  server_fixture fixture(quick_config(path));
  client c(path, 120.0);

  for (const auto input : {video::input_id::input1, video::input_id::input2}) {
    for (const auto alg : {app::algorithm::vs, app::algorithm::vs_rfd,
                           app::algorithm::vs_kds, app::algorithm::vs_sm}) {
      job_request request;
      request.input = input;
      request.alg = alg;
      request.frames = 8;
      const auto outcome = c.submit(request);
      ASSERT_TRUE(outcome.accepted.has_value());
      ASSERT_TRUE(outcome.complete.has_value());

      const auto reference = reference_run(request);
      EXPECT_TRUE(outcome.complete->montage == reference.panorama)
          << "montage diverged for alg " << static_cast<int>(alg);
      EXPECT_EQ(outcome.complete->panorama_hash,
                fault::wire::hash_image(reference.panorama));
      EXPECT_EQ(outcome.complete->stats.frames_stitched,
                reference.stats.frames_stitched);
      EXPECT_EQ(outcome.complete->stats.mini_panoramas,
                reference.stats.mini_panoramas);
    }
  }
}

TEST(Serve, StreamedMiniPanoramasMatchTheResultInOrder) {
  const std::string path = unique_socket_path();
  server_fixture fixture(quick_config(path));
  client c(path, 120.0);

  job_request request;
  request.input = video::input_id::input1;
  request.alg = app::algorithm::vs;
  request.frames = 10;
  std::vector<int> streamed_indices;
  const auto outcome = c.submit(request, [&](const panorama_msg& m) {
    streamed_indices.push_back(m.index);
  });
  ASSERT_TRUE(outcome.complete.has_value());

  const auto reference = reference_run(request);
  ASSERT_EQ(outcome.panoramas.size(), reference.mini_panoramas.size());
  for (std::size_t i = 0; i < outcome.panoramas.size(); ++i) {
    EXPECT_EQ(outcome.panoramas[i].index, static_cast<int>(i));
    EXPECT_TRUE(outcome.panoramas[i].image == reference.mini_panoramas[i]);
  }
  EXPECT_EQ(streamed_indices.size(), outcome.panoramas.size());
}

TEST(Serve, HardenedJobsMatchTheirHardenedReference) {
  const std::string path = unique_socket_path();
  server_fixture fixture(quick_config(path));
  client c(path, 120.0);

  job_request request;
  request.input = video::input_id::input2;
  request.alg = app::algorithm::vs;
  request.frames = 8;
  request.hardening = resil::hardening_level::cfcss;
  const auto outcome = c.submit(request);
  ASSERT_TRUE(outcome.complete.has_value());
  const auto reference = reference_run(request);
  EXPECT_TRUE(outcome.complete->montage == reference.panorama);
}

TEST(Serve, ByteIdenticalUnderConcurrentMixedClients) {
  const std::string path = unique_socket_path();
  server_fixture fixture(quick_config(path));

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::vector<char> match(kClients, 0);  // char: vector<bool> bits race
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      job_request request;
      request.input = i % 2 == 0 ? video::input_id::input1
                                 : video::input_id::input2;
      request.alg = i % 2 == 0 ? app::algorithm::vs_rfd
                               : app::algorithm::vs_sm;
      request.frames = 8;
      client c(path, 120.0);
      const auto outcome = c.submit(request);
      if (!outcome.complete) return;
      match[i] =
          outcome.complete->montage == reference_run(request).panorama ? 1
                                                                       : 0;
    });
  }
  for (auto& t : clients) t.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_TRUE(match[i]) << "client " << i;
  }

  // The shared-budget acceptance bound: 4 concurrent jobs never leased
  // more slots than the configured budget of 2.
  const auto stats = fixture.get().stats();
  EXPECT_LE(stats.pool_peak_in_use, stats.pool_budget);
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kClients));
}

TEST(Serve, IsolatedJobsAreByteIdenticalToo) {
  const std::string path = unique_socket_path();
  auto config = quick_config(path);
  config.isolate = true;
  config.job_timeout_s = 120.0;
  server_fixture fixture(std::move(config));
  client c(path, 120.0);

  job_request request;
  request.input = video::input_id::input1;
  request.alg = app::algorithm::vs_kds;
  request.frames = 8;
  const auto outcome = c.submit(request);
  ASSERT_TRUE(outcome.complete.has_value());
  EXPECT_TRUE(outcome.complete->montage == reference_run(request).panorama);
}

TEST(Serve, FullQueueRejectsWithRetryAfterHint) {
  const std::string path = unique_socket_path();
  server_config config;
  config.socket_path = path;
  config.queue_capacity = 1;
  config.runners = 1;
  config.pool_budget = 1;
  server_fixture fixture(std::move(config));

  // Occupy the single runner with a long job, then flood it with four
  // concurrent quick submits: with capacity 1 only one can be queued while
  // the runner is busy, so at least one rejection must appear, and every
  // queue_full rejection must carry a retry hint.  A rejected client then
  // resubmits through submit_resilient with a 1 ms backoff, so it is the
  // honored hint that spaces its retries: every job must eventually be
  // admitted (no client starves) and deliver its one-shot montage.  A
  // warm-up job first gives the server a service-time sample, so the hint
  // scales with how fast this build runs jobs.
  job_request busy_request;
  busy_request.frames = 60;
  job_request quick_request;
  quick_request.frames = 8;
  const auto busy_reference = reference_run(busy_request).panorama;
  const auto quick_reference = reference_run(quick_request).panorama;
  const auto await_runner = [&](bool busy) {
    for (int i = 0; i < 10000 && (fixture.get().stats().in_flight > 0) != busy;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  {
    client c(path, 120.0);
    const auto warm_up = c.submit(quick_request);
    ASSERT_TRUE(warm_up.complete.has_value());
  }
  await_runner(false);  // the warm-up settles after its reply is sent

  std::atomic<bool> busy_served{false};
  std::thread busy([&] {
    client c(path, 120.0);
    const auto outcome = c.submit(busy_request);
    busy_served = outcome.complete && outcome.complete->montage == busy_reference;
  });
  await_runner(true);

  constexpr int kFlood = 4;
  std::atomic<int> rejections{0};
  std::atomic<int> missing_hints{0};
  std::atomic<int> retried{0};
  std::vector<char> served(kFlood, 0);  // char: vector<bool> bits race
  std::vector<std::thread> flood;
  for (int i = 0; i < kFlood; ++i) {
    flood.emplace_back([&, i] {
      client c(path, 120.0);
      auto outcome = c.submit(quick_request);
      if (outcome.rejected &&
          outcome.rejected->reason == reject_reason::queue_full) {
        ++rejections;
        if (outcome.rejected->retry_after_ms == 0) ++missing_hints;
        core::backoff_policy backoff;
        backoff.max_attempts = 16;
        backoff.base_delay_ms = 1.0;
        backoff.max_delay_ms = 1.0;
        backoff.jitter = 0.0;
        outcome = c.submit_resilient(quick_request, backoff);
        if (outcome.attempts > 1) ++retried;
      }
      served[i] = outcome.complete &&
                          outcome.complete->montage == quick_reference
                      ? 1
                      : 0;
    });
  }
  for (auto& t : flood) t.join();
  busy.join();
  EXPECT_GT(rejections.load(), 0);
  EXPECT_EQ(missing_hints.load(), 0);
  EXPECT_GT(retried.load(), 0);
  EXPECT_GT(fixture.get().stats().rejected, 0u);
  EXPECT_TRUE(busy_served.load());
  for (int i = 0; i < kFlood; ++i) {
    EXPECT_TRUE(served[i]) << "flood client " << i
                           << " starved or got a diverged montage";
  }
}

TEST(Serve, DrainingServerRejectsNewWorkButFinishesAcceptedWork) {
  const std::string path = unique_socket_path();
  server_fixture fixture(quick_config(path));

  // A job accepted before the drain signal must complete normally.
  std::thread accepted_job([&] {
    job_request request;
    request.frames = 20;
    client c(path, 120.0);
    const auto outcome = c.submit(request);
    EXPECT_TRUE(outcome.complete.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  fixture.get().request_drain();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // New submissions during the drain are refused with the right reason
  // (the server may already have fully drained and closed the socket, in
  // which case connect itself fails — also a correct refusal).
  job_request late;
  late.frames = 8;
  client c(path, 120.0);
  try {
    const auto outcome = c.submit(late);
    ASSERT_TRUE(outcome.rejected.has_value());
    EXPECT_EQ(outcome.rejected->reason, reject_reason::draining);
  } catch (const io_error&) {
  }
  accepted_job.join();
}

TEST(Serve, QueuedDeadlineExpiryFailsWithHangTaxonomy) {
  const std::string path = unique_socket_path();
  server_config config;
  config.socket_path = path;
  config.queue_capacity = 8;
  config.runners = 1;
  config.pool_budget = 1;
  server_fixture fixture(std::move(config));

  // Wedge the single runner, then queue a job whose deadline lapses while
  // it waits.
  std::thread busy([&] {
    job_request request;
    request.frames = 60;
    client c(path, 120.0);
    (void)c.submit(request);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  job_request doomed;
  doomed.frames = 8;
  doomed.deadline_ms = 1;
  client c(path, 120.0);
  const auto outcome = c.submit(doomed);
  busy.join();
  if (outcome.failed) {
    EXPECT_EQ(outcome.failed->failure, fault::outcome::hang);
  } else {
    // The busy job can finish first on a fast machine; then the deadline
    // was met and completing was correct.
    EXPECT_TRUE(outcome.complete.has_value());
  }
}

TEST(Serve, InteractiveJobsOvertakeBatchJobsInTheQueue) {
  const std::string path = unique_socket_path();
  server_config config;
  config.socket_path = path;
  config.queue_capacity = 8;
  config.runners = 1;
  config.pool_budget = 1;
  server_fixture fixture(std::move(config));

  // Wedge the runner so both probes are queued, then: batch first,
  // interactive second.  The interactive one must finish first.  Each step
  // waits on the server's own counters rather than a fixed sleep, so the
  // probes are queued behind the busy job however fast this build runs it.
  const auto await_stats = [&](std::uint64_t in_flight,
                               std::uint64_t queue_depth) {
    for (int i = 0; i < 10000; ++i) {
      const auto s = fixture.get().stats();
      if (s.in_flight == in_flight && s.queue_depth == queue_depth) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  };
  std::thread busy([&] {
    job_request request;
    request.frames = 60;
    client c(path, 120.0);
    (void)c.submit(request);
  });
  const bool busy_running = await_stats(1, 0);

  std::atomic<int> finish_order{0};
  std::atomic<int> batch_finished_at{-1};
  std::atomic<int> interactive_finished_at{-1};
  std::thread batch([&] {
    job_request request;
    request.frames = 8;
    request.priority = priority_class::batch;
    client c(path, 120.0);
    if (c.submit(request).complete) batch_finished_at = finish_order++;
  });
  const bool batch_queued = await_stats(1, 1);
  std::thread interactive([&] {
    job_request request;
    request.frames = 8;
    request.priority = priority_class::interactive;
    client c(path, 120.0);
    if (c.submit(request).complete) interactive_finished_at = finish_order++;
  });
  const bool both_queued = await_stats(1, 2);

  busy.join();
  batch.join();
  interactive.join();
  ASSERT_TRUE(busy_running);
  ASSERT_TRUE(batch_queued);
  ASSERT_TRUE(both_queued);
  ASSERT_GE(batch_finished_at.load(), 0);
  ASSERT_GE(interactive_finished_at.load(), 0);
  EXPECT_LT(interactive_finished_at.load(), batch_finished_at.load());
}

TEST(Serve, StatsReflectServedWork) {
  const std::string path = unique_socket_path();
  server_fixture fixture(quick_config(path));
  client c(path, 120.0);

  job_request request;
  request.frames = 8;
  ASSERT_TRUE(c.submit(request).complete.has_value());
  ASSERT_TRUE(c.submit(request).complete.has_value());

  const auto wire_stats = c.stats();
  EXPECT_EQ(wire_stats.completed, 2u);
  EXPECT_EQ(wire_stats.failed, 0u);
  EXPECT_EQ(wire_stats.latency.count, 2u);
  EXPECT_GT(wire_stats.latency.p50_ms, 0.0);
  EXPECT_GE(wire_stats.latency.max_ms, wire_stats.latency.p50_ms);
  EXPECT_FALSE(wire_stats.draining);

  const auto local = fixture.get().stats();
  EXPECT_EQ(local.completed, wire_stats.completed);
}

std::size_t live_threads() {
  std::size_t n = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++n;
  }
  return n;
}

TEST(Serve, StartLaunchesOnlyItsRunners) {
  // Served jobs run inline on their leases: besides the runners, start()
  // launches no thread (no stage-scheduler dispatcher), so every thread a
  // job computes on is a leased slot.
  const std::string path = unique_socket_path();
  auto config = quick_config(path);
  config.runners = 3;
  server srv(std::move(config));
  const std::size_t before = live_threads();
  srv.start();
  EXPECT_EQ(live_threads(), before + 3);
  std::remove(path.c_str());  // run() never ran to unlink it
}

TEST(Serve, GarbageSprayingClientDoesNotDisturbTheService) {
  const std::string path = unique_socket_path();
  server_fixture fixture(quick_config(path));

  // Connect raw and spray junk (including a torn frame prefix), then
  // vanish.  The server must drop us without crashing.
  {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const std::string junk = "\x56\x53\x46\x31 not actually a frame \xFF\xFF";
    (void)::send(fd, junk.data(), junk.size(), MSG_NOSIGNAL);
    const std::string torn = encode_frame(2, "torn").substr(0, 10);
    (void)::send(fd, torn.data(), torn.size(), MSG_NOSIGNAL);
    ::close(fd);
  }

  // A well-formed job right after must be served normally.
  client c(path, 120.0);
  job_request request;
  request.frames = 8;
  const auto outcome = c.submit(request);
  ASSERT_TRUE(outcome.complete.has_value());
  EXPECT_TRUE(outcome.complete->montage == reference_run(request).panorama);
}

/// A raw client socket (no serve::client), connected to `path`; -1 on
/// failure.
int connect_raw(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// The next frame off a raw socket; nullopt once the peer hangs up.
std::optional<frame> read_frame(int fd, frame_decoder& decoder) {
  for (;;) {
    if (auto f = decoder.next()) return f;
    if (recv_into(fd, decoder) <= 0) return std::nullopt;
  }
}

TEST(Serve, MalformedSubmitPayloadIsRejectedAsBadRequest) {
  const std::string path = unique_socket_path();
  server_fixture fixture(quick_config(path));

  const int fd = connect_raw(path);
  ASSERT_GE(fd, 0);
  // A validly framed submit whose payload fails field validation
  // (algorithm code 99).
  const std::string bad = encode_frame(
      static_cast<std::uint16_t>(msg_type::submit), "J 0 99 8 0 1 0 0");
  ASSERT_EQ(::send(fd, bad.data(), bad.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bad.size()));

  frame_decoder decoder;
  const std::optional<frame> reply = read_frame(fd, decoder);
  ::close(fd);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, static_cast<std::uint16_t>(msg_type::rejected));
  const auto rejected = parse_rejected(reply->payload);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(rejected->reason, reject_reason::bad_request);
}

void ignore_signal(int) {}

TEST(Serve, SignalWhileAwaitingTheRequestDoesNotDropTheClient) {
  // A handler installed without SA_RESTART makes a signal interrupt the
  // serving thread's poll while it waits for a connection's request.  An
  // interrupted poll is not a dead peer: the client, whose request arrives
  // in two pieces around the signals, must still get its answer.
  struct sigaction quiet {};
  struct sigaction previous {};
  quiet.sa_handler = ignore_signal;
  sigemptyset(&quiet.sa_mask);
  ASSERT_EQ(::sigaction(SIGUSR2, &quiet, &previous), 0);

  const std::string path = unique_socket_path();
  server_fixture fixture(quick_config(path));
  const int fd = connect_raw(path);
  ASSERT_GE(fd, 0);
  const std::string request = encode_stats_request();
  const std::size_t half = request.size() / 2;
  ASSERT_TRUE(send_all(fd, std::string_view(request).substr(0, half)));
  for (int i = 0; i < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_EQ(::pthread_kill(fixture.run_thread(), SIGUSR2), 0);
  }
  ASSERT_TRUE(send_all(fd, std::string_view(request).substr(half)));
  frame_decoder decoder;
  const std::optional<frame> reply = read_frame(fd, decoder);
  ::close(fd);
  fixture.shutdown();
  ::sigaction(SIGUSR2, &previous, nullptr);

  ASSERT_TRUE(reply.has_value()) << "the signal dropped the connection";
  EXPECT_EQ(reply->type, static_cast<std::uint16_t>(msg_type::stats_reply));
  EXPECT_TRUE(parse_stats_reply(reply->payload).has_value());
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(Serve, SilentClientDoesNotDelayOtherClients) {
  // A client that connects and says nothing owes its request for up to the
  // server's 5 s deadline; meanwhile every other client is answered at once.
  const std::string path = unique_socket_path();
  server_fixture fixture(quick_config(path));
  const int silent = connect_raw(path);
  ASSERT_GE(silent, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto t0 = std::chrono::steady_clock::now();
  const stats_reply stats = client(path, 10.0).stats();
  const double stats_s = seconds_since(t0);
  job_request request;
  request.frames = 8;
  const auto outcome = client(path, 120.0).submit(request);
  ::close(silent);

  EXPECT_LT(stats_s, 1.0) << "the silent client held up the stats request";
  EXPECT_FALSE(stats.draining);
  ASSERT_TRUE(outcome.complete.has_value());
  EXPECT_TRUE(outcome.complete->montage == reference_run(request).panorama);
}

TEST(Serve, ClientSendingMoreThanARequestIsHungUpOn) {
  // A header claiming a 1 MiB payload, then 128 KiB of it: no request is
  // that large, so the server hangs up long before the 5 s request deadline
  // instead of buffering what a waiting connection sends.
  const std::string path = unique_socket_path();
  server_fixture fixture(quick_config(path));
  const int fd = connect_raw(path);
  ASSERT_GE(fd, 0);
  const std::string prefix =
      encode_frame(static_cast<std::uint16_t>(msg_type::submit),
                   std::string(1 << 20, 'x'))
          .substr(0, kFrameHeaderSize + (128 << 10));
  const auto t0 = std::chrono::steady_clock::now();
  (void)send_all(fd, prefix);
  char byte;
  const ssize_t n = ::recv(fd, &byte, 1, 0);
  const double hung_up_s = seconds_since(t0);
  ::close(fd);
  EXPECT_LE(n, 0);
  EXPECT_LT(hung_up_s, 2.0);
}

TEST(Serve, SendAllToAStoppedReaderCostsOneSendTimeout) {
  // 1 MiB into a socket nobody reads: the first send(2) fills the buffer
  // and returns short when its 0.5 s timeout runs out; send_all must give
  // up then, not start a second 0.5 s wait.
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  set_socket_timeout(pair[0], SO_SNDTIMEO, 0.5);
  const auto t0 = std::chrono::steady_clock::now();
  const bool sent = send_all(pair[0], std::string(1 << 20, 'x'));
  const double took_s = seconds_since(t0);
  ::close(pair[0]);
  ::close(pair[1]);
  EXPECT_FALSE(sent);
  EXPECT_GE(took_s, 0.45);
  EXPECT_LT(took_s, 0.9);
}

TEST(Serve, ClientThatStopsReadingDoesNotHoldTheRunner) {
  // A raw client submits a 60-frame job, whose montage alone (1.25 MB) is
  // far beyond a socket buffer, and never reads.  The runner's blocked send
  // gives up after the server's 5 s send timeout and detaches the peer;
  // the job settles, so an 8-frame job queued behind it on the one runner
  // completes, and the stalled job's whole stream stays adoptable by key.
  const std::string path = unique_socket_path();
  server_config config;
  config.socket_path = path;
  config.queue_capacity = 8;
  config.runners = 1;
  config.pool_budget = 1;
  server_fixture fixture(std::move(config));

  job_request stalled;
  stalled.input = video::input_id::input1;
  stalled.frames = 60;
  stalled.client_key = "never-reads";
  const int fd = connect_raw(path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, encode_submit(stalled)));
  for (int i = 0; i < 10000 && fixture.get().stats().in_flight == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  job_request quick;
  quick.frames = 8;
  const auto t0 = std::chrono::steady_clock::now();
  submit_outcome behind;
  try {
    behind = client(path, 60.0).submit(quick);
  } catch (const io_error&) {
  }
  const double waited_s = seconds_since(t0);
  ::close(fd);

  ASSERT_TRUE(behind.complete.has_value())
      << "the job behind the stalled client never finished";
  EXPECT_TRUE(behind.complete->montage == reference_run(quick).panorama);
  // The 5 s send timeout plus a generous slack for both runs on a slow or
  // sanitized build.
  EXPECT_LT(waited_s, 5.0 + 30.0);

  const auto adopted = client(path, 120.0).submit(stalled);
  ASSERT_TRUE(adopted.complete.has_value());
  const auto reference = reference_run(stalled);
  EXPECT_TRUE(adopted.complete->montage == reference.panorama);
  ASSERT_EQ(adopted.panoramas.size(), reference.mini_panoramas.size());
  for (std::size_t i = 0; i < adopted.panoramas.size(); ++i) {
    EXPECT_TRUE(adopted.panoramas[i].image == reference.mini_panoramas[i]);
  }
  EXPECT_EQ(fixture.get().stats().completed, 2u);  // adoption ran nothing
}

// --- crash-only serving: journal replay, dedupe, drain deferral ---

bool wait_for_path(const std::string& path, double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    if (::access(path.c_str(), F_OK) == 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

/// A supervised server (respawn_supervisor on its own thread); SIGKILLing
/// the child via kill() exercises the full crash -> respawn -> replay path.
class supervised_fixture {
 public:
  explicit supervised_fixture(server_config config) {
    config_.server = std::move(config);
    config_.stable_uptime_s = 0.2;
    config_.max_consecutive_failures = 20;
    config_.backoff.base_delay_ms = 10.0;
    config_.backoff.max_delay_ms = 100.0;
    supervisor_ = std::make_unique<respawn_supervisor>(config_);
    thread_ = std::thread([this] { (void)supervisor_->run(); });
  }
  ~supervised_fixture() { shutdown(); }

  void shutdown() {
    if (thread_.joinable()) {
      supervisor_->request_shutdown();
      thread_.join();
    }
  }

  respawn_supervisor& get() { return *supervisor_; }

 private:
  respawn_config config_;
  std::unique_ptr<respawn_supervisor> supervisor_;
  std::thread thread_;
};

TEST(ServeRestart, SigkillWithQueuedJobsReplaysByteIdentically) {
  const std::string path = unique_socket_path();
  const std::string journal = path + ".journal";
  auto config = quick_config(path);
  config.journal_path = journal;
  config.runners = 1;  // serialize jobs so the kill lands on a real queue
  supervised_fixture fixture(std::move(config));
  ASSERT_TRUE(wait_for_path(path, 10.0));

  constexpr int kJobs = 4;
  std::vector<std::thread> clients;
  std::vector<char> ok(kJobs, 0);
  std::atomic<int> reconnected{0};
  for (int i = 0; i < kJobs; ++i) {
    clients.emplace_back([&, i] {
      job_request request;
      request.input = i % 2 == 0 ? video::input_id::input1
                                 : video::input_id::input2;
      request.alg = i % 2 == 0 ? app::algorithm::vs : app::algorithm::vs_rfd;
      request.frames = 8;
      request.client_key = "restart-" + std::to_string(i);
      core::backoff_policy backoff;
      backoff.max_attempts = 12;
      backoff.base_delay_ms = 20.0;
      backoff.max_delay_ms = 300.0;
      client c(path, 120.0);
      const auto outcome = c.submit_resilient(request, backoff);
      if (!outcome.complete) return;
      if (outcome.reconnects > 0) ++reconnected;
      ok[i] = outcome.complete->montage == reference_run(request).panorama
                  ? 1
                  : 0;
    });
  }

  // Kill once the burst is admitted and the first job is mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  fixture.get().kill_child();

  for (auto& t : clients) t.join();
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_TRUE(ok[i]) << "job " << i
                       << " lost or diverged across the restart";
  }

  fixture.shutdown();
  std::remove(journal.c_str());
}

TEST(ServeRestart, ShutdownDuringRespawnBackoffEndsClean) {
  const std::string path = unique_socket_path();
  respawn_config config;
  config.server = quick_config(path);
  config.backoff.base_delay_ms = 30000.0;  // park the respawn for 30 s
  config.backoff.max_delay_ms = 30000.0;
  config.backoff.jitter = 0.0;
  respawn_supervisor supervisor(config);
  respawn_stats stats;
  std::thread runner([&] { stats = supervisor.run(); });
  ASSERT_TRUE(wait_for_path(path, 10.0));

  // Crash the only generation and wait until the supervisor has reaped
  // it: no generation is alive, the respawn is parked in its backoff.
  supervisor.kill_child();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (supervisor.child_pid() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_LE(supervisor.child_pid(), 0);

  const auto t0 = std::chrono::steady_clock::now();
  supervisor.request_shutdown();
  runner.join();
  const double waited_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  EXPECT_LT(waited_s, 5.0) << "shutdown waited out the respawn backoff";
  EXPECT_TRUE(stats.clean_exit);
  EXPECT_FALSE(stats.gave_up);
  EXPECT_EQ(stats.generations, 1u);
  // The one generation died abnormally: by the SIGKILL, or — under TSan,
  // which stops a forked child that starts threads — by exiting first.
  EXPECT_EQ(stats.crashes + stats.failures, 1u);
  std::remove(path.c_str());  // the killed generation never unlinked it
}

TEST(ServeRestart, RepeatedShutdownCannotCleanAFailedDrain) {
  const std::string path = unique_socket_path();
  respawn_config config;
  config.server = quick_config(path);
  respawn_supervisor supervisor(config);
  respawn_stats stats;
  std::atomic<bool> returned{false};
  std::thread runner([&] {
    stats = supervisor.run();
    returned.store(true);
  });
  ASSERT_TRUE(wait_for_path(path, 10.0));

  // Ask the live generation to drain, kill it mid-drain, and keep asking
  // (a second SIGINT/SIGTERM) until run() returns — also in the moment
  // after the dead generation is reaped.  Only the first request, made
  // while the generation lived, decides: the verdict is clean exactly when
  // the generation exited 0 (it may finish its drain before the SIGKILL).
  // The premise is a generation alive at the first request, which a TSan
  // build cannot give (it kills a forked child that starts threads).
  supervisor.request_shutdown();
  supervisor.kill_child();
  while (!returned.load()) {
    supervisor.request_shutdown();
    std::this_thread::yield();
  }
  runner.join();
  EXPECT_EQ(stats.generations, 1u);
  EXPECT_FALSE(stats.gave_up);
  EXPECT_EQ(stats.clean_exit, stats.crashes + stats.failures == 0);
  std::remove(path.c_str());
}

/// A supervisor config whose 0.5 s heartbeat watchdog catches a wedged
/// generation quickly; the live child's pid goes to `<socket>.pid`.
respawn_config stall_config(const std::string& path) {
  respawn_config config;
  config.server = quick_config(path);
  config.stall_timeout_s = 0.5;
  config.stable_uptime_s = 0.2;
  config.backoff.base_delay_ms = 10.0;
  config.backoff.max_delay_ms = 100.0;
  config.pidfile = path + ".pid";
  return config;
}

TEST(ServeRestart, HeartbeatStallIsAHangAndRespawns) {
  // SIGSTOP freezes the generation, pid taken from the pidfile as a crash
  // drill would; the heartbeat stops, and the 0.5 s stall watchdog kills
  // the generation as a hang and respawns it.
  const std::string path = unique_socket_path();
  const respawn_config config = stall_config(path);
  respawn_supervisor supervisor(config);
  respawn_stats stats;
  std::thread runner([&] { stats = supervisor.run(); });
  ASSERT_TRUE(wait_for_path(path, 10.0));
  ASSERT_TRUE(wait_for_path(config.pidfile, 10.0));

  long pid = 0;
  std::ifstream(config.pidfile) >> pid;
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(static_cast<pid_t>(pid), SIGSTOP), 0);
  // The second generation answers stats once it has booted (and installed
  // its drain handler, so the shutdown below drains it).
  bool respawned = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (!respawned && std::chrono::steady_clock::now() < deadline) {
    try {
      client c(path, 1.0);
      respawned = c.stats().restarts == 1;
    } catch (const io_error&) {
    }
    if (!respawned) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  supervisor.request_shutdown();
  runner.join();
  std::remove(config.pidfile.c_str());
  EXPECT_TRUE(respawned);
  EXPECT_EQ(stats.hangs, 1u);
  EXPECT_EQ(stats.generations, 2u);
  EXPECT_EQ(stats.crashes + stats.failures, 0u);
  EXPECT_TRUE(stats.clean_exit);
}

TEST(ServeRestart, SilentClientIsNotAHang) {
  // A client that connects and says nothing for 2 s, four stall timeouts,
  // waits in the accept loop's poll set; the loop keeps beating and serving.
  const std::string path = unique_socket_path();
  const respawn_config config = stall_config(path);
  respawn_supervisor supervisor(config);
  respawn_stats stats;
  std::thread runner([&] { stats = supervisor.run(); });
  ASSERT_TRUE(wait_for_path(path, 10.0));

  const int silent = connect_raw(path);
  ASSERT_GE(silent, 0);
  std::this_thread::sleep_for(std::chrono::seconds(2));
  std::uint64_t restarts = ~0ULL;
  try {
    restarts = client(path, 5.0).stats().restarts;
  } catch (const io_error&) {
  }
  ::close(silent);
  supervisor.request_shutdown();
  runner.join();
  std::remove(config.pidfile.c_str());
  EXPECT_EQ(restarts, 0u);
  EXPECT_EQ(stats.hangs, 0u);
  EXPECT_EQ(stats.generations, 1u);
  EXPECT_TRUE(stats.clean_exit);
}

TEST(ServeRestart, SupervisedIsolatedJobsSurviveAGenerationKill) {
  // Each generation forks a worker per job: the generation's own fork
  // boundary must not wedge its first isolated job, and a SIGKILL of the
  // generation is seen at its exit, not when the orphaned job worker that
  // inherited the heartbeat pipe lets go of it.
  const std::string path = unique_socket_path();
  const std::string journal = path + ".journal";
  respawn_config config;
  config.server = quick_config(path);
  config.server.isolate = true;
  config.server.runners = 1;
  config.server.journal_path = journal;
  config.stall_timeout_s = 20.0;
  config.stable_uptime_s = 0.2;
  config.backoff.base_delay_ms = 10.0;
  config.backoff.max_delay_ms = 100.0;
  respawn_supervisor supervisor(config);
  respawn_stats stats;
  std::thread runner([&] { stats = supervisor.run(); });
  ASSERT_TRUE(wait_for_path(path, 10.0));

  job_request first;
  first.input = video::input_id::input1;
  first.alg = app::algorithm::vs;
  first.frames = 8;
  first.client_key = "isolated-0";
  {
    client c(path, 120.0);
    const auto outcome = c.submit(first);
    ASSERT_TRUE(outcome.complete.has_value());
    EXPECT_TRUE(outcome.complete->montage == reference_run(first).panorama);
  }

  job_request second;
  second.input = video::input_id::input2;
  second.alg = app::algorithm::vs_rfd;
  second.frames = 24;
  second.client_key = "isolated-1";
  submit_outcome killed;
  std::thread submitter([&] {
    core::backoff_policy backoff;
    backoff.max_attempts = 12;
    backoff.base_delay_ms = 20.0;
    backoff.max_delay_ms = 300.0;
    client c(path, 120.0);
    killed = c.submit_resilient(second, backoff);
  });
  bool in_flight = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!in_flight && std::chrono::steady_clock::now() < deadline) {
    try {
      client c(path, 5.0);
      in_flight = c.stats().in_flight >= 1;
    } catch (const io_error&) {
    }
    if (!in_flight) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(in_flight);
  const pid_t victim = supervisor.child_pid();
  const auto t0 = std::chrono::steady_clock::now();
  supervisor.kill_child();
  while (supervisor.child_pid() <= 0 || supervisor.child_pid() == victim) {
    ASSERT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const double respawn_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  submitter.join();
  supervisor.request_shutdown();
  runner.join();

  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.hangs, 0u);
  EXPECT_LT(respawn_s, config.stall_timeout_s / 4);
  ASSERT_TRUE(killed.complete.has_value()) << "the killed job was lost";
  EXPECT_TRUE(killed.complete->montage == reference_run(second).panorama);
  std::remove(journal.c_str());
  std::remove(path.c_str());  // the killed generation never unlinked it
}

TEST(ServeRestart, FailedGenerationLogsItsReason) {
  // A generation that cannot bind its socket reports why on its pipe
  // (supervise::child_fail) and exits nonzero; the respawn warning for
  // each such generation carries that reason.
  const std::string path =
      "/tmp/vs_serve_test_missing_" + std::to_string(::getpid()) + "/x.sock";
  respawn_config config;
  config.server = quick_config(path);
  config.max_consecutive_failures = 1;
  config.backoff.base_delay_ms = 10.0;
  config.backoff.max_delay_ms = 10.0;
  respawn_supervisor supervisor(config);
  testing::internal::CaptureStderr();
  const respawn_stats stats = supervisor.run();
  const std::string logged = testing::internal::GetCapturedStderr();

  EXPECT_EQ(stats.generations, 2u);
  EXPECT_EQ(stats.failures, 2u);
  EXPECT_TRUE(stats.gave_up);
  const std::string warning =
      "exited nonzero: Crash(abort) (serve:_cannot_listen_on_" + path +
      ":_No_such_file_or_directory)";
  for (const char* generation : {"generation 0 ", "generation 1 "}) {
    EXPECT_NE(logged.find(generation + warning), std::string::npos) << logged;
  }
}

TEST(ServeRestart, CampaignCountsEveryRestartItCaused) {
  // The serve campaign's crash drill kills the server child once a job is
  // in flight; its restart count is the supervisor's, so it equals the
  // generation deaths the supervisor logged, even when the last kill
  // leaves no live server to ask.
  serve_campaign_config config;
  config.frames = 6;
  config.injections = 6;
  config.kill_every = 3;
  config.socket_path = unique_socket_path();
  testing::internal::CaptureStderr();
  const serve_campaign_result result = run_serve_campaign(config);
  const std::string logged = testing::internal::GetCapturedStderr();

  std::uint64_t deaths = 0;
  for (std::size_t at = logged.find("died on signal");
       at != std::string::npos; at = logged.find("died on signal", at + 1)) {
    ++deaths;
  }
  EXPECT_GE(deaths, 1u) << logged;
  EXPECT_EQ(result.server_restarts, deaths) << logged;
  EXPECT_EQ(result.counts[static_cast<int>(client_outcome::lost)], 0u);
}

TEST(ServeRestart, DuplicateClientKeyExecutesOnce) {
  const std::string path = unique_socket_path();
  const std::string journal = path + ".journal";
  auto config = quick_config(path);
  config.journal_path = journal;
  server_fixture fixture(std::move(config));
  client c(path, 120.0);

  job_request request;
  request.input = video::input_id::input1;
  request.alg = app::algorithm::vs;
  request.frames = 8;
  request.client_key = "dup-key";
  const auto first = c.submit(request);
  ASSERT_TRUE(first.complete.has_value());

  // Same key again: the server adopts the settled sink and replays the
  // buffered stream — no second execution.
  const auto second = c.submit(request);
  ASSERT_TRUE(second.complete.has_value());
  EXPECT_TRUE(second.complete->montage == first.complete->montage);
  EXPECT_EQ(second.complete->panorama_hash, first.complete->panorama_hash);
  EXPECT_EQ(fixture.get().stats().completed, 1u);

  fixture.shutdown();
  std::remove(journal.c_str());
}

TEST(ServeRestart, ReplayOfCompletedJobIsANoOp) {
  const std::string path = unique_socket_path();
  const std::string journal = path + ".journal";

  // Hand-write a journal claiming job 1 accepted AND settled, job 2 only
  // accepted: a correct boot replays exactly job 2.
  job_request req;
  req.input = video::input_id::input1;
  req.alg = app::algorithm::vs;
  req.frames = 8;
  {
    supervise::journal_writer writer;
    writer.open(journal, /*truncate=*/true);
    ASSERT_TRUE(writer.append(job_journal_header_payload("serve")));
    req.client_key = "done-already";
    ASSERT_TRUE(writer.append(accepted_payload(1, req)));
    ASSERT_TRUE(writer.append(
        settled_payload(1, true, fault::outcome::masked, 0x1234)));
    req.client_key = "still-pending";
    ASSERT_TRUE(writer.append(accepted_payload(2, req)));
  }

  auto config = quick_config(path);
  config.journal_path = journal;
  server_fixture fixture(std::move(config));
  client c(path, 120.0);

  EXPECT_EQ(c.stats().replayed, 1u);
  // The replayed job runs to completion without any client attached...
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline &&
         c.stats().completed < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const auto stats = c.stats();
  EXPECT_EQ(stats.completed, 1u);  // job 2 only; job 1 never re-executed
  EXPECT_EQ(stats.journal_depth, 0u);

  // ...and a client showing up late under the pending key adopts the
  // finished result instead of triggering a second execution.
  req.client_key = "still-pending";
  const auto adopted = c.submit(req);
  ASSERT_TRUE(adopted.complete.has_value());
  EXPECT_TRUE(adopted.complete->montage == reference_run(req).panorama);
  EXPECT_EQ(fixture.get().stats().completed, 1u);

  fixture.shutdown();
  std::remove(journal.c_str());
}

TEST(ServeRestart, DrainDefersRejectedJobsToTheJournal) {
  const std::string path = unique_socket_path();
  const std::string journal = path + ".journal";
  {
    server_config config;
    config.socket_path = path;
    config.journal_path = journal;
    config.queue_capacity = 8;
    config.runners = 1;
    config.pool_budget = 1;
    server_fixture fixture(std::move(config));

    // Wedge the runner so the drain has something to wait for, then ask
    // for the drain and submit a latecomer: it must be rejected with
    // `draining` AND journaled as a deferred G line.
    std::thread busy([&] {
      job_request request;
      request.frames = 40;
      client c(path, 120.0);
      (void)c.submit(request);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    fixture.get().request_drain();

    job_request late;
    late.input = video::input_id::input2;
    late.frames = 8;
    late.client_key = "deferred-job";
    client c(path, 120.0);
    try {
      const auto outcome = c.submit(late);
      ASSERT_TRUE(outcome.rejected.has_value());
      EXPECT_EQ(outcome.rejected->reason, reject_reason::draining);
    } catch (const io_error&) {
      // Drain finished first and the socket is gone: no deferral to test.
      busy.join();
      fixture.shutdown();
      std::remove(journal.c_str());
      GTEST_SKIP() << "server drained before the late submit connected";
    }
    busy.join();
    fixture.shutdown();
  }

  const auto state = load_job_journal(journal);
  ASSERT_EQ(state.deferred.size(), 1u);
  EXPECT_EQ(state.deferred[0].client_key, "deferred-job");

  // Next boot re-admits the deferred job and completes it.
  auto config = quick_config(path);
  config.journal_path = journal;
  server_fixture fixture(std::move(config));
  client c(path, 120.0);
  EXPECT_EQ(c.stats().replayed, 1u);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline &&
         c.stats().completed < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(c.stats().completed, 1u);
  fixture.shutdown();
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace vs::serve
