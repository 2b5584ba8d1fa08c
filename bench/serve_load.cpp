// Closed-loop load generator for the summarization service.
//
// Boots an in-process `vs serve` instance on a private socket, then drives
// it with closed-loop client fleets (each client submits its next job the
// moment the previous one finishes) at 1, 4, 16 and 64 concurrent clients,
// cycling through the four approximation variants.  Reports per-fleet
// throughput and p50/p95/p99 client-observed latency, self-checking two
// service contracts on every job:
//
//   * byte-identity — each montage hash must equal the one-shot
//     app::summarize reference for that (input, variant) pair, at every
//     concurrency (the shared pool budget must not leak into pixels);
//   * backpressure — a queue_full rejection must carry a retry-after hint,
//     and honoring it must eventually admit the job (no client starves).
//
// Emits BENCH_serve.json with the throughput/latency table.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "fault/wire.h"
#include "perf/latency.h"
#include "serve/client.h"
#include "serve/server.h"

namespace {

using clock_type = std::chrono::steady_clock;

double ms_since(clock_type::time_point t0) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - t0)
      .count();
}

struct fleet_row {
  int clients = 0;
  int jobs = 0;
  std::uint64_t rejections = 0;
  double wall_ms = 0.0;
  double throughput_jobs_s = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace vs;
  const auto opt = benchutil::parse_options(argc, argv);
  const int frames = std::min(opt.frames, opt.quick ? 8 : 12);
  const int jobs_per_client = opt.quick ? 2 : 3;

  benchutil::heading("Summarization service under closed-loop load (" +
                     std::to_string(frames) + "-frame clips)");

  // One-shot references: the montage hash each served job must reproduce.
  std::map<std::pair<int, int>, std::uint64_t> reference;
  for (const video::input_id input : benchutil::all_inputs()) {
    for (const app::algorithm alg : benchutil::all_variants()) {
      const auto source = video::make_input(input, frames);
      app::pipeline_config config;
      config.approx.alg = alg;
      const auto result = app::summarize(*source, config);
      reference[{static_cast<int>(input), static_cast<int>(alg)}] =
          fault::wire::hash_image(result.panorama);
    }
  }

  char socket_path[64];
  std::snprintf(socket_path, sizeof(socket_path), "/tmp/vs_bench_%d.sock",
                static_cast<int>(::getpid()));
  serve::server_config server_config;
  server_config.socket_path = socket_path;
  server_config.queue_capacity = 8;
  server_config.runners = 4;
  serve::server server(server_config);
  server.start();
  std::thread server_thread([&server] { server.run(); });

  std::atomic<bool> ok{true};
  std::vector<fleet_row> rows;
  for (const int clients : {1, 4, 16, 64}) {
    std::vector<double> latencies;
    std::mutex latencies_mutex;
    std::atomic<std::uint64_t> rejections{0};
    const auto fleet_t0 = clock_type::now();

    std::vector<std::thread> fleet;
    for (int c = 0; c < clients; ++c) {
      fleet.emplace_back([&, c] {
        serve::client client(socket_path, 300.0);
        for (int j = 0; j < jobs_per_client; ++j) {
          serve::job_request request;
          const int pick = c * jobs_per_client + j;
          request.input = pick % 2 == 0 ? video::input_id::input1
                                        : video::input_id::input2;
          request.alg = benchutil::all_variants()[pick % 4];
          request.frames = frames;
          const auto t0 = clock_type::now();
          for (;;) {
            const auto outcome = client.submit(request);
            if (outcome.rejected) {
              // Honor the backpressure hint, then resubmit.  The sleep must
              // happen OUTSIDE any shared lock: a rejected client stalls only
              // itself, so its job re-enters the offered load while the rest
              // of the fleet keeps submitting.  (An earlier version slept
              // under latencies_mutex, which serialized the whole fleet on
              // one client's backoff and quietly shrank the offered load.)
              rejections.fetch_add(1, std::memory_order_relaxed);
              if (outcome.rejected->retry_after_ms == 0) ok.store(false);
              std::this_thread::sleep_for(std::chrono::milliseconds(
                  outcome.rejected->retry_after_ms));
              continue;
            }
            if (!outcome.complete) {
              ok.store(false);
              break;
            }
            const auto want =
                reference.find({static_cast<int>(request.input),
                                static_cast<int>(request.alg)});
            if (want == reference.end() ||
                outcome.complete->panorama_hash != want->second) {
              ok.store(false);
            }
            const std::lock_guard<std::mutex> lock(latencies_mutex);
            latencies.push_back(ms_since(t0));
            break;
          }
        }
      });
    }
    for (auto& t : fleet) t.join();

    fleet_row row;
    row.clients = clients;
    row.jobs = static_cast<int>(latencies.size());
    row.rejections = rejections.load();
    row.wall_ms = ms_since(fleet_t0);
    row.throughput_jobs_s = row.jobs / (row.wall_ms / 1000.0);
    row.p50_ms = perf::percentile(latencies, 0.50);
    row.p95_ms = perf::percentile(latencies, 0.95);
    row.p99_ms = perf::percentile(latencies, 0.99);
    rows.push_back(row);
    std::printf("%3d client(s): %3d job(s) in %7.0f ms  %5.2f jobs/s  "
                "p50 %6.0f ms  p95 %6.0f ms  p99 %6.0f ms  (%llu "
                "rejection(s) retried)\n",
                row.clients, row.jobs, row.wall_ms, row.throughput_jobs_s,
                row.p50_ms, row.p95_ms, row.p99_ms,
                static_cast<unsigned long long>(row.rejections));
  }

  server.request_drain();
  server_thread.join();

  const auto stats = server.stats();
  std::printf("server: %llu completed, %llu rejected, pool peak %llu/%llu "
              "slot(s)\n",
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.pool_peak_in_use),
              static_cast<unsigned long long>(stats.pool_budget));
  if (stats.pool_peak_in_use > stats.pool_budget) ok.store(false);

  const std::string out_path =
      (opt.out_dir.empty() ? std::string(".") : opt.out_dir) +
      "/BENCH_serve.json";
  std::ofstream out(out_path);
  out << "{\n  \"frames\": " << frames
      << ",\n  \"jobs_per_client\": " << jobs_per_client
      << ",\n  \"queue_capacity\": " << server_config.queue_capacity
      << ",\n  \"runners\": " << server_config.runners
      << ",\n  \"lookahead\": " << server_config.lookahead
      << ",\n  \"pool_budget\": " << stats.pool_budget
      << ",\n  \"pool_peak_in_use\": " << stats.pool_peak_in_use
      << ",\n  \"fleets\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    out << "    {\"clients\": " << r.clients << ", \"jobs\": " << r.jobs
        << ", \"rejections\": " << r.rejections
        << ", \"wall_ms\": " << r.wall_ms
        << ", \"throughput_jobs_s\": " << r.throughput_jobs_s
        << ", \"p50_ms\": " << r.p50_ms << ", \"p95_ms\": " << r.p95_ms
        << ", \"p99_ms\": " << r.p99_ms << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());

  if (!ok.load()) {
    std::fprintf(stderr, "FAIL: a served montage diverged from its one-shot "
                         "reference, a rejection lacked a retry hint, or "
                         "the pool budget was exceeded\n");
    return 1;
  }
  return 0;
}
