// serve-mixed: `vs serve` as a child process, driven by blocking
// serve::client callers in a closed loop over short mixed jobs.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "core/error.h"
#include "host.h"
#include "pins.h"
#include "serve/client.h"
#include "workloads.h"

extern char** environ;

namespace vsbench {

namespace {

using vs::app::algorithm;
using vs::video::input_id;

constexpr int kFrames = 8;  ///< frames per job: short interactive clips

struct job_kind {
  input_id input = input_id::input1;
  algorithm alg = algorithm::vs;
  vs::serve::priority_class priority = vs::serve::priority_class::batch;
};

/// Inputs 1-3 x the four variants x both priority classes, in an order
/// drawn from the workload seed.
std::vector<job_kind> draw_jobs(std::uint64_t seed) {
  std::vector<job_kind> jobs;
  for (const input_id input :
       {input_id::input1, input_id::input2, input_id::input3}) {
    for (const algorithm alg : {algorithm::vs, algorithm::vs_rfd,
                                algorithm::vs_kds, algorithm::vs_sm}) {
      for (const auto priority : {vs::serve::priority_class::interactive,
                                  vs::serve::priority_class::batch}) {
        jobs.push_back({input, alg, priority});
      }
    }
  }
  seeded_shuffle(jobs, stream_seed(seed, "serve-mixed"));
  return jobs;
}

std::string job_pin_key(input_id input, algorithm alg) {
  return strf("%s/%s/f%d", vs::video::input_name(input),
              vs::app::algorithm_name(alg), kFrames);
}

/// A `vs serve` child.  The destructor kills and reaps a child that was
/// not stopped, so no path out of the workload leaves it running.
class server_process {
 public:
  server_process(const run_options& options, const std::string& tag)
      : socket_(options.run_dir + "/" + tag + ".sock"),
        journal_(options.run_dir + "/" + tag + ".journal") {
    std::filesystem::remove(journal_);  // a fresh journal every start
    const std::string log = options.run_dir + "/" + tag + ".log";
    std::vector<std::string> args = {
        options.vs_binary, "serve", socket_, "--journal=" + journal_,
        "--budget=" + std::to_string(options.width)};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    // The child sees the pinned pool width and default gate/batch levels.
    std::vector<std::string> env_strings;
    for (char** e = environ; *e != nullptr; ++e) {
      const std::string entry = *e;
      if (entry.rfind("VS_", 0) != 0) env_strings.push_back(entry);
    }
    env_strings.push_back("VS_THREADS=" + std::to_string(options.width));
    std::vector<char*> envp;
    for (auto& e : env_strings) envp.push_back(e.data());
    envp.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    const int rc = posix_spawn(&pid_, options.vs_binary.c_str(), &actions,
                               nullptr, argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      throw std::runtime_error("cannot spawn " + options.vs_binary + ": " +
                               std::strerror(rc));
    }
  }

  ~server_process() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    std::filesystem::remove(journal_);
  }
  server_process(const server_process&) = delete;
  server_process& operator=(const server_process&) = delete;

  /// Polls `stats` until the server answers.  Throws if it exits first or
  /// does not answer within 30 s.
  void wait_ready() {
    const auto deadline = bench_clock::now() + std::chrono::seconds(30);
    for (;;) {
      try {
        vs::serve::client c(socket_, 5.0);
        (void)c.stats();
        return;
      } catch (const vs::io_error&) {
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("vs serve exited before answering stats");
      }
      if (bench_clock::now() > deadline) {
        throw std::runtime_error("vs serve did not answer stats in 30 s");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  /// Graceful drain (SIGTERM), then reap; SIGKILL after 20 s.
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const auto deadline = bench_clock::now() + std::chrono::seconds(20);
    while (::waitpid(pid_, nullptr, WNOHANG) == 0) {
      if (bench_clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  [[nodiscard]] const std::string& socket() const noexcept { return socket_; }

 private:
  std::string socket_;
  std::string journal_;
  pid_t pid_ = -1;
};

/// What one client observed for one job.
struct job_sample {
  bool ok = false;
  double latency_ms = 0.0;     ///< submit to job_complete
  double run_ms = 0.0;         ///< server-reported wall_us
  double first_mini_ms = -1.0; ///< submit to first streamed mini-panorama
  double queue_depth = 0.0;    ///< jobs ahead at admission
  int frames = 0;
};

}  // namespace

run_result run_serve_mixed(const run_options& options) {
  run_result r;
  const pin_table pins =
      pin_table::load(pin_path(options.pins_dir, "serve-mixed"));
  const auto jobs = draw_jobs(options.seed);
  std::vector<std::string> expected;
  for (const auto& job : jobs) {
    const auto pin = pins.find(job_pin_key(job.input, job.alg));
    if (!pin) {
      throw std::runtime_error("no pinned reference for " +
                               job_pin_key(job.input, job.alg));
    }
    expected.push_back(*pin);
  }
  std::filesystem::create_directories(options.run_dir);

  // Set-up a user pays: spawn until the server answers `stats`.  Several
  // starts (a start takes milliseconds), each on a fresh journal; the last
  // one serves the loop.
  std::unique_ptr<server_process> server;
  const double setup_s = median_seconds(7, [&](int i) {
    if (server) server->stop();
    server = std::make_unique<server_process>(
        options, strf("serve-%d-%d", static_cast<int>(::getpid()), i));
    server->wait_ready();
  });

  const unsigned clients = options.width;
  std::atomic<std::size_t> cursor{0};
  std::vector<std::vector<job_sample>> samples(clients);
  std::vector<std::vector<std::string>> mismatches(clients);
  const auto start = bench_clock::now();
  const auto deadline = start + std::chrono::duration<double>(options.seconds);
  const auto client_loop = [&](unsigned c) {
    vs::serve::client client(server->socket(), 60.0);
    while (bench_clock::now() < deadline) {
      const std::size_t index = cursor.fetch_add(1) % jobs.size();
      const job_kind& kind = jobs[index];
      vs::serve::job_request request;
      request.input = kind.input;
      request.alg = kind.alg;
      request.frames = kFrames;
      request.priority = kind.priority;
      job_sample s;
      const auto submitted = bench_clock::now();
      try {
        const auto out = client.submit(
            request, [&](const vs::serve::panorama_msg&) {
              if (s.first_mini_ms < 0.0) {
                s.first_mini_ms = ms_between(submitted, bench_clock::now());
              }
            });
        s.latency_ms = ms_between(submitted, bench_clock::now());
        if (out.accepted) {
          s.queue_depth = static_cast<double>(out.accepted->queue_depth);
        }
        if (out.complete) {
          s.run_ms = static_cast<double>(out.complete->wall_us) / 1000.0;
          s.frames = kFrames;
          const std::string got = hex64(vs::img::digest(out.complete->montage));
          s.ok = got == expected[index];
          if (!s.ok) {
            mismatches[c].push_back("MISMATCH " +
                                    job_pin_key(kind.input, kind.alg) +
                                    ": montage " + got + ", pinned " +
                                    expected[index]);
          }
        } else {
          mismatches[c].push_back("job " + job_pin_key(kind.input, kind.alg) +
                                  (out.rejected ? " rejected" : " failed"));
        }
      } catch (const std::exception& e) {
        s.latency_ms = ms_between(submitted, bench_clock::now());
        mismatches[c].push_back(std::string("job error: ") + e.what());
      }
      samples[c].push_back(s);
    }
  };
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) threads.emplace_back(client_loop, c);
  for (auto& t : threads) t.join();
  const double wall_s = ms_between(start, bench_clock::now()) / 1000.0;
  const double server_rss = peak_rss_mb_of(server->pid());
  server->stop();

  std::vector<double> latency;
  std::vector<double> run_ms;
  std::vector<double> wait_ms;
  std::vector<double> first_mini;
  double queue_depth = 0.0;
  double frames = 0.0;
  for (unsigned c = 0; c < clients; ++c) {
    for (const auto& s : samples[c]) {
      ++r.attempted;
      if (!s.ok) {
        ++r.failed;
        continue;
      }
      latency.push_back(s.latency_ms);
      run_ms.push_back(s.run_ms);
      wait_ms.push_back(s.latency_ms - s.run_ms);
      if (s.first_mini_ms >= 0.0) first_mini.push_back(s.first_mini_ms);
      queue_depth += s.queue_depth;
      frames += s.frames;
    }
    for (const auto& m : mismatches[c]) r.line(m);
  }
  const double completed = static_cast<double>(latency.size());
  r.line(strf("%u blocking clients, closed loop, %zu job kinds, %d frames "
              "per job, server pool budget %u",
              clients, jobs.size(), kFrames, options.width));
  if (!options.trace) {
    const auto lat = summarize_latency(latency);
    r.add("setup_s", setup_s, "s");
    r.add("ops_per_s", completed / wall_s, "1/s");
    r.add("frames_per_s", frames / wall_s, "1/s");
    r.add("call_ms_p50", lat.p50, "ms");
    r.add("call_ms_p90", lat.p90, "ms");
    r.add("peak_rss_mb", server_rss, "MB");
    r.line(strf("job_ms (submit to job_complete): p50 %.3f  p90 %.3f  n=%zu"
                "  p90 %s",
                lat.p50, lat.p90, lat.n,
                lat.p90_valid ? "valid" : "INVALID (<10 samples beyond)"));
  } else {
    r.add("serve.run_ms", median(run_ms), "ms");
    r.add("serve.wait_ms", median(wait_ms), "ms");
    r.add("serve.first_mini_ms", median(first_mini), "ms");
    r.add("serve.queue_depth", completed > 0.0 ? queue_depth / completed : 0.0,
          "count");
    // Client time outside any job span (connect set-up, bookkeeping).
    double spanned_ms = 0.0;
    for (const auto& per_client : samples) {
      for (const auto& s : per_client) spanned_ms += s.latency_ms;
    }
    r.add("replay.unexplained_share",
          1.0 - spanned_ms / (wall_s * 1000.0 * clients), "ratio");
  }
  return r;
}

void pin_serve(const run_options& options) {
  // What a one-shot summarize of the same job produces, sequentially (the
  // pool width is 1 for every run).
  pin_table pins;
  for (const auto& job : draw_jobs(0)) {
    const auto key = job_pin_key(job.input, job.alg);
    if (pins.find(key)) continue;
    vs::app::pipeline_config config;
    config.approx.alg = job.alg;
    config.frames_in_flight = 0;
    const auto clip = vs::video::make_input(job.input, kFrames);
    pins.set(key, hex64(vs::img::digest(
                      vs::app::summarize(*clip, config).panorama)));
  }
  pins.save(pin_path(options.pins_dir, "serve-mixed"),
            "serve-mixed: img::digest of each (input, variant) job's montage,\n"
            "from a sequential one-shot app::summarize of the same clip.\n"
            "Regenerate: python3 vsbench/run.py --pin serve-mixed");
}

}  // namespace vsbench
