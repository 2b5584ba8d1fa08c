// The long-running summarization service behind `vs serve`.
//
// One Unix-domain socket, one request frame per connection.  A connection
// either asks for a stats snapshot or submits one clip job; an admitted
// job's connection stays open while the server streams each mini-panorama
// the moment the pipeline closes it, then the final montage + run
// statistics.  A request must arrive within 5 s of the accept, and a send
// to a client gives up after 5 s: a client that stops reading loses its
// connection (its job runs on, adoptable by key), not a runner.
// The response to a given job is byte-identical to what a one-shot
// `vs summarize` of the same (input, variant, frames, hardening) produces,
// at any concurrency — every job runs app::summarize inline (no frame
// lookahead, so no scheduler thread) on a worker-slot lease from one shared
// core::pool_arbiter.  The server itself starts exactly `runners` threads
// and every other thread it runs belongs to a lease (a runner is its
// lease's first slot), so M concurrent clips on an N-slot budget never
// compute on more than N threads, and the kernels' fixed chunk tiling makes
// the pixels independent of the width granted.
//
// Admission is a bounded two-class priority queue (interactive overtakes
// batch, FIFO within a class).  A full queue rejects with a retry-after
// hint derived from observed job latency — backpressure, not buffering.
// Per-job deadlines ride the existing watchdog machinery: in isolate mode
// the remaining deadline becomes the forked worker's wall-clock SIGKILL
// watchdog (supervise/fork_runner.h); in-process, a job whose deadline
// lapses while queued fails with the Hang taxonomy before it starts (true
// mid-run preemption requires the process boundary).
//
// SIGTERM maps to request_drain() (async-signal-safe): the server stops
// admitting (rejects carry reason `draining`), finishes everything already
// accepted, then run() returns.  Drained results are byte-identical to
// undisturbed runs — the CI smoke job (ci/check_serve_gate.sh) SIGTERMs a
// live server mid-stream and cmp's every drained montage against one-shot
// references.
//
// Crash-only serving (DESIGN.md §5j): with `journal_path` set, every
// admission is appended to a durable, checksummed journal
// (serve/job_journal.h) BEFORE the client's accept frame is sent (a job
// whose A line fails to land is never acknowledged: its connection just
// closes), and every settlement appends a matching D line.  On start() the journal is
// compacted and the unfinished tail re-enqueued as orphan jobs (no client
// connection yet); a client that resubmits under its idempotency key
// adopts the orphan's buffered result stream instead of re-executing.
// Queued jobs refused during a drain are journaled as deferred (G lines)
// and re-admitted on the next boot, so a SIGTERM loses nothing either.
// The supervisor shell (serve/respawn.h) restarts a crashed server around
// this journal; because app::summarize is deterministic, a replayed job's
// montage is byte-identical to the one the dead server would have sent
// (ci/check_restart_gate.sh SIGKILLs a loaded server and cmp's every
// eventually-delivered montage against one-shot references).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/pool_budget.h"
#include "fault/report.h"
#include "perf/latency.h"
#include "serve/job_journal.h"
#include "serve/protocol.h"
#include "supervise/journal.h"

namespace vs::serve {

struct server_config {
  std::string socket_path;      ///< AF_UNIX path (must fit sun_path)
  std::size_t queue_capacity = 8;  ///< admitted-but-not-started bound
  int runners = 2;              ///< concurrent job executors
  unsigned pool_budget = 0;     ///< shared worker-slot budget; 0 = auto
  bool isolate = false;         ///< fork one worker process per job
  /// Isolate-mode watchdog for jobs that carry no deadline; <= 0 = off.
  double job_timeout_s = 0.0;
  /// Streaming per-job CSV log (fault::report_stream); empty = off.
  std::string report_path;
  /// Durable admission journal (serve/job_journal.h); empty = volatile
  /// queue, the pre-crash-only behavior.
  std::string journal_path;
  /// Supervisor respawn generation, surfaced in stats_reply.restarts
  /// (0 = first boot or unsupervised).
  std::uint64_t restarts = 0;
  /// Called once per accept-loop iteration (<= ~100 ms cadence) from the
  /// run() thread; the supervisor shell uses it as the heartbeat source.
  std::function<void()> on_tick;
};

/// Per-job result conduit: buffers every frame the job ever emitted
/// (accept included) and mirrors them to the attached client connection,
/// if any.  A job replayed from the journal starts detached (fd -1); a
/// client resubmitting under the same idempotency key adopts the sink and
/// receives the full buffered stream — which is exactly why a duplicate
/// submit never re-executes.  Defined in server.cpp.
struct job_sink;

class server {
 public:
  explicit server(server_config config);
  ~server();
  server(const server&) = delete;
  server& operator=(const server&) = delete;

  /// Binds the socket, starts the runner threads.  Throws io_error when
  /// the path is unusable.
  void start();

  /// Accept loop.  Blocks until a drain completes; start() first.
  void run();

  /// Initiates graceful drain.  Async-signal-safe (one write(2) on a
  /// self-pipe) — safe to call from a SIGTERM handler or another thread.
  void request_drain() noexcept;

  /// Live snapshot of queue/pool/latency state (also served on the wire).
  [[nodiscard]] stats_reply stats() const;

  [[nodiscard]] const std::string& socket_path() const noexcept {
    return config_.socket_path;
  }

 private:
  struct pending_job {
    std::uint64_t id = 0;
    job_request request;
    /// Result conduit; owns the client connection (detached for jobs
    /// replayed from the journal until their client resubmits).
    std::shared_ptr<job_sink> sink;
    std::chrono::steady_clock::time_point admitted;
  };

  /// Answers a connection's one request frame; closes `fd` unless a job's
  /// sink took it.
  void handle_request(int fd, const frame& request);
  /// Admits, adopts or rejects one submit.  True when a job's sink took
  /// `fd`; false when the caller still owns it.
  bool admit_or_reject(int fd, const job_request& request);
  void runner_loop();
  void execute_job(pending_job job);
  void run_in_process(const pending_job& job, core::pool_lease& lease);
  void run_isolated(const pending_job& job, core::pool_lease& lease);
  /// Journals the D line, finalizes the sink, rotates the completed-key
  /// cache, and appends the per-job report row.
  void settle(const pending_job& job, const char* outcome, double wall_ms,
              bool completed, fault::outcome failure,
              std::uint64_t panorama_hash);
  /// Creates the sink + queue entry for one admission (journal replay or
  /// live submit).  Caller holds state_mutex_.
  pending_job enqueue_locked(std::uint64_t id, const job_request& request,
                             int fd);
  [[nodiscard]] std::uint64_t retry_after_ms_locked() const;

  server_config config_;
  core::pool_arbiter arbiter_;
  perf::latency_recorder latency_;
  /// Service time (lease acquired -> result delivered), excluding queue
  /// wait: what the retry-after backpressure hint is derived from.  Total
  /// latency includes the queue wait itself, so under load it would
  /// over-estimate by the very backlog the hint meters.
  perf::latency_recorder service_latency_;
  int listen_fd_ = -1;
  int wake_rd_ = -1;
  int wake_wr_ = -1;

  mutable std::mutex state_mutex_;
  std::condition_variable work_cv_;
  std::deque<pending_job> interactive_;
  std::deque<pending_job> batch_;
  bool draining_ = false;
  std::uint64_t next_job_id_ = 1;
  std::uint64_t in_flight_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t failed_ = 0;

  /// Admission journal writer (guarded by state_mutex_; A/G lines are
  /// appended under the same critical section that mutates the queue, so
  /// the durable record can never lag the volatile one).
  supervise::journal_writer journal_;
  std::uint64_t journal_depth_ = 0;  ///< journaled accepted-not-settled
  std::uint64_t replayed_ = 0;       ///< jobs re-enqueued at this boot
  std::uint64_t deferred_ = 0;       ///< drain-time G lines this run
  /// Idempotency index: client key -> sink of the live or recently
  /// completed job under that key (guarded by state_mutex_).
  std::map<std::string, std::shared_ptr<job_sink>> by_key_;
  /// FIFO of settled keys still held in by_key_ for duplicate-replay;
  /// bounded (kCompletedCacheCap in server.cpp), oldest evicted first.
  std::deque<std::string> cache_order_;

  std::mutex report_mutex_;
  fault::report_stream report_;

  std::vector<std::thread> runners_;
};

}  // namespace vs::serve
