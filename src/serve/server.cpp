#include "serve/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>
#include <utility>

#include "core/error.h"
#include "core/log.h"
#include "fault/wire.h"
#include "supervise/fork_runner.h"
#include "video/generator.h"

namespace vs::serve {

namespace {

/// How many settled idempotency keys stay resolvable after completion: a
/// duplicate submit inside this window replays the buffered result stream
/// instead of re-executing.  Older keys fall off and a late duplicate
/// re-executes — harmless, because the pipeline is deterministic and the
/// journal dedupes by server id, not key.
constexpr std::size_t kCompletedCacheCap = 32;

/// How long a connection may take to deliver its request frame, and how
/// long one send_all to a client may block.
constexpr std::chrono::seconds kPeerTimeout{5};
/// Connections owing their request at once; the listen backlog holds more.
constexpr std::size_t kMaxWaiting = 64;
/// Bytes a connection may send short of a request frame (a submit is ~100).
constexpr std::size_t kMaxRequestBytes = 64 * 1024;

using clock = std::chrono::steady_clock;

double ms_between(clock::time_point a, clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// An accepted connection that still owes its one request frame.
struct waiting_request {
  int fd = -1;
  frame_decoder decoder;
  clock::time_point deadline;
};

fault::outcome outcome_of(const std::exception& e) {
  if (const auto* crash = dynamic_cast<const crash_error*>(&e)) {
    return crash->kind() == crash_kind::segfault
               ? fault::outcome::crash_segfault
               : fault::outcome::crash_abort;
  }
  if (dynamic_cast<const hang_error*>(&e) != nullptr) {
    return fault::outcome::hang;
  }
  return fault::outcome::crash_abort;
}

/// The pipeline run shared by both execution modes: byte-identical to
/// `vs summarize` because the config is built the same way (defaults plus
/// the requested variant/hardening), the leased pool only changes *who*
/// computes each fixed chunk, and the frame lookahead never changes output
/// bytes.  The job runs strictly inline (no lookahead, so no scheduler
/// thread): every live thread is a leased slot.
app::summary_result run_job_pipeline(
    const job_request& request, core::thread_pool& pool,
    const std::function<void(int, const img::image_u8&)>& on_mini) {
  const auto source = video::make_input(request.input, request.frames);
  app::pipeline_config config;
  config.approx.alg = request.alg;
  config.hardening.level = request.hardening;
  config.frames_in_flight = 0;
  config.on_mini_panorama = on_mini;
  // Serve-layer fault campaign: arm the journaled injection plan around
  // exactly this job's pipeline run, the same RAII shape the offline
  // campaign uses (fault/campaign.cpp).  Because the plan fields ride the
  // submit frame and the admission journal, a replay after a server crash
  // re-fires the same bit at the same dynamic op.
  std::optional<rt::session> armed;
  if (request.fault.armed) {
    rt::fault_plan plan;
    plan.cls = request.fault.cls;
    plan.target = request.fault.target;
    plan.bit = request.fault.bit;
    armed.emplace(plan, request.fault.step_budget > 0
                            ? request.fault.step_budget
                            : ~0ULL);
  }
  const core::pool_scope scope(pool);
  return app::summarize(*source, config);
}

job_complete make_complete(std::uint64_t job_id,
                           const app::summary_result& result,
                           std::uint64_t wall_us) {
  job_complete c;
  c.job_id = job_id;
  c.stats = result.stats;
  c.detections = result.recovery.faults_detected();
  c.retries = result.recovery.retries;
  c.frames_degraded = result.recovery.frames_degraded;
  c.wall_us = wall_us;
  c.panorama_hash = fault::wire::hash_image(result.panorama);
  c.montage = result.panorama;
  return c;
}

/// De-duplicating mini-panorama relay: under hardening a frame retry can
/// replay a close after state restore, so only monotonically increasing
/// indices leave the server.
class mini_streamer {
 public:
  mini_streamer(std::function<void(const std::string&)> emit,
                std::uint64_t job_id)
      : emit_(std::move(emit)), job_id_(job_id) {}

  void operator()(int index, const img::image_u8& panorama) {
    if (index <= last_) return;
    last_ = index;
    emit_(encode_panorama(job_id_, index, panorama));
  }

 private:
  std::function<void(const std::string&)> emit_;
  std::uint64_t job_id_;
  int last_ = -1;
};

}  // namespace

struct job_sink {
  std::mutex mutex;
  std::uint64_t job_id = 0;
  int fd = -1;  ///< attached client connection; -1 = detached (orphan)
  /// Every frame this job ever emitted, accept first, in send order —
  /// the replay source for an adopting duplicate submit.
  std::vector<std::string> frames;
  bool settled = false;  ///< final complete/failed frame already emitted

  ~job_sink() {
    if (fd >= 0) ::close(fd);
  }

  /// Buffers the frame and mirrors it to the attached connection.  A dead
  /// peer detaches the sink; the job keeps running and the buffer keeps
  /// growing so a later adoption still gets the full stream.
  void emit(const std::string& frame_bytes) {
    const std::lock_guard<std::mutex> lock(mutex);
    frames.push_back(frame_bytes);
    if (fd >= 0 && !send_all(fd, frame_bytes)) {
      ::close(fd);
      fd = -1;
    }
  }

  /// Attaches a (re)submitting client: replaces any previous connection
  /// and replays the entire buffered stream.  For a settled job that is
  /// the complete response; for a live one the connection then receives
  /// every future emit.
  void adopt(int new_fd) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
    for (const auto& frame_bytes : frames) {
      if (!send_all(new_fd, frame_bytes)) {
        ::close(new_fd);
        return;
      }
    }
    if (settled) {
      ::close(new_fd);
      return;
    }
    fd = new_fd;
  }

  /// Marks the stream complete and hangs up.  Called after the final
  /// complete/failed frame went through emit().
  void finalize() {
    const std::lock_guard<std::mutex> lock(mutex);
    settled = true;
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
};

server::server(server_config config)
    : config_(std::move(config)), arbiter_(config_.pool_budget) {
  config_.runners = std::max(1, config_.runners);
  config_.queue_capacity = std::max<std::size_t>(1, config_.queue_capacity);
}

server::~server() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0) ::close(wake_wr_);
  // Runner threads must already be joined (run() joins them); a server
  // destroyed without run() only has idle runners blocked on the cv.
  if (!runners_.empty()) {
    {
      const std::lock_guard<std::mutex> lock(state_mutex_);
      draining_ = true;
    }
    work_cv_.notify_all();
    for (auto& t : runners_) {
      if (t.joinable()) t.join();
    }
  }
}

void server::start() {
  // Bind under a temporary name and rename() into place only after
  // listen() succeeds: the advertised path then appears already-listening,
  // so a client that sees the socket file can never land in the
  // bind-to-listen window and take a spurious ECONNREFUSED.
  const std::string staging = config_.socket_path + ".tmp";
  sockaddr_un addr{};
  if (config_.socket_path.empty() ||
      staging.size() >= sizeof(addr.sun_path)) {
    throw io_error("serve: socket path empty or too long for sun_path: " +
                   config_.socket_path);
  }

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    throw io_error("serve: socket() failed: " +
                   std::string(std::strerror(errno)));
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, staging.c_str(), staging.size() + 1);
  (void)::unlink(staging.c_str());  // stale socket from a crash
  (void)::unlink(config_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0 ||
      ::rename(staging.c_str(), config_.socket_path.c_str()) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    (void)::unlink(staging.c_str());
    throw io_error("serve: cannot listen on " + config_.socket_path + ": " +
                   why);
  }

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    throw io_error("serve: pipe() failed: " +
                   std::string(std::strerror(errno)));
  }
  wake_rd_ = pipe_fds[0];
  wake_wr_ = pipe_fds[1];
  (void)::fcntl(wake_rd_, F_SETFD, FD_CLOEXEC);
  (void)::fcntl(wake_wr_, F_SETFD, FD_CLOEXEC);
  // The accept loop drains the wake pipe after poll(); non-blocking so the
  // drain read can't wedge the loop once the pipe is empty.
  (void)::fcntl(wake_rd_, F_SETFL, O_NONBLOCK);

  if (!config_.report_path.empty()) {
    report_.open(config_.report_path,
                 "job_id,input,algorithm,frames,hardening,priority,outcome,"
                 "wall_ms");
  }

  // Crash-only serving: compact the admission journal down to its
  // unfinished tail, re-enqueue that tail as detached jobs (their clients
  // re-attach by idempotency key), and keep the journal open for this
  // boot's A/D/G appends.  Runs before the runner threads exist, so the
  // replayed queue is complete before anything executes.
  if (!config_.journal_path.empty()) {
    const std::vector<journaled_job> replay =
        compact_job_journal(config_.journal_path, "serve");
    journal_.open(config_.journal_path, /*truncate=*/false);
    const std::lock_guard<std::mutex> lock(state_mutex_);
    for (const auto& entry : replay) {
      next_job_id_ = std::max(next_job_id_, entry.id + 1);
      (void)enqueue_locked(entry.id, entry.request, -1);
    }
    replayed_ = replay.size();
    journal_depth_ = replay.size();
    if (!replay.empty()) {
      log::info("serve: replayed " + std::to_string(replay.size()) +
                " unfinished job(s) from " + config_.journal_path);
    }
  }

  for (int i = 0; i < config_.runners; ++i) {
    runners_.emplace_back([this] { runner_loop(); });
  }

  log::info("serve: listening on " + config_.socket_path + " (" +
                  std::to_string(config_.runners) + " runners, budget " +
                  std::to_string(arbiter_.budget()) + " slots" +
                  (config_.isolate ? ", isolated" : "") + ")");
}

void server::request_drain() noexcept {
  // Only async-signal-safe calls here: this runs inside SIGTERM handlers.
  if (wake_wr_ >= 0) {
    const char byte = 'd';
    ssize_t n;
    do {
      n = ::write(wake_wr_, &byte, 1);
    } while (n < 0 && errno == EINTR);
  }
}

void server::run() {
  // Connections owing their request share the poll set with the listen
  // socket and the wake pipe, one read per POLLIN: a silent client holds
  // up no one else.
  std::vector<waiting_request> waiting;
  std::vector<pollfd> fds;
  // Drain finished and socket path gone: the loop only answers the clients
  // left in the backlog or owing their request (a submit gets `draining`)
  // instead of leaving them an RST when the listen fd closes.
  bool closing = false;
  for (;;) {
    // Heartbeat hook: the supervisor shell (serve/respawn.h) pulses its
    // liveness line from here, so a wedged accept loop reads as a stall.
    if (config_.on_tick) config_.on_tick();
    fds.clear();
    fds.push_back({wake_rd_, POLLIN, 0});
    // poll() skips a negative fd: at kMaxWaiting the backlog waits.
    fds.push_back(
        {waiting.size() < kMaxWaiting ? listen_fd_ : -1, POLLIN, 0});
    for (const auto& w : waiting) fds.push_back({w.fd, POLLIN, 0});
    const int ready = ::poll(fds.data(), fds.size(),
                             closing && waiting.empty() ? 0 : 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }

    if ((fds[0].revents & POLLIN) != 0) {
      char sink[16];
      while (::read(wake_rd_, sink, sizeof(sink)) > 0) {
      }
      {
        const std::lock_guard<std::mutex> lock(state_mutex_);
        if (!draining_) {
          draining_ = true;
          log::info("serve: drain requested — finishing " +
                          std::to_string(in_flight_ + interactive_.size() +
                                         batch_.size()) +
                          " accepted job(s), rejecting new work");
        }
      }
      work_cv_.notify_all();
    }

    const auto now = clock::now();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < waiting.size(); ++i) {
      waiting_request& w = waiting[i];
      if (fds[i + 2].revents != 0) {
        const ssize_t n = recv_into(w.fd, w.decoder);
        if (const std::optional<frame> request = w.decoder.next()) {
          handle_request(w.fd, *request);
          continue;
        }
        if (n <= 0 || w.decoder.pending_bytes() > kMaxRequestBytes) {
          w.deadline = now;  // hung up, or garbage: close it now
        }
      }
      if (now >= w.deadline) {
        ::close(w.fd);
        continue;
      }
      if (kept != i) waiting[kept] = std::move(w);
      ++kept;
    }
    waiting.resize(kept);

    if ((fds[1].revents & POLLIN) != 0) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        set_socket_timeout(fd, SO_SNDTIMEO,
                           static_cast<double>(kPeerTimeout.count()));
        waiting.push_back({fd, {}, clock::now() + kPeerTimeout});
      }
    }

    if (closing) {
      if (waiting.empty() && (fds[1].revents & POLLIN) == 0) break;
      continue;
    }
    const std::lock_guard<std::mutex> lock(state_mutex_);
    closing = draining_ && interactive_.empty() && batch_.empty() &&
              in_flight_ == 0;
    // Unlink first: once the path is gone no new connect can start.
    if (closing) (void)::unlink(config_.socket_path.c_str());
  }

  for (const auto& w : waiting) ::close(w.fd);
  work_cv_.notify_all();
  for (auto& t : runners_) {
    if (t.joinable()) t.join();
  }
  runners_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
  std::uint64_t deferred = 0;
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    deferred = deferred_;
  }
  log::info("serve: drained, socket closed" +
            (deferred > 0 ? " (" + std::to_string(deferred) +
                                " rejected job(s) deferred to journal)"
                          : std::string()));
}

void server::handle_request(int fd, const frame& request) {
  switch (static_cast<msg_type>(request.type)) {
    case msg_type::stats_request:
      (void)send_all(fd, encode_stats_reply(stats()));
      break;
    case msg_type::submit:
      if (const auto job = parse_submit(request.payload)) {
        if (admit_or_reject(fd, *job)) return;  // a job's sink owns fd now
      } else {
        job_rejected r;
        r.reason = reject_reason::bad_request;
        (void)send_all(fd, encode_rejected(r));
      }
      break;
    default:
      // A retired or unknown message type: protocol confusion, drop.
      break;
  }
  ::close(fd);
}

std::uint64_t server::retry_after_ms_locked() const {
  // Backpressure hint: how long until a queue slot should free up, from
  // observed SERVICE time (a cold server guesses 250 ms).  Using total
  // latency here was the 16-client collapse: total includes the queue wait,
  // so the deeper the backlog the longer rejected clients were told to stay
  // away, and the server drained its queue and idled while every client
  // slept out an estimate inflated by the very congestion it measured.
  // Service time under concurrent runners already amortizes slot
  // contention, so queue-depth/runners waves of it approximate the drain.
  const auto snap = service_latency_.snapshot();
  const double per_job = snap.count > 0 ? snap.mean_ms : 250.0;
  const double waves =
      static_cast<double>(interactive_.size() + batch_.size() + 1) /
      static_cast<double>(config_.runners);
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(per_job * waves + 0.5));
}

server::pending_job server::enqueue_locked(std::uint64_t id,
                                           const job_request& request,
                                           int fd) {
  pending_job job;
  job.id = id;
  job.request = request;
  job.sink = std::make_shared<job_sink>();
  job.sink->job_id = id;
  job.sink->fd = fd;
  job.admitted = clock::now();
  const std::size_t depth = interactive_.size() + batch_.size();
  if (!request.client_key.empty()) by_key_[request.client_key] = job.sink;
  if (request.priority == priority_class::interactive) {
    interactive_.push_back(job);
  } else {
    batch_.push_back(job);
  }
  // The accept frame rides the sink like every other frame, so an
  // adopting duplicate submit replays a complete, well-formed stream.
  job_accepted accepted;
  accepted.job_id = id;
  accepted.queue_depth = depth;
  job.sink->emit(encode_accepted(accepted));
  return job;
}

bool server::admit_or_reject(int fd, const job_request& request) {
  // Idempotent resubmission: a key we already know adopts the existing
  // job's buffered stream — never a second execution.  Checked before the
  // drain gate so a client chasing its pre-crash job can still collect
  // its result from a draining server.
  if (!request.client_key.empty()) {
    std::shared_ptr<job_sink> existing;
    {
      const std::lock_guard<std::mutex> lock(state_mutex_);
      const auto it = by_key_.find(request.client_key);
      if (it != by_key_.end()) existing = it->second;
    }
    if (existing) {
      existing->adopt(fd);
      return true;
    }
  }

  job_rejected rejection;
  bool rejected = false;
  bool unjournaled = false;
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    const std::size_t depth = interactive_.size() + batch_.size();
    if (draining_) {
      rejection.reason = reject_reason::draining;
      rejection.queue_depth = depth;
      rejected = true;
      ++rejected_;
      // Deferred, not dropped: the journal re-admits this submit on the
      // next boot, so a SIGTERM drain loses no offered work either.
      if (!config_.journal_path.empty()) {
        if (journal_.append(deferred_payload(request))) {
          ++deferred_;
        } else {
          log::error("serve: cannot journal a deferred job to " +
                     config_.journal_path + "; it is dropped");
        }
      }
    } else if (depth >= config_.queue_capacity) {
      rejection.reason = reject_reason::queue_full;
      rejection.retry_after_ms = retry_after_ms_locked();
      rejection.queue_depth = depth;
      rejected = true;
      ++rejected_;
    } else {
      const std::uint64_t id = next_job_id_++;
      // Durability before acknowledgement: the A line is flushed to the
      // journal before the accept frame can reach the client, so every
      // accepted job survives any later crash.  A job whose A line did not
      // land is never acknowledged: the connection just closes, and a
      // resilient client resubmits.
      if (!config_.journal_path.empty() &&
          !journal_.append(accepted_payload(id, request))) {
        unjournaled = true;
        ++rejected_;
      } else {
        if (!config_.journal_path.empty()) ++journal_depth_;
        (void)enqueue_locked(id, request, fd);
      }
    }
  }
  if (unjournaled) {
    log::error("serve: cannot journal an admission to " +
               config_.journal_path + "; job not accepted");
    return false;  // closed without a reply
  }
  if (rejected) {
    (void)send_all(fd, encode_rejected(rejection));
    return false;
  }
  work_cv_.notify_one();
  return true;
}

void server::runner_loop() {
  for (;;) {
    pending_job job;
    {
      std::unique_lock<std::mutex> lock(state_mutex_);
      work_cv_.wait(lock, [this] {
        return draining_ || !interactive_.empty() || !batch_.empty();
      });
      if (interactive_.empty() && batch_.empty()) {
        if (draining_) return;
        continue;
      }
      auto& queue = interactive_.empty() ? batch_ : interactive_;
      job = std::move(queue.front());
      queue.pop_front();
      ++in_flight_;
    }
    execute_job(std::move(job));
    {
      const std::lock_guard<std::mutex> lock(state_mutex_);
      --in_flight_;
    }
  }
}

void server::execute_job(pending_job job) {
  const log::scoped_tag tag("job " + std::to_string(job.id));

  // A deadline that lapsed while the job sat in the queue maps to the Hang
  // taxonomy without spending any pool budget on it.
  if (job.request.deadline_ms > 0) {
    const double waited = ms_between(job.admitted, clock::now());
    if (waited >= static_cast<double>(job.request.deadline_ms)) {
      job_failed f;
      f.job_id = job.id;
      f.failure = fault::outcome::hang;
      f.message = "deadline_expired_in_queue";
      job.sink->emit(encode_failed(f));
      {
        const std::lock_guard<std::mutex> lock(state_mutex_);
        ++failed_;
      }
      settle(job, "hang", waited, /*completed=*/false, fault::outcome::hang,
             0);
      return;
    }
  }

  // Lease worker slots from the shared budget: a fair share of the budget
  // across the runner fleet, clamped by the client's own thread cap.  The
  // lease (not hardware concurrency) sizes every pool this job runs on.
  unsigned want = std::max(
      1u, arbiter_.budget() / static_cast<unsigned>(config_.runners));
  if (job.request.max_threads > 0) {
    want = std::min(want, job.request.max_threads);
  }
  core::pool_lease lease = arbiter_.acquire(1, want);

  if (config_.isolate) {
    run_isolated(job, lease);
  } else {
    run_in_process(job, lease);
  }
}

void server::run_in_process(const pending_job& job,
                            core::pool_lease& lease) {
  const auto t0 = clock::now();
  try {
    mini_streamer stream(
        [sink = job.sink](const std::string& frame_bytes) {
          sink->emit(frame_bytes);
        },
        job.id);
    const app::summary_result result =
        run_job_pipeline(job.request, lease.pool(), std::ref(stream));
    const auto wall_us = static_cast<std::uint64_t>(
        ms_between(t0, clock::now()) * 1000.0);
    // Account the job before the final send: the moment the client reads
    // the complete frame, a follow-up stats request must already see it.
    const double total_ms = ms_between(job.admitted, clock::now());
    latency_.record(total_ms);
    service_latency_.record(ms_between(t0, clock::now()));
    {
      const std::lock_guard<std::mutex> lock(state_mutex_);
      ++completed_;
    }
    const job_complete done = make_complete(job.id, result, wall_us);
    job.sink->emit(encode_complete(done));
    settle(job, "completed", total_ms, /*completed=*/true,
           fault::outcome::masked, done.panorama_hash);
  } catch (const std::exception& e) {
    job_failed f;
    f.job_id = job.id;
    f.failure = outcome_of(e);
    f.message = e.what();
    job.sink->emit(encode_failed(f));
    {
      const std::lock_guard<std::mutex> lock(state_mutex_);
      ++failed_;
    }
    settle(job, fault::outcome_name(f.failure),
           ms_between(job.admitted, clock::now()), /*completed=*/false,
           f.failure, 0);
    log::warn(std::string("serve: job failed in-process: ") +
                    e.what());
  }
}

void server::run_isolated(const pending_job& job, core::pool_lease& lease) {
  // The forked child runs the pipeline on its own pool of the leased width
  // (the parent holds the lease while the child lives, so the budget still
  // bounds live workers host-wide) and streams result frames up the pipe;
  // the parent validates them through a frame_decoder and relays them to
  // the client.  The remaining deadline becomes the fork watchdog.
  double timeout_s = config_.job_timeout_s;
  if (job.request.deadline_ms > 0) {
    const double remaining_s =
        (static_cast<double>(job.request.deadline_ms) -
         ms_between(job.admitted, clock::now())) /
        1000.0;
    timeout_s = timeout_s > 0 ? std::min(timeout_s, remaining_s)
                              : remaining_s;
  }

  const job_request request = job.request;
  const std::uint64_t id = job.id;
  const unsigned width = std::max(1u, lease.width());

  frame_decoder decoder;
  bool saw_complete = false;
  bool saw_failed = false;
  std::uint64_t delivered_hash = 0;
  const auto t0 = clock::now();

  const supervise::fork_ending ending = supervise::run_forked(
      [request, id, width](int wfd) {
        try {
          core::thread_pool pool(width);
          mini_streamer stream(
              [wfd](const std::string& frame_bytes) {
                supervise::child_write(wfd, frame_bytes.data(),
                                       frame_bytes.size());
              },
              id);
          const auto child_t0 = clock::now();
          const app::summary_result result =
              run_job_pipeline(request, pool, std::ref(stream));
          const auto wall_us = static_cast<std::uint64_t>(
              ms_between(child_t0, clock::now()) * 1000.0);
          const std::string done =
              encode_complete(make_complete(id, result, wall_us));
          supervise::child_write(wfd, done.data(), done.size());
          _exit(0);
        } catch (const std::exception& e) {
          job_failed f;
          f.job_id = id;
          f.failure = outcome_of(e);
          f.message = e.what();
          const std::string frame_bytes = encode_failed(f);
          supervise::child_write(wfd, frame_bytes.data(),
                                 frame_bytes.size());
          _exit(3);
        } catch (...) {
          _exit(3);
        }
      },
      timeout_s,
      [&](const char* data, std::size_t size) {
        decoder.feed(data, size);
        while (const auto f = decoder.next()) {
          if (f->type == static_cast<std::uint16_t>(msg_type::complete)) {
            saw_complete = true;
            if (const auto done = parse_complete(f->payload)) {
              delivered_hash = done->panorama_hash;
            }
            // Account before relaying: once the client reads this frame, a
            // follow-up stats request must already see the job completed.
            latency_.record(ms_between(job.admitted, clock::now()));
            service_latency_.record(ms_between(t0, clock::now()));
            const std::lock_guard<std::mutex> lock(state_mutex_);
            ++completed_;
          }
          if (f->type == static_cast<std::uint16_t>(msg_type::failed)) {
            saw_failed = true;
          }
          job.sink->emit(encode_frame(f->type, f->payload));
        }
      });

  const double total_ms = ms_between(job.admitted, clock::now());
  if (!saw_complete) {
    // The child never delivered a result: classify its death and tell the
    // client ourselves (unless the child already reported its own failure).
    job_failed f;
    f.job_id = job.id;
    f.failure = ending.outcome();
    f.message =
        ending.how == supervise::fork_ending::kind::timeout ? "watchdog_timeout"
        : ending.how == supervise::fork_ending::kind::signal
            ? "worker_signal_" + std::to_string(ending.sig)
            : "worker_failed";
    if (!saw_failed) job.sink->emit(encode_failed(f));
    {
      const std::lock_guard<std::mutex> lock(state_mutex_);
      ++failed_;
    }
    settle(job, fault::outcome_name(f.failure), total_ms,
           /*completed=*/false, f.failure, 0);
    return;
  }
  settle(job, "completed", total_ms, /*completed=*/true,
         fault::outcome::masked, delivered_hash);
}

void server::settle(const pending_job& job, const char* outcome,
                    double wall_ms, bool completed, fault::outcome failure,
                    std::uint64_t panorama_hash) {
  // Durable settlement first: once the D line is flushed, a crash between
  // here and the client's read replays nothing (the journal knows the job
  // is done), and the buffered sink still serves the result to a
  // resubmitting client.
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    if (!config_.journal_path.empty()) {
      if (!journal_.append(
              settled_payload(job.id, completed, failure, panorama_hash))) {
        log::error("serve: cannot journal the settlement of job " +
                   std::to_string(job.id) + " to " + config_.journal_path +
                   "; a restart would run it again");
      }
      if (journal_depth_ > 0) --journal_depth_;
    }
  }
  job.sink->finalize();
  // Keep the settled key resolvable for a bounded window so a duplicate
  // submit replays the buffered stream instead of re-executing; evict the
  // oldest settled keys beyond the cap (an evicted duplicate re-executes,
  // which determinism makes byte-identical anyway).
  if (!job.request.client_key.empty()) {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    cache_order_.push_back(job.request.client_key);
    while (cache_order_.size() > kCompletedCacheCap) {
      const auto it = by_key_.find(cache_order_.front());
      cache_order_.pop_front();
      if (it != by_key_.end()) {
        bool done;
        {
          const std::lock_guard<std::mutex> sink_lock(it->second->mutex);
          done = it->second->settled;
        }
        // Only settled sinks leave the index: a live key under re-use
        // (evicted then resubmitted) keeps deduping until it settles.
        if (done) by_key_.erase(it);
      }
    }
  }
  const std::lock_guard<std::mutex> lock(report_mutex_);
  if (!report_.active()) return;
  char wall[32];
  std::snprintf(wall, sizeof(wall), "%.3f", wall_ms);
  report_.append(std::to_string(job.id) + ',' +
                 video::input_name(job.request.input) + ',' +
                 app::algorithm_name(job.request.alg) + ',' +
                 std::to_string(job.request.frames) + ',' +
                 resil::hardening_level_name(job.request.hardening) + ',' +
                 priority_name(job.request.priority) + ',' + outcome + ',' +
                 wall);
}

stats_reply server::stats() const {
  stats_reply s;
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    s.queue_depth = interactive_.size() + batch_.size();
    s.in_flight = in_flight_;
    s.completed = completed_;
    s.rejected = rejected_;
    s.failed = failed_;
    s.draining = draining_;
    s.restarts = config_.restarts;
    s.journal_depth = journal_depth_;
    s.replayed = replayed_;
  }
  s.pool_budget = arbiter_.budget();
  s.pool_in_use = arbiter_.in_use();
  s.pool_peak_in_use = arbiter_.peak_in_use();
  s.latency = latency_.snapshot();
  return s;
}

}  // namespace vs::serve
