#include "supervise/supervisor.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstring>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>

#include "app/pipeline.h"
#include "core/error.h"
#include "core/log.h"
#include "core/pool_budget.h"
#include "supervise/fork_runner.h"
#include "supervise/journal.h"

namespace vs::supervise {

namespace {

using clock = std::chrono::steady_clock;

// How one worker attempt ended, with everything it streamed back first.
struct attempt_result {
  enum class ending { clean, signal, timeout, failure };
  ending how = ending::failure;
  int signal = 0;                        ///< valid when how == signal
  std::vector<std::string> payloads;     ///< validated wire payloads, in order
  std::optional<std::size_t> in_flight;  ///< experiment begun but not finished
  std::string error;                     ///< worker-reported failure message
};

// Splits buffered pipe bytes into lines and folds each validated payload
// into the attempt (tracking begin/record pairing for in-flight detection).
void consume_lines(std::string& buf, attempt_result& out) {
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = buf.find('\n', start);
    if (nl == std::string::npos) break;
    const std::string_view line(buf.data() + start, nl - start);
    start = nl + 1;
    const auto payload = fault::wire::unseal(line);
    if (!payload || payload->empty()) continue;  // torn write: drop the line
    if ((*payload)[0] == 'B') {
      std::uint64_t index = 0;
      const std::string_view tail = std::string_view(*payload).substr(2);
      const auto [ptr, ec] =
          std::from_chars(tail.data(), tail.data() + tail.size(), index);
      if (ec == std::errc{} && ptr == tail.data() + tail.size()) {
        out.in_flight = static_cast<std::size_t>(index);
      }
    } else if ((*payload)[0] == 'E') {
      out.error = payload->size() > 2 ? payload->substr(2) : "worker_error";
    } else {
      if ((*payload)[0] == 'R') {
        const auto parsed = fault::wire::parse_record(*payload);
        if (parsed && out.in_flight && *out.in_flight == parsed->index) {
          out.in_flight.reset();
        }
      } else if ((*payload)[0] == 'S') {
        out.in_flight.reset();
      }
      out.payloads.push_back(*payload);
    }
  }
  buf.erase(0, start);
}

// Forks `body(write_fd)` under the shared fork runner and folds the byte
// stream it produces back into line-protocol semantics: buffered wire
// lines, in-flight tracking, exit classification.
attempt_result run_forked_attempt(const std::function<void(int)>& body,
                                  double timeout_s) {
  attempt_result out;
  std::string buf;
  const fork_ending ending = run_forked(
      body, timeout_s, [&](const char* data, std::size_t size) {
        buf.append(data, size);
        consume_lines(buf, out);
      });
  consume_lines(buf, out);
  switch (ending.how) {
    case fork_ending::kind::clean:
      out.how = attempt_result::ending::clean;
      break;
    case fork_ending::kind::signal:
      out.how = attempt_result::ending::signal;
      out.signal = ending.sig;
      break;
    case fork_ending::kind::timeout:
      out.how = attempt_result::ending::timeout;
      break;
    case fork_ending::kind::failure:
      out.how = attempt_result::ending::failure;
      break;
  }
  return out;
}

void sleep_ms(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

// ---------------------------------------------------------------------------
// Sharded campaigns
// ---------------------------------------------------------------------------

struct campaign_context {
  const fault::workload& work;
  const fault::campaign_config& campaign;
  const supervisor_config& config;
  fault::campaign_setup setup;
  std::size_t n = 0;
  std::size_t shard_size = 1;
  std::size_t shard_count = 0;

  std::mutex mutex;  // guards state, writer, stats
  journal_state state;
  journal_writer writer;
  shard_stats stats;
  std::exception_ptr first_error;
};

std::vector<std::size_t> missing_in_shard(campaign_context& ctx,
                                          std::size_t shard) {
  const std::size_t first = shard * ctx.shard_size;
  const std::size_t last = std::min(ctx.n, first + ctx.shard_size);
  std::vector<std::size_t> todo;
  const std::lock_guard<std::mutex> lock(ctx.mutex);
  for (std::size_t i = first; i < last; ++i) {
    if (ctx.state.records.find(i) == ctx.state.records.end()) {
      todo.push_back(i);
    }
  }
  return todo;
}

void commit_record(campaign_context& ctx, std::size_t index,
                   const fault::injection_record& record) {
  const std::lock_guard<std::mutex> lock(ctx.mutex);
  if (ctx.state.records.emplace(index, record).second) {
    ctx.writer.append(fault::wire::record_payload(index, record));
  }
}

attempt_result run_shard_attempt(campaign_context& ctx,
                                 const std::vector<std::size_t>& todo) {
  if (ctx.config.isolate) {
    return run_forked_attempt(
        [&](int fd) {
          try {
            for (const std::size_t index : todo) {
              child_write_line(fd, "B " + std::to_string(index));
              const fault::injection_record record = fault::run_experiment(
                  ctx.work, ctx.campaign, ctx.setup, index);
              child_write_line(fd,
                               fault::wire::record_payload(index, record));
            }
          } catch (const std::exception& e) {
            child_fail(fd, &e);
          } catch (...) {
            child_fail(fd, nullptr);
          }
        },
        ctx.config.shard_timeout_s);
  }
  // In-process lane: same protocol semantics without the fork.  Exceptions
  // become a `failure` ending (retried, then quarantined) — but a real
  // SIGSEGV or runaway loop is NOT contained here; that containment is
  // exactly what isolation buys.
  attempt_result out;
  out.how = attempt_result::ending::clean;
  for (const std::size_t index : todo) {
    out.in_flight = index;
    try {
      const fault::injection_record record =
          fault::run_experiment(ctx.work, ctx.campaign, ctx.setup, index);
      out.payloads.push_back(fault::wire::record_payload(index, record));
      out.in_flight.reset();
    } catch (const std::exception& e) {
      out.how = attempt_result::ending::failure;
      out.error = e.what();
      break;
    }
  }
  return out;
}

void process_shard(campaign_context& ctx, std::size_t shard) {
  const std::size_t first = shard * ctx.shard_size;
  const std::size_t last = std::min(ctx.n, first + ctx.shard_size);
  core::backoff_policy backoff = ctx.config.backoff;
  backoff.seed = ctx.config.backoff.seed + 0x9e3779b97f4a7c15ULL * shard;

  int consecutive_failures = 0;
  bool first_attempt = true;
  for (;;) {
    const std::vector<std::size_t> todo = missing_in_shard(ctx, shard);
    if (todo.empty()) {
      const std::lock_guard<std::mutex> lock(ctx.mutex);
      if (ctx.state.completed_shards.insert(shard).second) {
        ctx.writer.append(checkpoint_payload(shard));
      }
      return;
    }
    if (!first_attempt) {
      const std::lock_guard<std::mutex> lock(ctx.mutex);
      ++ctx.stats.retries;
    }
    first_attempt = false;

    const attempt_result attempt = run_shard_attempt(ctx, todo);

    bool progress = false;
    for (const std::string& payload : attempt.payloads) {
      const auto parsed = fault::wire::parse_record(payload);
      if (parsed && parsed->index >= first && parsed->index < last) {
        commit_record(ctx, parsed->index, parsed->record);
        progress = true;
      }
    }

    switch (attempt.how) {
      case attempt_result::ending::clean:
        break;
      case attempt_result::ending::signal:
      case attempt_result::ending::timeout: {
        const bool hung = attempt.how == attempt_result::ending::timeout;
        {
          const std::lock_guard<std::mutex> lock(ctx.mutex);
          ++(hung ? ctx.stats.worker_timeouts : ctx.stats.worker_crashes);
        }
        // The experiment the worker was inside when the OS took it down is
        // itself the classification: a real signal is a Crash the
        // in-process exception model never saw; a watchdog kill is a Hang.
        if (attempt.in_flight && *attempt.in_flight >= first &&
            *attempt.in_flight < last) {
          const fault::experiment_plan plan = fault::plan_experiment(
              ctx.campaign, ctx.setup.total_ops, *attempt.in_flight);
          fault::injection_record record;
          record.plan = plan.plan;
          record.register_live = plan.register_live;
          record.fired = true;
          record.result =
              hung ? fault::outcome::hang : classify_signal(attempt.signal);
          commit_record(ctx, *attempt.in_flight, record);
          progress = true;
        }
        break;
      }
      case attempt_result::ending::failure:
        if (!attempt.error.empty()) {
          log::warn("supervisor: shard ", shard,
                    " worker failed: ", attempt.error);
        }
        break;
    }

    if (attempt.how == attempt_result::ending::clean && progress) {
      consecutive_failures = 0;
      continue;  // next loop iteration re-checks for stragglers
    }
    consecutive_failures = progress ? 0 : consecutive_failures + 1;
    if (consecutive_failures >= std::max(1, ctx.config.max_failures)) {
      const std::lock_guard<std::mutex> lock(ctx.mutex);
      if (ctx.state.quarantined_shards.insert(shard).second) {
        ctx.writer.append(quarantine_payload(shard));
        ctx.stats.quarantined.push_back(shard);
      }
      log::warn("supervisor: quarantined shard ", shard, " after ",
                consecutive_failures, " consecutive failures");
      return;
    }
    sleep_ms(backoff.delay_ms(std::max(1, consecutive_failures)));
  }
}

}  // namespace

sharded_result run_sharded_campaign(const fault::workload& work,
                                    const fault::campaign_config& campaign,
                                    const supervisor_config& config) {
  if (campaign.injections < 0) {
    throw invalid_argument("supervisor: injections < 0");
  }
  if (campaign.range_first != 0 ||
      campaign.range_count != fault::campaign_config::npos) {
    throw invalid_argument(
        "supervisor: campaign must not be pre-range-restricted — the "
        "supervisor owns the sharding");
  }

  campaign_context ctx{work, campaign, config, {}, 0, 1, 0, {}, {}, {}, {},
                       nullptr};
  ctx.setup = fault::measure_golden(work, campaign);
  ctx.n = static_cast<std::size_t>(campaign.injections);
  const int jobs = std::max(1, config.jobs);
  ctx.shard_size =
      config.shard_size > 0
          ? config.shard_size
          : std::max<std::size_t>(
                1, (ctx.n + static_cast<std::size_t>(jobs) * 4 - 1) /
                       (static_cast<std::size_t>(jobs) * 4));

  journal_header header;
  header.workload = config.workload_label;
  header.cls = campaign.cls;
  header.injections = campaign.injections;
  header.seed = campaign.seed;
  header.total_ops = ctx.setup.total_ops;
  header.step_budget = ctx.setup.step_budget;
  header.golden_hash = fault::wire::hash_image(ctx.setup.golden);
  header.shard_size = ctx.shard_size;
  // Round-trip the label through the payload sanitizer so the identity we
  // compare on resume is the identity that was written.
  header = *parse_header(header_payload(header));

  if (!config.journal_path.empty()) {
    if (config.resume) {
      ctx.state = load_journal(config.journal_path);
      if (ctx.state.header) {
        if (!ctx.state.header->compatible(header)) {
          throw invalid_argument(
              "supervisor: journal " + config.journal_path +
              " was written by a different campaign (workload, seed, or "
              "golden output differ) — refusing to merge");
        }
        ctx.shard_size = ctx.state.header->shard_size;
        header.shard_size = ctx.shard_size;
        ctx.stats.records_recovered = ctx.state.records.size();
        if (ctx.state.skipped_lines > 0) {
          log::warn("supervisor: skipped ", ctx.state.skipped_lines,
                    " unreadable journal line(s); their experiments will be "
                    "recomputed");
        }
      } else {
        ctx.state = journal_state{};  // nothing usable: start fresh
      }
    }
    const bool fresh = !ctx.state.header;
    ctx.writer.open(config.journal_path, /*truncate=*/fresh);
    if (fresh) {
      ctx.state.header = header;
      ctx.writer.append(header_payload(header));
    }
  }

  ctx.shard_count =
      ctx.n == 0 ? 0 : (ctx.n + ctx.shard_size - 1) / ctx.shard_size;
  ctx.stats.shards_total = ctx.shard_count;

  // Shards already satisfied by the journal (checkpointed, quarantined, or
  // simply all-records-present) are never re-dispatched.
  std::vector<std::size_t> pending;
  for (std::size_t shard = 0; shard < ctx.shard_count; ++shard) {
    if (ctx.state.quarantined_shards.count(shard) > 0) {
      ctx.stats.quarantined.push_back(shard);
      continue;
    }
    if (ctx.state.completed_shards.count(shard) > 0 ||
        missing_in_shard(ctx, shard).empty()) {
      ++ctx.stats.shards_resumed;
      continue;
    }
    pending.push_back(shard);
  }

  std::atomic<std::size_t> cursor{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t k = cursor.fetch_add(1);
      if (k >= pending.size()) return;
      try {
        process_shard(ctx, pending[k]);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(ctx.mutex);
        if (!ctx.first_error) ctx.first_error = std::current_exception();
        return;
      }
    }
  };
  if (jobs <= 1 || pending.size() < 2) {
    worker();
  } else {
    std::vector<std::thread> pool;
    const std::size_t width =
        std::min<std::size_t>(static_cast<std::size_t>(jobs), pending.size());
    pool.reserve(width);
    for (std::size_t t = 0; t < width; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  if (ctx.first_error) std::rethrow_exception(ctx.first_error);

  // Merge in experiment order — the step that makes the distribution
  // bit-identical to the single-process reference at any shard count.
  sharded_result result;
  result.campaign.golden = std::move(ctx.setup.golden);
  result.campaign.golden_counters = ctx.setup.golden_counters;
  result.campaign.records.reserve(ctx.n);
  for (std::size_t i = 0; i < ctx.n; ++i) {
    const auto it = ctx.state.records.find(i);
    if (it == ctx.state.records.end()) continue;  // quarantined shard
    result.campaign.rates.add(it->second.result);
    result.campaign.records.push_back(it->second);
  }
  result.stats = std::move(ctx.stats);
  log::info("sharded campaign done: ", result.campaign.rates.to_string());
  return result;
}

// ---------------------------------------------------------------------------
// Multi-clip fleet
// ---------------------------------------------------------------------------

namespace {

struct clip_summary {
  std::uint64_t hash = 0;
  int frames_stitched = 0;
  int mini_panoramas = 0;
  double wall_ms = 0.0;
};

// Runs one clip on a pool of the leased width.  frames_in_flight is 0 so
// every live thread the clip uses is a leased slot (the lookahead's
// scheduler dispatcher would be an unbudgeted extra thread); the summary is
// byte-identical at any depth, so the clip hash is unaffected.
clip_summary summarize_clip(const clip_job& job, unsigned width) {
  const auto t0 = clock::now();
  const auto source = video::make_input(job.input, job.frames);
  app::pipeline_config config;
  config.approx.alg = job.alg;
  config.frames_in_flight = 0;
  core::thread_pool pool(std::max(1u, width));
  const core::pool_scope scope(pool);
  const app::summary_result summary = app::summarize(*source, config);
  clip_summary out;
  out.hash = fault::wire::hash_image(summary.panorama);
  out.frames_stitched = summary.stats.frames_stitched;
  out.mini_panoramas = summary.stats.mini_panoramas;
  out.wall_ms = std::chrono::duration<double, std::milli>(clock::now() - t0)
                    .count();
  return out;
}

std::string clip_payload(const clip_summary& s) {
  return "S " + std::to_string(s.hash) + ' ' +
         std::to_string(s.frames_stitched) + ' ' +
         std::to_string(s.mini_panoramas) + ' ' +
         std::to_string(static_cast<std::uint64_t>(s.wall_ms * 1000.0));
}

std::optional<clip_summary> parse_clip_payload(std::string_view payload) {
  if (payload.size() < 2 || payload[0] != 'S') return std::nullopt;
  clip_summary out;
  std::uint64_t hash = 0;
  std::uint64_t stitched = 0;
  std::uint64_t panoramas = 0;
  std::uint64_t wall_us = 0;
  const char* p = payload.data() + 2;
  const char* end = payload.data() + payload.size();
  for (std::uint64_t* field : {&hash, &stitched, &panoramas, &wall_us}) {
    while (p < end && *p == ' ') ++p;
    const auto [next, ec] = std::from_chars(p, end, *field);
    if (ec != std::errc{}) return std::nullopt;
    p = next;
  }
  out.hash = hash;
  out.frames_stitched = static_cast<int>(stitched);
  out.mini_panoramas = static_cast<int>(panoramas);
  out.wall_ms = static_cast<double>(wall_us) / 1000.0;
  return out;
}

}  // namespace

std::vector<clip_result> run_clip_fleet(const std::vector<clip_job>& jobs,
                                        const supervisor_config& config,
                                        const clip_observer& observer) {
  std::vector<clip_result> results(jobs.size());
  std::atomic<std::size_t> cursor{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::mutex observer_mutex;

  // One arbiter for the whole fleet: concurrent clips share the budget
  // instead of each sizing a pool from hardware concurrency.
  core::pool_arbiter arbiter(config.pool_budget);
  const unsigned active = static_cast<unsigned>(std::min<std::size_t>(
      static_cast<std::size_t>(std::max(1, config.jobs)), jobs.size()));
  const unsigned fair_share =
      std::max(1u, arbiter.budget() / std::max(1u, active));

  auto run_one = [&](std::size_t index) {
    const clip_job& job = jobs[index];
    clip_result& result = results[index];
    const log::scoped_tag tag("clip " + std::to_string(index));
    core::backoff_policy backoff = config.backoff;
    backoff.seed = config.backoff.seed + 0x9e3779b97f4a7c15ULL * index;

    const auto out = core::retry_with_backoff(
        backoff,
        [&](int attempt) {
          result.attempts = attempt;
          core::pool_lease lease = arbiter.acquire(1, fair_share);
          const unsigned width = lease.width();
          if (!config.isolate) {
            // Inline lane: exceptions classify as aborts; real signals and
            // hangs are uncontained (that is what isolation is for).
            try {
              const clip_summary s = summarize_clip(job, width);
              result.panorama_hash = s.hash;
              result.frames_stitched = s.frames_stitched;
              result.mini_panoramas = s.mini_panoramas;
              result.wall_ms = s.wall_ms;
              return true;
            } catch (const std::exception&) {
              result.failure = fault::outcome::crash_abort;
              return false;
            }
          }
          const attempt_result attempt_out = run_forked_attempt(
              [&](int fd) {
                try {
                  // The leased slots back the *child's* pool: the worker
                  // builds a pool of exactly the leased width (a pool
                  // object inherited from the parent has no live workers
                  // here), and the parent holds the lease until the child
                  // dies, so the budget covers the forked threads too.
                  child_write_line(fd,
                                   clip_payload(summarize_clip(job, width)));
                } catch (const std::exception& e) {
                  child_fail(fd, &e);
                } catch (...) {
                  child_fail(fd, nullptr);
                }
              },
              config.shard_timeout_s);
          for (const std::string& payload : attempt_out.payloads) {
            const auto s = parse_clip_payload(payload);
            if (s && attempt_out.how == attempt_result::ending::clean) {
              result.panorama_hash = s->hash;
              result.frames_stitched = s->frames_stitched;
              result.mini_panoramas = s->mini_panoramas;
              result.wall_ms = s->wall_ms;
              return true;
            }
          }
          switch (attempt_out.how) {
            case attempt_result::ending::timeout:
              result.failure = fault::outcome::hang;
              break;
            case attempt_result::ending::signal:
              result.failure = classify_signal(attempt_out.signal);
              break;
            default:
              result.failure = fault::outcome::crash_abort;
              break;
          }
          return false;
        },
        sleep_ms);
    result.completed = out.succeeded;
    if (result.completed) result.failure = fault::outcome::masked;
    if (observer) {
      const std::lock_guard<std::mutex> lock(observer_mutex);
      observer(index, job, result);
    }
  };

  auto worker = [&] {
    for (;;) {
      const std::size_t index = cursor.fetch_add(1);
      if (index >= jobs.size()) return;
      try {
        run_one(index);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        return;
      }
    }
  };
  const int jobs_width = std::max(1, config.jobs);
  if (jobs_width <= 1 || jobs.size() < 2) {
    worker();
  } else {
    std::vector<std::thread> pool;
    const std::size_t width = std::min<std::size_t>(
        static_cast<std::size_t>(jobs_width), jobs.size());
    pool.reserve(width);
    for (std::size_t t = 0; t < width; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

}  // namespace vs::supervise
