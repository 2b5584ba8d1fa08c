#include "supervise/supervisor.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>

#include "core/error.h"
#include "core/log.h"
#include "supervise/fork_runner.h"
#include "supervise/journal.h"

namespace vs::supervise {

namespace {

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

// Appends one journal line or throws: a campaign that goes on while its
// journal silently loses records would promise a resume it cannot keep.
// Caller holds ctx.mutex (or runs before the workers start).
void journal_line(campaign_context& ctx, std::string_view payload) {
  if (!ctx.writer.append(payload)) {
    throw io_error("supervisor: cannot append to journal " +
                   ctx.config.journal_path);
  }
}

void commit_record(campaign_context& ctx, std::size_t index,
                   const fault::injection_record& record) {
  const std::lock_guard<std::mutex> lock(ctx.mutex);
  if (ctx.state.records.emplace(index, record).second) {
    journal_line(ctx, fault::wire::record_payload(index, record));
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
        journal_line(ctx, checkpoint_payload(shard));
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
        journal_line(ctx, quarantine_payload(shard));
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
      journal_line(ctx, header_payload(header));
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

}  // namespace vs::supervise
