#include "fault/campaign.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "core/error.h"
#include "core/log.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "resil/runtime.h"
#include "rt/frame_log.h"

namespace vs::fault {

namespace {

// In-scope fault-site count for the campaign's register class.  Targets
// are drawn over executed hooks (the values injections can actually
// strike), not over the bulk-accounted cost model ops.
std::uint64_t class_ops(const rt::counters& c, const campaign_config& cfg) {
  if (!cfg.scoped) return c.hooks(cfg.cls);
  std::uint64_t sites = c.hooks(cfg.cls, cfg.scope);
  if (cfg.include_remap_scope && cfg.scope != rt::fn::remap) {
    sites += c.hooks(cfg.cls, rt::fn::remap);
  }
  return sites;
}

// Parallel workers of a campaign: config.threads, or hardware concurrency.
unsigned campaign_threads(const campaign_config& config) {
  const unsigned n = config.threads > 0
                         ? static_cast<unsigned>(config.threads)
                         : std::thread::hardware_concurrency();
  return std::clamp(n, 1u, 64u);
}

/// What run_campaign keeps of its golden run for the experiments it runs
/// itself: the frame-boundary checkpoints (rt/frame_log.h), plus what an
/// experiment that rejoins them needs to classify itself without running
/// on.  Lives for one run_campaign call only.
struct golden_log {
  rt::frame_log frames;
  std::uint64_t steps = 0;    ///< the whole golden run's
  resil::run_report report;   ///< the golden run's final recovery report
};

campaign_setup measure(const workload& work, const campaign_config& config,
                       golden_log* log) {
  campaign_setup setup;
  {
    // The golden run is a counting session: it prefetches each frame's
    // acquisition and extraction (pipeline/executor.h) on a pool as wide
    // as the campaign, whose experiment threads are idle until it ends.
    // Its counts are those of the inline run at any width.
    core::thread_pool pool(campaign_threads(config));
    const core::pool_scope on_campaign_width(pool);
    rt::session session(log != nullptr ? &log->frames : nullptr);
    resil::clear_last_run_report();
    setup.golden = work();
    setup.golden_counters = session.stats();
    setup.total_ops = class_ops(setup.golden_counters, config);
    const double budget = static_cast<double>(setup.golden_counters.steps()) *
                          config.step_budget_factor;
    setup.step_budget =
        budget < 1e18 ? static_cast<std::uint64_t>(budget) : ~0ULL;
  }
  if (setup.total_ops == 0) {
    throw invalid_argument(
        "campaign: workload executed no dynamic ops of the targeted class");
  }
  if (log != nullptr) {
    log->steps = setup.golden_counters.steps();
    log->report = resil::last_run_report();
  }
  return setup;
}

// Recovery-aware reclassification (hardened workloads only; the report is
// all-zero otherwise).  A fired fault whose run shows any detection
// evidence is no longer silent: golden-equal output means the containment
// machinery recovered it, anything else means it degraded gracefully but
// flagged the damage.
void fold_recovery(injection_record& record,
                   const resil::run_report& recovery) {
  record.detections =
      recovery.faults_detected() + (recovery.output_flagged() ? 1u : 0u);
  record.replica_divergences = recovery.replica_divergences;
  record.retries = recovery.retries;
  record.frames_degraded = recovery.frames_degraded;
  if (record.fired && recovery.any_detection()) {
    record.result = record.result == outcome::masked
                        ? outcome::detected_recovered
                        : outcome::detected_degraded;
  }
}

// One live experiment.  With a golden log it starts at the boundary before
// its target and may stop at a boundary where it rejoins the golden run;
// the record is the one a run from the start would produce.
injection_record run_live(const workload& work, const rt::fault_plan& plan,
                          std::uint64_t step_budget,
                          const img::image_u8& golden,
                          img::image_u8* faulty_out, const golden_log* log) {
  injection_record record;
  record.plan = plan;
  record.register_live = true;
  resil::clear_last_run_report();
  {
    rt::session session(plan, step_budget,
                        log != nullptr ? &log->frames : nullptr);
    try {
      img::image_u8 output = work();
      record.fired = session.fired();
      if (output == golden) {
        record.result = outcome::masked;
      } else {
        record.result = outcome::sdc;
        if (faulty_out != nullptr) *faulty_out = std::move(output);
      }
      fold_recovery(record, resil::last_run_report());
    } catch (const rt::rejoined& r) {
      // The state equals the golden run's at a boundary, so the rest of
      // the run is the golden run's: its output, its final report, and
      // its remaining steps on top of the ones spent so far.
      record.fired = true;
      const std::uint64_t remaining =
          log->steps - log->frames.boundaries[r.boundary].steps;
      if (rt::tls.steps + remaining >= step_budget) {
        record.result = outcome::hang;
      } else {
        record.result = outcome::masked;
        fold_recovery(record, log->report);
      }
    } catch (const detected_error&) {
      // A detection escaped every recovery boundary (possible only for
      // faults striking outside the per-frame sandbox).  Detected, not
      // recovered: the run produced no output.
      record.fired = true;
      record.result = outcome::detected_degraded;
      record.detections =
          std::max<std::uint32_t>(1, resil::last_run_report().faults_detected());
      record.replica_divergences =
          resil::last_run_report().replica_divergences;
    } catch (const crash_error& e) {
      record.fired = true;
      record.result = e.kind() == crash_kind::segfault
                          ? outcome::crash_segfault
                          : outcome::crash_abort;
    } catch (const hang_error&) {
      record.fired = true;
      record.result = outcome::hang;
    } catch (const invalid_argument&) {
      // A library precondition tripped.  After a fired injection that is
      // corrupted state hitting an internal assert — an abort.  Without
      // one it is a genuine bug and must not be swallowed.
      if (!rt::tls.fired) throw;
      record.fired = true;
      record.result = outcome::crash_abort;
    } catch (const std::logic_error&) {
      // A guarded access failed without an injected fault: that is a
      // library bug, not a fault outcome — never swallow it.
      throw;
    } catch (const std::exception&) {
      // Any other exception escaping the workload after an injection is
      // the application aborting on a violated internal invariant.
      record.fired = true;
      record.result = outcome::crash_abort;
    }
    // Where the flip landed (valid when record.fired): read before the
    // session restores the previous thread state.
    record.fired_scope = rt::tls.fired_scope;
    record.fired_kind = rt::tls.fired_kind;
  }
  return record;
}

// Plans experiment `index` and runs it (from the start without a log).
injection_record run_planned(const workload& work,
                             const campaign_config& config,
                             const campaign_setup& setup, std::size_t index,
                             img::image_u8* faulty_out,
                             const golden_log* log) {
  const experiment_plan p = plan_experiment(config, setup.total_ops, index);
  if (!p.register_live) {
    // Dead-register strike: architecturally masked without execution.
    injection_record record;
    record.plan = p.plan;
    record.register_live = false;
    record.result = outcome::masked;
    return record;
  }
  return run_live(work, p.plan, setup.step_budget, setup.golden, faulty_out,
                  log);
}

}  // namespace

injection_record run_one_injection(const workload& work,
                                   const rt::fault_plan& plan,
                                   std::uint64_t step_budget,
                                   const img::image_u8& golden,
                                   img::image_u8* faulty_out) {
  return run_live(work, plan, step_budget, golden, faulty_out, nullptr);
}

campaign_setup measure_golden(const workload& work,
                              const campaign_config& config) {
  return measure(work, config, nullptr);
}

experiment_plan plan_experiment(const campaign_config& config,
                                std::uint64_t total_ops, std::size_t index) {
  std::uint64_t stream =
      config.seed + 0x1000 * static_cast<std::uint64_t>(index);
  rng gen(splitmix64(stream));
  experiment_plan p;
  p.plan.cls = config.cls;
  p.plan.target = gen.uniform(total_ops);
  p.plan.bit = static_cast<std::uint32_t>(gen.uniform(64));
  p.plan.reg_id = static_cast<std::uint32_t>(
      gen.uniform(static_cast<std::uint64_t>(config.liveness.register_count)));
  p.plan.scoped = config.scoped;
  p.plan.scope = config.scope;
  p.plan.scope_b = config.scoped && config.include_remap_scope
                       ? rt::fn::remap
                       : config.scope;
  p.register_live = gen.chance(config.liveness.live_probability(config.cls));
  return p;
}

injection_record run_experiment(const workload& work,
                                const campaign_config& config,
                                const campaign_setup& setup, std::size_t index,
                                img::image_u8* faulty_out) {
  return run_planned(work, config, setup, index, faulty_out, nullptr);
}

campaign_result run_campaign(const workload& work,
                             const campaign_config& config) {
  if (config.injections < 0) throw invalid_argument("campaign: injections < 0");

  campaign_result result;

  // --- golden run, with its frame-boundary checkpoints -------------------
  golden_log log;
  campaign_setup setup = measure(work, config, &log);
  result.golden_counters = setup.golden_counters;

  // --- resolve the experiment range --------------------------------------
  const auto n = static_cast<std::size_t>(config.injections);
  const std::size_t first = std::min(config.range_first, n);
  const std::size_t last =
      config.range_count == campaign_config::npos ||
              config.range_count > n - first
          ? n
          : first + config.range_count;
  const std::size_t m = last - first;
  std::vector<injection_record> records(m);
  std::vector<img::image_u8> faulty(config.keep_sdc_outputs ? m : 0);

  // --- execute (parallel, deterministic results) -------------------------
  // Plans are derived per experiment inside the worker (plan_experiment is a
  // pure function of index), so order and thread count never matter.
  std::atomic<std::size_t> cursor{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1);
      if (i >= m) return;
      records[i] = run_planned(
          work, config, setup, first + i,
          config.keep_sdc_outputs ? &faulty[i] : nullptr, &log);
    }
  };

  const unsigned thread_count = campaign_threads(config);
  if (thread_count <= 1 || m < 2) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(thread_count);
    for (unsigned t = 0; t < thread_count; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  // --- aggregate ----------------------------------------------------------
  result.golden = std::move(setup.golden);
  for (std::size_t i = 0; i < m; ++i) {
    result.rates.add(records[i].result);
    if (config.keep_sdc_outputs && records[i].result == outcome::sdc) {
      result.sdc_outputs.emplace_back(i, std::move(faulty[i]));
    }
  }
  result.records = std::move(records);
  log::info("campaign done: ", result.rates.to_string());
  return result;
}

std::vector<outcome_rates> campaign_result::convergence(
    const std::vector<std::size_t>& checkpoints) const {
  std::vector<outcome_rates> curves;
  curves.reserve(checkpoints.size());
  outcome_rates running;
  std::size_t next = 0;
  for (std::size_t count : checkpoints) {
    while (next < records.size() && next < count) {
      running.add(records[next].result);
      ++next;
    }
    curves.push_back(running);
  }
  return curves;
}

}  // namespace vs::fault
