// fault-campaign: the paper's injection campaign (Fig 10/11 set-up) as a
// closed loop of fault::run_campaign calls over pinned experiment ranges.
#include <atomic>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "fault/campaign.h"
#include "host.h"
#include "pins.h"
#include "workloads.h"

namespace vsbench {

namespace {

using vs::app::algorithm;
using vs::fault::outcome;
using vs::video::input_id;

constexpr int kFrames = 10;       ///< clip length of every campaign workload
constexpr int kInjections = 240;  ///< experiments per (input, variant, class)
constexpr int kSlice = 10;        ///< experiments per GPR run_campaign call
constexpr int kSlices = kInjections / kSlice;

/// One campaign of the Fig 10/11 matrix.
struct campaign_id {
  input_id input = input_id::input1;
  algorithm alg = algorithm::vs;
  vs::rt::reg_class cls = vs::rt::reg_class::gpr;
};

std::vector<campaign_id> campaign_matrix() {
  std::vector<campaign_id> ids;
  for (const input_id input : {input_id::input1, input_id::input2}) {
    for (const algorithm alg : {algorithm::vs, algorithm::vs_rfd,
                                algorithm::vs_kds, algorithm::vs_sm}) {
      for (const auto cls : {vs::rt::reg_class::gpr, vs::rt::reg_class::fpr}) {
        ids.push_back({input, alg, cls});
      }
    }
  }
  return ids;
}

std::string campaign_name(const campaign_id& id) {
  return strf("%s/%s/%s/f%d/n%d", vs::video::input_name(id.input),
              vs::app::algorithm_name(id.alg),
              id.cls == vs::rt::reg_class::gpr ? "gpr" : "fpr", kFrames,
              kInjections);
}

/// One run_campaign call: experiments [first, first + count) of a campaign.
struct unit {
  std::size_t campaign = 0;
  int first = 0;
  int count = 0;
};

std::string unit_key(const campaign_id& id, const unit& u) {
  return campaign_name(id) +
         (u.count == kInjections ? std::string("/all")
                                 : strf("/s%02d", u.first / kSlice));
}

char outcome_letter(outcome o) {
  switch (o) {
    case outcome::masked:
      return 'M';
    case outcome::sdc:
      return 'S';
    case outcome::crash_segfault:
      return 'G';
    case outcome::crash_abort:
      return 'A';
    case outcome::hang:
      return 'H';
    case outcome::detected_recovered:
      return 'R';
    case outcome::detected_degraded:
      return 'D';
  }
  return '?';
}

std::string letters(const std::vector<vs::fault::injection_record>& records) {
  std::string out;
  for (const auto& rec : records) out.push_back(outcome_letter(rec.result));
  return out;
}

vs::fault::campaign_config campaign_config_for(const campaign_id& id,
                                               unsigned threads) {
  vs::fault::campaign_config config;
  config.cls = id.cls;
  config.injections = kInjections;
  config.threads = static_cast<int>(threads);
  return config;
}

/// The workload clips and one fault::workload per campaign.
struct campaign_bench {
  std::vector<campaign_id> ids = campaign_matrix();
  std::map<input_id, std::shared_ptr<const vs::video::synthetic_video>> clips;
  std::vector<vs::fault::workload> work;  ///< parallel to ids

  void build() {
    clips.clear();
    work.clear();
    for (const input_id input : {input_id::input1, input_id::input2}) {
      clips[input] = vs::video::make_input(input, kFrames);
    }
    for (const auto& id : ids) {
      vs::app::pipeline_config config;
      config.approx.alg = id.alg;
      config.gate.request = static_cast<int>(vs::gate::level::off);
      work.push_back([clip = clips.at(id.input), config] {
        return vs::app::summarize(*clip, config).panorama;
      });
    }
  }
};

/// The loop's calls in seeded order.  GPR campaigns run in kSlice-experiment
/// slices; an FPR campaign runs whole in one call.  An FPR strike is live
/// with probability 0.02, so a whole FPR campaign executes about as many
/// experiments as one GPR slice (live with probability 0.55) and costs
/// about the same: calls share one cost mode, and p50/p90 do not flip
/// between a GPR and an FPR cluster.  Calls come in blocks that each cover
/// every campaign of one class once, so any prefix of the loop is balanced
/// over inputs and variants.
std::vector<unit> draw_units(const std::vector<campaign_id>& ids,
                             std::uint64_t seed) {
  std::vector<int> blocks(kSlices + 1);  // a GPR slice index, or the FPR call
  std::iota(blocks.begin(), blocks.end(), 0);
  seeded_shuffle(blocks, stream_seed(seed, "fault-campaign"));
  std::vector<unit> units;
  for (const int b : blocks) {
    std::vector<unit> block;
    for (std::size_t c = 0; c < ids.size(); ++c) {
      const bool gpr = ids[c].cls == vs::rt::reg_class::gpr;
      if (b < kSlices && gpr) block.push_back({c, b * kSlice, kSlice});
      if (b == kSlices && !gpr) block.push_back({c, 0, kInjections});
    }
    seeded_shuffle(block, stream_seed(seed, strf("fault-campaign/%d", b)));
    units.insert(units.end(), block.begin(), block.end());
  }
  return units;
}

/// Compares one call's outcomes with its pin, experiment by experiment.
void check_unit(const std::string& key, const std::string& got,
                const pin_table& pins, run_result& r) {
  const auto expected = pins.find(key);
  if (!expected) throw std::runtime_error("no pinned reference for " + key);
  r.attempted += got.size();
  std::uint64_t wrong = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got.size() != expected->size() || got[i] != (*expected)[i]) ++wrong;
  }
  if (wrong > 0) {
    r.failed += wrong;
    r.line("MISMATCH " + key + ": outcomes " + got + ", pinned " + *expected);
  }
}

void report_counts(const std::map<char, std::uint64_t>& counts,
                   run_result& r) {
  std::string line = "outcomes:";
  for (const auto& [letter, n] : counts) {
    line += strf(" %c=%llu", letter, static_cast<unsigned long long>(n));
  }
  r.line(line + "  (M masked, S sdc, G segfault, A abort, H hang)");
}

}  // namespace

run_result run_campaign_workload(const run_options& options) {
  run_result r;
  const pin_table pins =
      pin_table::load(pin_path(options.pins_dir, "fault-campaign"));
  campaign_bench bench;

  // Set-up a user pays: the clips, each campaign's golden run and op count.
  std::vector<double> golden_ms(bench.ids.size());
  std::vector<vs::fault::campaign_setup> setups(bench.ids.size());
  const double setup_s = median_seconds(3, [&](int) {
    bench.build();
    for (std::size_t c = 0; c < bench.ids.size(); ++c) {
      const auto start = bench_clock::now();
      setups[c] = vs::fault::measure_golden(
          bench.work[c], campaign_config_for(bench.ids[c], options.width));
      golden_ms[c] = ms_between(start, bench_clock::now());
    }
  });

  const auto units = draw_units(bench.ids, options.seed);
  const auto start_loop = bench_clock::now();
  const auto deadline =
      start_loop + std::chrono::duration<double>(options.seconds);
  std::map<char, std::uint64_t> counts;
  std::vector<double> call_ms;
  std::vector<double> experiment_ms[4];  // masked, crash, sdc, hang
  double traced_ms = 0.0;  // summed experiment spans (traced run)
  double live_frames = 0.0;
  double experiments = 0.0;  ///< classified, dead-register strikes included
  double executed = 0.0;     ///< live-register experiments: pipeline runs

  for (std::size_t u = 0; bench_clock::now() < deadline; ++u) {
    const unit& next = units[u % units.size()];
    const campaign_id& id = bench.ids[next.campaign];
    auto config = campaign_config_for(id, options.width);
    config.range_first = static_cast<std::size_t>(next.first);
    config.range_count = static_cast<std::size_t>(next.count);
    std::vector<vs::fault::injection_record> records;
    if (!options.trace) {
      const auto start = bench_clock::now();
      records = vs::fault::run_campaign(bench.work[next.campaign], config)
                    .records;
      call_ms.push_back(ms_between(start, bench_clock::now()));
    } else {
      // Traced: the campaign loop itself, experiment by experiment, on the
      // same thread count; must yield run_campaign's records.
      const auto& setup = setups[next.campaign];
      records.resize(static_cast<std::size_t>(next.count));
      std::vector<double> ms(records.size());
      std::atomic<std::size_t> cursor{0};
      const auto worker = [&] {
        for (std::size_t i; (i = cursor.fetch_add(1)) < records.size();) {
          const auto start = bench_clock::now();
          records[i] = vs::fault::run_experiment(
              bench.work[next.campaign], config, setup,
              config.range_first + i);
          ms[i] = ms_between(start, bench_clock::now());
        }
      };
      std::vector<std::thread> threads;
      for (unsigned t = 0; t < options.width; ++t) threads.emplace_back(worker);
      for (auto& t : threads) t.join();
      traced_ms += std::accumulate(ms.begin(), ms.end(), 0.0);
      for (std::size_t i = 0; i < records.size(); ++i) {
        if (!records[i].register_live) continue;
        const outcome o = records[i].result;
        const int bucket = o == outcome::masked          ? 0
                           : vs::fault::is_crash(o)      ? 1
                           : o == outcome::sdc           ? 2
                                                         : 3;
        experiment_ms[bucket].push_back(ms[i]);
      }
    }
    for (const auto& rec : records) {
      ++counts[outcome_letter(rec.result)];
      if (rec.register_live) {
        executed += 1.0;
        live_frames += kFrames;
      }
    }
    experiments += static_cast<double>(records.size());
    check_unit(unit_key(id, next), letters(records), pins, r);
  }

  const double wall_s = ms_between(start_loop, bench_clock::now()) / 1000.0;
  if (!options.trace) {
    const auto lat = summarize_latency(call_ms);
    r.add("setup_s", setup_s, "s");
    // Executed experiments: a dead-register strike is classified without
    // running anything, and a whole FPR call holds ~235 of them, so counting
    // them would make the rate depend on how many FPR calls fit in the run.
    r.add("ops_per_s", executed / wall_s, "1/s");
    r.add("frames_per_s", live_frames / wall_s, "1/s");
    r.add("call_ms_p50", lat.p50, "ms");
    r.add("call_ms_p90", lat.p90, "ms");
    r.add("peak_rss_mb", peak_rss_mb_self(), "MB");
    r.line(strf("run_campaign call (a %d-experiment GPR slice or a whole "
                "%d-experiment FPR campaign, %u threads): p50 %.3f ms  "
                "p90 %.3f ms  n=%zu  p90 %s",
                kSlice, kInjections, options.width, lat.p50, lat.p90, lat.n,
                lat.p90_valid ? "valid" : "INVALID (<10 samples beyond)"));
    r.line(strf("experiments_per_s %.3f executed (%.0f live of %.0f "
                "classified; %.3f/s counting dead-register strikes)",
                executed / wall_s, executed, experiments,
                experiments / wall_s));
  } else {
    // Worker time inside run_experiment calls; what the loop's threads
    // spent outside them is the traced loop's unexplained remainder.
    const double all_ms = traced_ms;
    r.add("fault.golden_ms", median(golden_ms), "ms");
    r.add("fault.mask_ms", median(experiment_ms[0]), "ms");
    r.add("fault.crash_ms", median(experiment_ms[1]), "ms");
    r.add("fault.sdc_ms", median(experiment_ms[2]), "ms");
    r.add("fault.hang_ms", median(experiment_ms[3]), "ms");
    r.add("replay.unexplained_share",
          1.0 - all_ms / (wall_s * 1000.0 * options.width), "ratio");
    r.add("fault.hang_time_share",
          all_ms > 0.0 ? std::accumulate(experiment_ms[3].begin(),
                                         experiment_ms[3].end(), 0.0) /
                             all_ms
                       : 0.0,
          "ratio");
    r.line(strf("live experiments timed: masked %zu, crash %zu, sdc %zu, "
                "hang %zu",
                experiment_ms[0].size(), experiment_ms[1].size(),
                experiment_ms[2].size(), experiment_ms[3].size()));
  }
  report_counts(counts, r);
  return r;
}

void pin_campaign(const run_options& options) {
  campaign_bench bench;
  bench.build();
  pin_table pins;
  for (std::size_t c = 0; c < bench.ids.size(); ++c) {
    const auto result = vs::fault::run_campaign(
        bench.work[c], campaign_config_for(bench.ids[c], options.width));
    const std::string all = letters(result.records);
    if (bench.ids[c].cls == vs::rt::reg_class::fpr) {
      pins.set(unit_key(bench.ids[c], {c, 0, kInjections}), all);
      continue;
    }
    for (int first = 0; first < kInjections; first += kSlice) {
      pins.set(unit_key(bench.ids[c], {c, first, kSlice}),
               all.substr(static_cast<std::size_t>(first), kSlice));
    }
  }
  pins.save(pin_path(options.pins_dir, "fault-campaign"),
            "fault-campaign: per-experiment outcomes of each full campaign\n"
            "(campaign seed 2018), cut into the calls the benchmark makes:\n"
            "range-restricted GPR slices, whole FPR campaigns.  M masked,\n"
            "S sdc, G segfault, A abort, H hang.\n"
            "Regenerate: python3 vsbench/run.py --pin fault-campaign");
}

}  // namespace vsbench
