// Ablations over the reproduction's design choices (see DESIGN.md §5):
//
//  A. Register-liveness model: the GPR live fraction is the one calibrated
//     constant in the fault model; sweep it to show how outcome rates move
//     (and that the paper's profile pins it near the default).
//  B. Protection cost vs ED tolerance: the Section VI-D analysis — crashes
//     are cheap to detect, benign SDCs can be tolerated; how much needs
//     real protection as the tolerance grows.
//  C. Relyzer-style site pruning: how much of a blind campaign lands in
//     outcome-pure site classes that a smarter campaign could predict.
//  D. Symptom-based SDC detection (SWAT-style): how many SDCs cheap
//     golden-free output checks catch, and how the paper's conservative
//     metric relates to PSNR/SSIM on the approximate goldens.

#include <cstdio>

#include "common.h"
#include "fault/analysis.h"
#include "fault/detectors.h"
#include "quality/metric.h"
#include "quality/metrics_extra.h"

int main(int argc, char** argv) {
  using namespace vs;
  auto opt = benchutil::parse_options(argc, argv);
  const int fault_frames = benchutil::campaign_frames(opt);
  const int injections = opt.quick ? 150 : std::min(opt.injections, 600);

  const auto source = video::make_input(video::input_id::input2, fault_frames);
  const auto config = benchutil::variant_config(app::algorithm::vs);
  const auto work = benchutil::vs_workload(source, config);

  // --- A: liveness sweep --------------------------------------------------
  benchutil::heading("Ablation A: GPR live-fraction sweep (baseline VS)" +
                     benchutil::clip_note(fault_frames));
  std::printf("%10s %8s %8s %8s\n", "gpr_live", "mask", "crash", "sdc");
  for (const double live : {0.25, 0.55, 0.80, 1.0}) {
    fault::campaign_config campaign;
    campaign.injections = injections;
    campaign.seed = opt.seed;
    campaign.liveness.gpr_live = live;
    const auto result = fault::run_campaign(work, campaign);
    std::printf("%10.2f %8s %8s %8s\n", live,
                benchutil::pct(result.rates.rate(fault::outcome::masked)).c_str(),
                benchutil::pct(result.rates.crash_rate()).c_str(),
                benchutil::pct(result.rates.rate(fault::outcome::sdc)).c_str());
  }
  std::printf("(default 0.55 reproduces the paper's ~40%% crash / ~57%% mask)\n");

  // --- B: protection cost vs ED tolerance ---------------------------------
  benchutil::heading("Ablation B: protection cost vs ED tolerance");
  {
    fault::campaign_config campaign;
    campaign.injections = injections * 2;
    campaign.seed = opt.seed;
    campaign.keep_sdc_outputs = true;
    const auto result = fault::run_campaign(work, campaign);

    std::vector<std::optional<int>> eds;
    eds.reserve(result.sdc_outputs.size());
    for (const auto& [index, faulty] : result.sdc_outputs) {
      (void)index;
      const auto q = quality::compare_images(result.golden, faulty);
      eds.push_back(q.ed);
    }

    std::printf("%12s %10s %12s %10s %14s\n", "tolerance", "masked",
                "detectable", "tolerable", "must-protect");
    for (const int tolerance : {0, 2, 5, 10, 20, 50, 100}) {
      const auto report =
          fault::analyze_protection(result.records, eds, tolerance);
      std::printf("%12d %10s %12s %10s %14s\n", tolerance,
                  benchutil::pct(report.masked_fraction).c_str(),
                  benchutil::pct(report.detectable_fraction).c_str(),
                  benchutil::pct(report.tolerable_fraction).c_str(),
                  benchutil::pct(report.must_protect_fraction).c_str());
    }
    std::printf(
        "(paper, Sec VI-D: with ED<=10 tolerated, a large majority of SDC\n"
        "sites need no protection)\n");

    // --- C: pruning estimate ----------------------------------------------
    benchutil::heading("Ablation C: Relyzer-style site-class pruning");
    const auto pruning = fault::estimate_pruning(result.records);
    std::printf(
        "fired experiments: %zu; in >=95%%-pure site classes: %zu (%.1f%%)\n",
        pruning.fired_experiments, pruning.prunable_experiments,
        100.0 * pruning.prunable_fraction);
    const auto scopes = fault::scope_breakdown(result.records);
    std::printf("%-18s %6s %8s %8s %8s\n", "function", "n", "mask", "crash",
                "sdc");
    for (const auto& cls : scopes) {
      std::printf("%-18s %6zu %8s %8s %8s\n", rt::fn_name(cls.scope),
                  cls.rates.experiments,
                  benchutil::pct(cls.rates.rate(fault::outcome::masked)).c_str(),
                  benchutil::pct(cls.rates.crash_rate()).c_str(),
                  benchutil::pct(cls.rates.rate(fault::outcome::sdc)).c_str());
    }

    // --- D: symptom-based SDC detection ------------------------------------
    benchutil::heading("Ablation D: golden-free symptom detectors on SDCs");
    const auto calibration = fault::calibrate_detectors({result.golden});
    std::vector<img::image_u8> sdc_images;
    sdc_images.reserve(result.sdc_outputs.size());
    for (const auto& [index, faulty] : result.sdc_outputs) {
      (void)index;
      sdc_images.push_back(faulty);
    }
    const auto detection = fault::evaluate_detectors(sdc_images, calibration);
    std::printf(
        "SDCs %zu; detected by cheap checks %zu (%.0f%%): geometry %zu, "
        "coverage %zu, intensity %zu\n",
        detection.sdcs, detection.detected, 100.0 * detection.coverage(),
        detection.by_geometry, detection.by_coverage, detection.by_intensity);
  }

  // --- D2: metric context — paper metric vs PSNR/SSIM on approx goldens ---
  benchutil::heading(
      "Ablation D2: paper metric vs PSNR/SSIM on approximate goldens");
  {
    const auto vs_result =
        app::summarize(*source, benchutil::variant_config(app::algorithm::vs));
    std::printf("%-8s %10s %10s %8s\n", "variant", "rel_l2%", "PSNR dB",
                "SSIM");
    for (const auto alg : {app::algorithm::vs_rfd, app::algorithm::vs_kds,
                           app::algorithm::vs_sm}) {
      const auto approx =
          app::summarize(*source, benchutil::variant_config(alg));
      const int w =
          std::max(vs_result.panorama.width(), approx.panorama.width());
      const int h =
          std::max(vs_result.panorama.height(), approx.panorama.height());
      const auto g = quality::pad_to(vs_result.panorama, w, h);
      const auto f = quality::pad_to(approx.panorama, w, h);
      std::printf("%-8s %9.1f%% %10.1f %8.3f\n", app::algorithm_name(alg),
                  quality::relative_l2_norm(g, f, 128), quality::psnr(g, f),
                  quality::ssim(g, f));
    }
    std::printf(
        "(Section VII: the paper's metric is deliberately conservative —\n"
        "visually equivalent outputs can score tens of percent)\n");
  }
  return 0;
}
