// Fig 11a reproduction: resiliency of the approximate VS algorithms.
//
// 1000 GPR injections per variant per input.  Paper shape: Crash / Mask /
// Hang rates of the approximations track the baseline closely; on Input 1
// the SDC rate rises from ~1% (VS) to ~3% (VS_RFD) and ~2.5% (VS_KDS) —
// redundancy removed by the approximation stops masking corrupted pixels.
// (FPR injections stay > 99.5% masked for every variant and are omitted,
// as in the paper.)

#include <cstdio>

#include "common.h"

int main(int argc, char** argv) {
  using namespace vs;
  auto opt = benchutil::parse_options(argc, argv);
  const int fault_frames = benchutil::campaign_frames(opt);

  benchutil::heading(
      "Fig 11a: GPR resiliency profile, baseline vs approximations" +
      benchutil::clip_note(fault_frames));
  std::printf("%-8s %-8s %8s %8s %8s %8s\n", "input", "variant", "mask",
              "crash", "sdc", "hang");

  for (const auto input : benchutil::all_inputs()) {
    const auto source = video::make_input(input, fault_frames);
    for (const auto alg : benchutil::all_variants()) {
      const auto config = benchutil::variant_config(alg);

      fault::campaign_config campaign;
      campaign.cls = rt::reg_class::gpr;
      campaign.injections = opt.injections;
      campaign.seed = opt.seed;
      campaign.threads = opt.threads;

      const auto result = fault::run_campaign(
          benchutil::vs_workload(source, config), campaign);
      const auto& r = result.rates;
      std::printf("%-8s %-8s %8s %8s %8s %8s\n", video::input_name(input),
                  app::algorithm_name(alg),
                  benchutil::pct(r.rate(fault::outcome::masked)).c_str(),
                  benchutil::pct(r.crash_rate()).c_str(),
                  benchutil::pct(r.rate(fault::outcome::sdc)).c_str(),
                  benchutil::pct(r.rate(fault::outcome::hang)).c_str());
    }
    std::printf("\n");
  }

  std::printf(
      "paper reference: Crash/Mask/Hang track the baseline; on Input 1 the\n"
      "SDC rate rises from ~1%% (VS) to ~3%% (RFD) and ~2.5%% (KDS).\n");
  return 0;
}
