// Fig 10 reproduction: resiliency profile of the baseline VS algorithm.
//
// 1000 single-bit injections in GPRs and 1000 in FPRs, per input.
// Paper shape: GPR — Crash ~40% (of which ~92% segfaults / ~8% aborts),
// small SDC (~1%), small Hang, rest Masked.  FPR — >= 99.7% Masked.

#include <cstdio>

#include "common.h"

int main(int argc, char** argv) {
  using namespace vs;
  auto opt = benchutil::parse_options(argc, argv);
  const int fault_frames = benchutil::campaign_frames(opt);

  benchutil::heading("Fig 10: resiliency profile of baseline VS (per input)" +
                     benchutil::clip_note(fault_frames));
  std::printf("%-8s %-5s %8s %8s %8s %8s %10s %9s\n", "input", "regs", "mask",
              "crash", "sdc", "hang", "segfault%", "abort%");

  for (const auto input : benchutil::all_inputs()) {
    const auto source = video::make_input(input, fault_frames);
    const auto config = benchutil::variant_config(app::algorithm::vs);
    const auto work = benchutil::vs_workload(source, config);

    for (const auto cls : {rt::reg_class::gpr, rt::reg_class::fpr}) {
      fault::campaign_config campaign;
      campaign.cls = cls;
      campaign.injections = opt.injections;
      campaign.seed = opt.seed + (cls == rt::reg_class::fpr ? 101 : 0);
      campaign.threads = opt.threads;

      const auto result = fault::run_campaign(work, campaign);
      const auto& r = result.rates;
      const double crashes =
          static_cast<double>(r.crash_segfault + r.crash_abort);
      std::printf("%-8s %-5s %8s %8s %8s %8s %9.1f%% %8.1f%%\n",
                  video::input_name(input),
                  cls == rt::reg_class::gpr ? "GPR" : "FPR",
                  benchutil::pct(r.rate(fault::outcome::masked)).c_str(),
                  benchutil::pct(r.crash_rate()).c_str(),
                  benchutil::pct(r.rate(fault::outcome::sdc)).c_str(),
                  benchutil::pct(r.rate(fault::outcome::hang)).c_str(),
                  crashes > 0 ? 100.0 * r.crash_segfault / crashes : 0.0,
                  crashes > 0 ? 100.0 * r.crash_abort / crashes : 0.0);
    }
  }

  std::printf(
      "\npaper reference: GPR crash ~40%% (92%% segfault / 8%% abort),\n"
      "SDC ~1%%, small hang rate; FPR masked >= 99.7%%.\n");
  return 0;
}
