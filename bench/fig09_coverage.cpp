// Fig 9 reproduction: error-injection coverage.
//
//  (a) Outcome rates (Mask / Crash / SDC / Hang) as the number of injection
//      experiments grows — the paper observes the knee at ~1000 injections.
//  (b) Histogram of injections across the 32 GPRs (and across the 64 bits),
//      which should be uniform.

#include <cstdio>

#include "common.h"
#include "fault/coverage.h"

int main(int argc, char** argv) {
  using namespace vs;
  auto opt = benchutil::parse_options(argc, argv);
  const int fault_frames = benchutil::campaign_frames(opt);

  benchutil::heading("Fig 9a: outcome-rate convergence (GPR, baseline VS)" +
                     benchutil::clip_note(fault_frames));

  const auto source = video::make_input(video::input_id::input1, fault_frames);
  const auto config = benchutil::variant_config(app::algorithm::vs);

  fault::campaign_config campaign;
  campaign.cls = rt::reg_class::gpr;
  campaign.injections = opt.quick ? 300 : std::max(opt.injections, 1500);
  campaign.seed = opt.seed;
  campaign.threads = opt.threads;

  const auto result =
      fault::run_campaign(benchutil::vs_workload(source, config), campaign);

  std::vector<std::size_t> checkpoints;
  for (std::size_t k = 50; k <= static_cast<std::size_t>(campaign.injections);
       k = k < 200 ? k + 50 : (k < 1000 ? k + 200 : k + 500)) {
    checkpoints.push_back(k);
  }
  const auto curves = result.convergence(checkpoints);

  std::printf("%8s %8s %8s %8s %8s\n", "n", "mask", "crash", "sdc", "hang");
  for (std::size_t i = 0; i < curves.size(); ++i) {
    const auto& c = curves[i];
    std::printf("%8zu %8s %8s %8s %8s\n", checkpoints[i],
                benchutil::pct(c.rate(fault::outcome::masked)).c_str(),
                benchutil::pct(c.crash_rate()).c_str(),
                benchutil::pct(c.rate(fault::outcome::sdc)).c_str(),
                benchutil::pct(c.rate(fault::outcome::hang)).c_str());
  }
  std::printf("paper reference: rates stabilize at ~1000 injections.\n");

  benchutil::heading("Fig 9b: injection distribution across registers/bits");
  const auto coverage = fault::analyze_coverage(result.records, 32);
  std::printf("injections per GPR (32 registers):\n");
  for (std::size_t r = 0; r < coverage.per_register.size(); ++r) {
    std::printf("%4zu%s", coverage.per_register[r],
                (r + 1) % 8 == 0 ? "\n" : " ");
  }
  std::printf("register histogram coefficient of variation: %.3f\n",
              coverage.register_cv);
  std::printf("bit histogram coefficient of variation:      %.3f\n",
              coverage.bit_cv);
  std::printf(
      "paper reference: injections uniformly distributed over the 32 GPRs\n"
      "and the 64 bit positions (CV near the 1/sqrt(n/bins) sampling floor).\n");
  return 0;
}
