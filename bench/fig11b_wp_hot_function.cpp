// Fig 11b reproduction: hot-function study — end-to-end VS vs the
// stand-alone WP toy benchmark.
//
// Injections are restricted to dynamic GPR ops *inside* warpPerspective /
// remapBilinear in both setups.  Paper shape: within the full VS workflow
// the same injections mask more and SDC less than in stand-alone WP,
// because downstream computation (later frames stitched over the corrupted
// region) masks corruption the toy benchmark exposes — the compositional
// effect that makes hot-kernel studies unrepresentative.

#include <cstdio>

#include "app/wp.h"
#include "common.h"

int main(int argc, char** argv) {
  using namespace vs;
  auto opt = benchutil::parse_options(argc, argv);
  const int fault_frames = benchutil::campaign_frames(opt);

  benchutil::heading(
      "Fig 11b: injections confined to warpPerspective/remapBilinear" +
      benchutil::clip_note(fault_frames));
  std::printf("%-16s %8s %8s %8s %8s\n", "workload", "mask", "crash", "sdc",
              "hang");

  fault::campaign_config campaign;
  campaign.cls = rt::reg_class::gpr;
  campaign.injections = opt.injections;
  campaign.seed = opt.seed;
  campaign.threads = opt.threads;
  campaign.scoped = true;
  campaign.scope = rt::fn::warp;
  campaign.include_remap_scope = true;

  // Full VS application, Input 1 (the paper's hot-function study input).
  {
    const auto source = video::make_input(video::input_id::input1,
                                          fault_frames);
    const auto config = benchutil::variant_config(app::algorithm::vs);
    const auto result = fault::run_campaign(
        benchutil::vs_workload(source, config), campaign);
    const auto& r = result.rates;
    std::printf("%-16s %8s %8s %8s %8s\n", "VS (end-to-end)",
                benchutil::pct(r.rate(fault::outcome::masked)).c_str(),
                benchutil::pct(r.crash_rate()).c_str(),
                benchutil::pct(r.rate(fault::outcome::sdc)).c_str(),
                benchutil::pct(r.rate(fault::outcome::hang)).c_str());
  }

  // Stand-alone WP: one frame + a representative transform; the workflow
  // ends at the hot function's output.
  {
    const auto source = video::make_input(video::input_id::input1,
                                          fault_frames);
    const img::image_u8 frame = source->frame(0);
    const geo::mat3 transform = app::wp_default_transform();
    fault::workload wp = [frame, transform] {
      return app::run_wp(frame, transform);
    };
    const auto result = fault::run_campaign(wp, campaign);
    const auto& r = result.rates;
    std::printf("%-16s %8s %8s %8s %8s\n", "WP (stand-alone)",
                benchutil::pct(r.rate(fault::outcome::masked)).c_str(),
                benchutil::pct(r.crash_rate()).c_str(),
                benchutil::pct(r.rate(fault::outcome::sdc)).c_str(),
                benchutil::pct(r.rate(fault::outcome::hang)).c_str());
  }

  std::printf(
      "\npaper reference: stand-alone WP shows markedly higher SDC and lower\n"
      "Mask than the same functions inside VS (compositional masking).\n");
  return 0;
}
