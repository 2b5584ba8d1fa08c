#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "features/fast.h"
#include "features/orb.h"
#include "gate/change.h"
#include "geometry/warp.h"
#include "image/image.h"
#include "match/matcher.h"
#include "rt/instrument.h"
#include "stitch/compositor.h"
#include "video/generator.h"

namespace vs::rt {
namespace {

TEST(Instrument, DisabledHooksPassValuesThrough) {
  ASSERT_FALSE(tls.enabled);
  EXPECT_EQ(g64(42), 42);
  EXPECT_EQ(g32(-7), -7);
  EXPECT_EQ(ctrl(1000), 1000);
  EXPECT_DOUBLE_EQ(f64(3.25), 3.25);
  EXPECT_EQ(idx(5, 10), 5u);
}

TEST(Instrument, SessionEnablesAndRestores) {
  {
    session s;
    EXPECT_TRUE(tls.enabled);
  }
  EXPECT_FALSE(tls.enabled);
}

TEST(Instrument, CountsOpsByKind) {
  session s;
  (void)g64(1);
  (void)g64(2);
  (void)f64(1.0);
  (void)idx(0, 4);
  (void)ctrl(9);
  const counters& c = s.stats();
  EXPECT_EQ(c.total(op::int_alu), 2u);
  EXPECT_EQ(c.total(op::fp_alu), 1u);
  EXPECT_EQ(c.total(op::mem), 1u);
  EXPECT_EQ(c.total(op::branch), 1u);
  EXPECT_EQ(c.steps(), 5u);
  EXPECT_EQ(c.gpr_ops(), 4u);
  EXPECT_EQ(c.fpr_ops(), 1u);
}

TEST(Instrument, HookCountsTrackFaultSites) {
  session s;
  (void)g64(1);
  (void)f64(1.0);
  (void)idx(0, 4);
  account(op::int_alu, 1000);  // bulk: no fault sites
  EXPECT_EQ(s.stats().hooks(reg_class::gpr), 2u);
  EXPECT_EQ(s.stats().hooks(reg_class::fpr), 1u);
  EXPECT_EQ(s.stats().total(op::int_alu), 1001u);
}

TEST(Instrument, ScopeAttribution) {
  session s;
  {
    scope warp_scope(fn::warp);
    (void)g64(1);
    {
      scope remap_scope(fn::remap);
      (void)g64(1);
    }
    (void)g64(1);
  }
  (void)g64(1);
  EXPECT_EQ(s.stats().gpr_ops(fn::warp), 2u);
  EXPECT_EQ(s.stats().gpr_ops(fn::remap), 1u);
  EXPECT_EQ(s.stats().gpr_ops(fn::other), 1u);
}

TEST(Instrument, InjectionFlipsPlannedBit) {
  fault_plan plan;
  plan.cls = reg_class::gpr;
  plan.target = 2;  // the third GPR op
  plan.bit = 4;
  session s(plan);
  EXPECT_EQ(g64(0), 0);
  EXPECT_EQ(g64(0), 0);
  EXPECT_EQ(g64(0), 16);  // bit 4 flipped
  EXPECT_EQ(g64(0), 0);   // exactly once
  EXPECT_TRUE(s.fired());
}

TEST(Instrument, InjectionSkipsOtherClass) {
  fault_plan plan;
  plan.cls = reg_class::fpr;
  plan.target = 0;
  plan.bit = 63;  // sign bit of the double
  session s(plan);
  EXPECT_EQ(g64(7), 7);  // GPR hook unaffected by FPR plan
  EXPECT_DOUBLE_EQ(f64(1.0), -1.0);
  EXPECT_TRUE(s.fired());
}

TEST(Instrument, G32FlipAboveBit31IsMaskedByTruncation) {
  fault_plan plan;
  plan.target = 0;
  plan.bit = 40;  // above the int's 32 bits
  session s(plan);
  EXPECT_EQ(g32(123), 123);
  EXPECT_TRUE(s.fired());  // flip applied to the register image, then dead
}

TEST(Instrument, ScopedInjectionOnlyFiresInScope) {
  fault_plan plan;
  plan.target = 0;
  plan.bit = 0;
  plan.scoped = true;
  plan.scope = fn::warp;
  plan.scope_b = fn::warp;
  session s(plan);
  EXPECT_EQ(g64(0), 0);  // out of scope: no fire, no match count
  {
    scope in(fn::warp);
    EXPECT_EQ(g64(0), 1);  // first in-scope op fires
  }
  EXPECT_TRUE(s.fired());
}

TEST(Instrument, ScopedInjectionSecondScopeAccepted) {
  fault_plan plan;
  plan.target = 0;
  plan.bit = 1;
  plan.scoped = true;
  plan.scope = fn::warp;
  plan.scope_b = fn::remap;
  session s(plan);
  {
    scope in(fn::remap);
    EXPECT_EQ(g64(0), 2);
  }
  EXPECT_TRUE(s.fired());
}

TEST(Instrument, IdxInBounds) {
  session s;
  EXPECT_EQ(idx(0, 8), 0u);
  EXPECT_EQ(idx(7, 8), 7u);
}

TEST(Instrument, IdxOutOfBoundsWithoutInjectionIsLogicError) {
  session s;
  EXPECT_THROW((void)idx(8, 8), std::logic_error);
  EXPECT_THROW((void)idx(-1, 8), std::logic_error);
}

TEST(Instrument, IdxNearMissWrapsAfterInjectionFired) {
  fault_plan plan;
  plan.target = 0;
  plan.bit = 3;  // 5 ^ 8 = 13, out of bounds but within slack
  session s(plan);
  const std::size_t at = idx(5, 8);
  EXPECT_TRUE(s.fired());
  EXPECT_LT(at, 8u);  // wrapped to a mapped (wrong) location
  EXPECT_EQ(at, 13u % 8u);
}

TEST(Instrument, IdxFarMissSegfaults) {
  fault_plan plan;
  plan.target = 0;
  plan.bit = 30;  // way beyond slack
  session s(plan);
  try {
    (void)idx(5, 8);
    FAIL() << "expected crash_error";
  } catch (const crash_error& e) {
    EXPECT_EQ(e.kind(), crash_kind::segfault);
  }
}

TEST(Instrument, IdxNegativeFarMissAborts) {
  fault_plan plan;
  plan.target = 0;
  plan.bit = 63;  // sign flip -> large negative
  session s(plan);
  try {
    (void)idx(5, 8);
    FAIL() << "expected crash_error";
  } catch (const crash_error& e) {
    EXPECT_EQ(e.kind(), crash_kind::abort);
  }
}

TEST(Instrument, AllocSizeWithinCapOk) {
  session s;
  EXPECT_EQ(alloc_size(100, 1000), 100u);
}

TEST(Instrument, AllocSizeBeyondCapWithoutInjectionIsLogicError) {
  session s;
  EXPECT_THROW((void)alloc_size(2000, 1000), std::logic_error);
}

TEST(Instrument, AllocSizeBeyondCapAfterInjectionAborts) {
  fault_plan plan;
  plan.target = 0;
  plan.bit = 62;
  session s(plan);
  (void)g64(1);  // fire the injection on an unrelated value
  ASSERT_TRUE(s.fired());
  try {
    (void)alloc_size(1 << 20, 1000);
    FAIL() << "expected crash_error";
  } catch (const crash_error& e) {
    EXPECT_EQ(e.kind(), crash_kind::abort);
  }
}

TEST(Instrument, WatchdogRaisesHang) {
  fault_plan plan;
  plan.target = ~0ULL;  // never fires
  session s(plan, /*step_budget=*/100);
  EXPECT_THROW(
      {
        for (int i = 0; i < 200; ++i) (void)g64(i);
      },
      hang_error);
}

TEST(Instrument, FprFlipOnDoubleMantissaIsSmall) {
  fault_plan plan;
  plan.cls = reg_class::fpr;
  plan.target = 0;
  plan.bit = 0;  // lowest mantissa bit
  session s(plan);
  const double v = f64(1.0);
  EXPECT_NE(v, 1.0);
  EXPECT_NEAR(v, 1.0, 1e-15);
}

TEST(Instrument, FprFlipOnExponentIsLarge) {
  fault_plan plan;
  plan.cls = reg_class::fpr;
  plan.target = 0;
  plan.bit = 62;  // top exponent bit
  session s(plan);
  const double v = f64(1.0);
  EXPECT_TRUE(std::abs(v) > 1e100 || std::abs(v) < 1e-100);
}

TEST(Instrument, FnNamesAreDistinct) {
  for (int a = 0; a < fn_count; ++a) {
    for (int b = a + 1; b < fn_count; ++b) {
      EXPECT_STRNE(fn_name(static_cast<fn>(a)), fn_name(static_cast<fn>(b)));
    }
  }
}

TEST(Instrument, NestedSessionRestoresOuterCounters) {
  session outer;
  (void)g64(1);
  {
    session inner;
    (void)g64(1);
    (void)g64(1);
    EXPECT_EQ(inner.stats().gpr_ops(), 2u);
  }
  EXPECT_EQ(tls.c.gpr_ops(), 1u);  // outer state restored
}

TEST(Instrument, AccountRespectsWatchdog) {
  fault_plan plan;
  plan.target = ~0ULL;
  session s(plan, /*step_budget=*/500);
  EXPECT_THROW(account(op::mem, 1000), hang_error);
}

}  // namespace
}  // namespace vs::rt

namespace vs {
namespace {

/// Every nonzero entry of `c` (ops, fault-site hooks and unstruck hooks per
/// scope), so two strings are equal exactly when the counters are.
std::string pinned_form(const rt::counters& c) {
  std::string out;
  for (int f = 0; f < rt::fn_count; ++f) {
    const std::string name = rt::fn_name(static_cast<rt::fn>(f));
    auto add = [&](const char* what, std::uint64_t v) {
      if (v == 0) return;
      out += (out.empty() ? "" : " ") + name + "." + what + "=" +
             std::to_string(v);
    };
    for (int k = 0; k < rt::op_count; ++k) {
      add(rt::op_name(static_cast<rt::op>(k)), c.by_fn[f][k]);
    }
    add("gpr_hooks", c.hooks_by_fn[f][0]);
    add("fpr_hooks", c.hooks_by_fn[f][1]);
    add("unstruck", c.unstruck_by_fn[f]);
  }
  return out;
}

/// Counts what `kernel` executes inside a fresh counting session.
template <class Kernel>
std::string counted(Kernel&& kernel) {
  rt::session s;
  kernel();
  return pinned_form(s.stats());
}

// The per-kernel op streams of the instrumented lane, recorded on a fixed
// Input 1 frame pair.  Every fault plan addresses these streams, so a kernel
// rewrite that moves a hook, reorders two or changes an accounted count
// shows here, before any end-to-end golden moves.
TEST(KernelHooks, CountsArePinned) {
  const auto clip = video::make_input(video::input_id::input1, 8);
  const img::image_u8 a = clip->frame(3);
  const img::image_u8 b = clip->frame(4);
  const feat::orb_params orb;
  const feat::frame_features fa = feat::orb_extract(a, orb);
  const feat::frame_features fb = feat::orb_extract(b, orb);
  const geo::mat3 h{0.998, -0.05, 6.5, 0.05, 0.998, -3.25, 1e-5, -2e-5, 1.0};
  const geo::rect whole{0, 0, a.width(), a.height()};
  const geo::rect moved = *geo::projected_bounds(h, b.width(), b.height());
  const geo::warped_patch pa = geo::warp_perspective(a, geo::mat3::identity(),
                                                     whole);
  const geo::warped_patch pb = geo::warp_perspective(b, h, moved);
  match::match_params simple;
  simple.mode = match::match_mode::simple;

  EXPECT_EQ(counted([&] { (void)clip->frame(3); }),
            "video_decode.int_alu=379200 video_decode.mem=122880 "
            "video_decode.fp_alu=152304 video_decode.gpr_hooks=61440");
  EXPECT_EQ(counted([&] { (void)feat::fast_detect(a, orb.fast); }),
            "fast_detect.int_alu=184570 fast_detect.mem=29140 "
            "fast_detect.branch=10122 fast_detect.gpr_hooks=29204 "
            "fast_detect.unstruck=1");
  EXPECT_EQ(counted([&] { (void)feat::orb_extract(a, orb); }),
            "fast_detect.int_alu=184570 fast_detect.mem=29140 "
            "fast_detect.branch=10122 fast_detect.gpr_hooks=29204 "
            "fast_detect.unstruck=1 orb_describe.int_alu=504396 "
            "orb_describe.mem=180572 orb_describe.fp_alu=1652 "
            "orb_describe.gpr_hooks=157176 orb_describe.fpr_hooks=236");
  EXPECT_EQ(counted([&] { (void)match::match_descriptors(fa, fb, {}); }),
            "match.int_alu=702808 match.mem=236 match.branch=54045 "
            "match.gpr_hooks=473");
  EXPECT_EQ(counted([&] { (void)match::match_descriptors(fa, fb, simple); }),
            "match.int_alu=324500 match.mem=236 match.branch=54045 "
            "match.gpr_hooks=473");
  EXPECT_EQ(counted([&] { (void)geo::warp_perspective(b, h, moved); }),
            "other.int_alu=3 other.gpr_hooks=3 other.unstruck=3 "
            "warpPerspective.branch=14040 warpPerspective.fp_alu=195104 "
            "warpPerspective.gpr_hooks=104 warpPerspective.fpr_hooks=27872 "
            "remapBilinear.int_alu=132605 remapBilinear.mem=84385 "
            "remapBilinear.gpr_hooks=72330");
  EXPECT_EQ(counted([&] {
              stitch::compositor canvas;
              canvas.ensure(whole);
              canvas.blend(pa, true);
              canvas.ensure(moved);  // grows: blits the old canvas
              canvas.blend(pb, true);
              canvas.feather_seams();
            }),
            "stitch.int_alu=4 stitch.mem=79291 stitch.branch=26224 "
            "stitch.fp_alu=11457 stitch.gpr_hooks=48244 stitch.unstruck=4");
  EXPECT_EQ(counted([&] { (void)img::box_blur3(a); }), "");
  const img::image_u8 ta = gate::make_thumb(a, 4);
  const img::image_u8 tb = gate::make_thumb(b, 4);
  EXPECT_EQ(counted([&] { (void)gate::change_score(tb, ta, 2, 4); }),
            "gate.int_alu=52695 gate.mem=35112 gate.fp_alu=1 gate.gpr_hooks=27 "
            "gate.fpr_hooks=1");
}

}  // namespace
}  // namespace vs
