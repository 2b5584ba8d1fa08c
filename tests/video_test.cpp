#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/error.h"
#include "supervise/fork_runner.h"
#include "video/generator.h"

namespace vs::video {
namespace {

TEST(Scene, DeterministicForSameParams) {
  landscape_params params;
  params.width = 128;
  params.height = 96;
  EXPECT_EQ(generate_landscape(params), generate_landscape(params));
}

TEST(Scene, DifferentSeedsDiffer) {
  landscape_params a;
  a.width = 128;
  a.height = 96;
  landscape_params b = a;
  b.seed = a.seed + 1;
  EXPECT_FALSE(generate_landscape(a) == generate_landscape(b));
}

TEST(Scene, HasRequestedDimensions) {
  landscape_params params;
  params.width = 200;
  params.height = 100;
  const auto scene = generate_landscape(params);
  EXPECT_EQ(scene.width(), 200);
  EXPECT_EQ(scene.height(), 100);
  EXPECT_EQ(scene.channels(), 1);
}

TEST(Scene, HasContrast) {
  landscape_params params;
  params.width = 256;
  params.height = 192;
  const auto scene = generate_landscape(params);
  int lo = 255;
  int hi = 0;
  for (std::size_t i = 0; i < scene.size(); ++i) {
    lo = std::min<int>(lo, scene[i]);
    hi = std::max<int>(hi, scene[i]);
  }
  EXPECT_GT(hi - lo, 120);  // speckles/buildings give strong contrast
}

TEST(Scene, ValueNoiseInRange) {
  for (int i = 0; i < 200; ++i) {
    const double v = value_noise(9, i * 3.7, i * 1.3, 4);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 255.0);
  }
}

TEST(Path, GeneratesRequestedFrames) {
  const auto path = generate_path(input2_path(25), 1024, 768, 1);
  EXPECT_EQ(path.size(), 25u);
}

TEST(Path, StaysInsideMargins) {
  path_params params = input1_path(200);
  const auto path = generate_path(params, 1024, 768, 7);
  for (const auto& p : path) {
    EXPECT_GE(p.x, params.margin - 1.0);
    EXPECT_LE(p.x, 1024 - params.margin + 1.0);
    EXPECT_GE(p.y, params.margin - 1.0);
    EXPECT_LE(p.y, 768 - params.margin + 1.0);
  }
}

TEST(Path, Input1HasViewJumps) {
  const auto path = generate_path(input1_path(60), 1024, 768, 3);
  double max_step = 0.0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    max_step = std::max(max_step, geo::distance({path[i].x, path[i].y},
                                                {path[i - 1].x, path[i - 1].y}));
  }
  EXPECT_GT(max_step, 100.0);  // teleporting scene cuts
}

TEST(Path, Input2IsSmooth) {
  const auto path = generate_path(input2_path(60), 1024, 768, 3);
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_LT(geo::distance({path[i].x, path[i].y},
                            {path[i - 1].x, path[i - 1].y}),
              30.0);
  }
}

TEST(Path, RejectsNonPositiveFrames) {
  EXPECT_THROW((void)generate_path(path_params{.frames = 0}, 512, 512, 1),
               invalid_argument);
}

TEST(Camera, PoseMapsFrameCenterToPosition) {
  pose p;
  p.x = 100.0;
  p.y = 50.0;
  p.angle = 0.7;
  p.zoom = 1.2;
  const auto m = pose_to_scene(p, 64, 48);
  const auto center = m.apply({32.0, 24.0});
  EXPECT_NEAR(center.x, 100.0, 1e-9);
  EXPECT_NEAR(center.y, 50.0, 1e-9);
}

TEST(Camera, ZoomScalesFootprint) {
  pose p;
  p.x = 0.0;
  p.y = 0.0;
  p.zoom = 2.0;
  const auto m = pose_to_scene(p, 64, 48);
  const auto a = m.apply({0.0, 24.0});
  const auto b = m.apply({64.0, 24.0});
  EXPECT_NEAR(geo::distance(a, b), 128.0, 1e-9);
}

TEST(SyntheticVideo, FramesAreDeterministic) {
  const auto clip = make_input(input_id::input2, 6);
  EXPECT_EQ(clip->frame(3), clip->frame(3));
}

TEST(SyntheticVideo, FrameDimensionsMatch) {
  const auto clip = make_input(input_id::input1, 4);
  const auto frame = clip->frame(0);
  EXPECT_EQ(frame.width(), clip->frame_width());
  EXPECT_EQ(frame.height(), clip->frame_height());
  EXPECT_EQ(frame.channels(), 1);
  EXPECT_EQ(clip->frame_count(), 4);
}

TEST(SyntheticVideo, FrameIndexValidated) {
  const auto clip = make_input(input_id::input2, 4);
  EXPECT_THROW((void)clip->frame(-1), invalid_argument);
  EXPECT_THROW((void)clip->frame(4), invalid_argument);
}

TEST(SyntheticVideo, ConsecutiveFramesOverlapButDiffer) {
  const auto clip = make_input(input_id::input2, 6);
  const auto a = clip->frame(0);
  const auto b = clip->frame(1);
  EXPECT_FALSE(a == b);
  // Not wildly different either: the camera moved a few pixels.
  EXPECT_LT(img::mean_abs_diff(a, b), 80.0);
}

TEST(SyntheticVideo, ReplicasChangeThePath) {
  const auto a = make_input(input_id::input2, 5, 0);
  const auto b = make_input(input_id::input2, 5, 1);
  EXPECT_FALSE(a->frame(2) == b->frame(2));
}

TEST(SyntheticVideo, Input1HasLargerViewChangesThanInput2) {
  // Property behind the whole evaluation: Input 1's view changes (fast
  // camera + scene cuts) dwarf Input 2's smooth drift.  Compare per-frame
  // camera displacement, normalized by frame size.
  const auto clip1 = make_input(input_id::input1, 16);
  const auto clip2 = make_input(input_id::input2, 16);
  auto max_step = [](const synthetic_video& clip) {
    double worst = 0.0;
    const auto& path = clip.path();
    for (std::size_t i = 1; i < path.size(); ++i) {
      worst = std::max(worst, geo::distance({path[i].x, path[i].y},
                                            {path[i - 1].x, path[i - 1].y}));
    }
    return worst;
  };
  EXPECT_GT(max_step(*clip1), max_step(*clip2) * 2.0);
}

TEST(SyntheticVideo, RejectsBadStability) {
  clip_params params;
  params.clutter_stability = 1.5;
  EXPECT_THROW((void)synthetic_video(params), invalid_argument);
}

constexpr input_id kInputs[] = {input_id::input1, input_id::input2,
                                 input_id::input3};

TEST(SharedScene, IsTheInputsLandscape) {
  for (const input_id id : kInputs) {
    EXPECT_TRUE(make_input(id, 4, 1)->scene() ==
                generate_landscape(input_params(id).scene))
        << input_name(id);
  }
}

TEST(SharedScene, OneScenePerInputAcrossFramesAndReplicas) {
  for (const input_id id : kInputs) {
    const auto a = make_input(id, 4, 0);
    const auto b = make_input(id, 11, 2);
    EXPECT_EQ(&a->scene(), &b->scene()) << input_name(id);
  }
  EXPECT_NE(&make_input(input_id::input1, 4)->scene(),
            &make_input(input_id::input2, 4)->scene());
}

TEST(SharedScene, ConcurrentFirstUseYieldsOneSceneAndTheSameFrames) {
  constexpr int kThreads = 8;
  constexpr int kFrames = 3;
  std::vector<std::shared_ptr<const synthetic_video>> clips(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      clips[static_cast<std::size_t>(t)] =
          make_input(input_id::input3, kFrames);
    });
  }
  go.store(true);
  for (auto& t : threads) t.join();

  const synthetic_video own(input_params(input_id::input3, kFrames));
  for (const auto& clip : clips) {
    EXPECT_EQ(&clip->scene(), &clips[0]->scene());
    for (int i = 0; i < kFrames; ++i) {
      EXPECT_TRUE(clip->frame(i) == own.frame(i)) << "frame " << i;
    }
  }
}

TEST(SharedScene, ChildForkedDuringGenerationBuildsItsOwn) {
  // A child forked while another thread generates a scene inherits that
  // half-done work frozen.  Publication takes no lock, so the child finds
  // the slot empty (and generates its own scene) or complete, and never
  // waits on a thread that does not exist in it.
  std::atomic<bool> started{false};
  std::thread builder([&] {
    started.store(true);
    (void)make_input(input_id::input1, 2);
  });
  while (!started.load()) std::this_thread::yield();
  const auto t0 = std::chrono::steady_clock::now();
  const supervise::fork_ending ending = supervise::run_forked(
      [](int) {
        // Only make_input in the child: frame() would use the thread pool,
        // whose workers were not forked.
        const auto clip = make_input(input_id::input1, 2);
        _exit(clip->scene().empty() ? 1 : 0);
      },
      20.0, nullptr);
  const double waited_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  builder.join();
  EXPECT_EQ(ending.how, supervise::fork_ending::kind::clean);
  EXPECT_LT(waited_s, 10.0);
}

TEST(SharedScene, ConstructorRejectsAMissingScene) {
  EXPECT_THROW((void)synthetic_video(clip_params{}, nullptr),
               invalid_argument);
}

TEST(FrameList, ServesStoredFrames) {
  std::vector<img::image_u8> frames(3, img::image_u8(8, 6, 1, 9));
  frames[1].at(0, 0) = 42;
  frame_list list(frames);
  EXPECT_EQ(list.frame_count(), 3);
  EXPECT_EQ(list.frame_width(), 8);
  EXPECT_EQ(list.frame(1).at(0, 0), 42);
}

TEST(FrameList, RejectsEmptyAndInconsistent) {
  EXPECT_THROW((void)frame_list(std::vector<img::image_u8>{}),
               invalid_argument);
  std::vector<img::image_u8> bad;
  bad.emplace_back(8, 6, 1);
  bad.emplace_back(9, 6, 1);
  EXPECT_THROW((void)frame_list(std::move(bad)), invalid_argument);
}

}  // namespace
}  // namespace vs::video
