#include "video/generator.h"

#include <atomic>
#include <cmath>
#include <vector>

#include "core/dispatch.h"
#include "core/error.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "geometry/warp.h"
#include "image/pixel.h"
#include "rt/instrument.h"

namespace vs::video {

synthetic_video::synthetic_video(const clip_params& params)
    : synthetic_video(params, std::make_shared<const img::image_u8>(
                                  generate_landscape(params.scene))) {}

synthetic_video::synthetic_video(const clip_params& params,
                                 std::shared_ptr<const img::image_u8> scene)
    : params_(params), scene_(std::move(scene)) {
  if (scene_ == nullptr || scene_->empty()) {
    throw invalid_argument("synthetic_video: no scene");
  }
  if (params.frame_width < 32 || params.frame_height < 32) {
    throw invalid_argument("synthetic_video: frames must be >= 32x32");
  }
  if (params.clutter_stability < 0.0 || params.clutter_stability > 1.0) {
    throw invalid_argument("synthetic_video: clutter_stability not in [0,1]");
  }
  path_ = generate_path(params.path, scene_->width(), scene_->height(),
                        params.seed);

  // Precompute each clutter point's relocation history: point k relocates
  // at frame i when its (k, i) hash exceeds the stability threshold.
  clutter_points_ = static_cast<std::size_t>(
      std::max(0, params.dynamic_clutter));
  const auto frames = path_.size();
  clutter_epoch_.resize(clutter_points_ * frames);
  for (std::size_t k = 0; k < clutter_points_; ++k) {
    std::uint16_t epoch = 0;
    for (std::size_t i = 0; i < frames; ++i) {
      if (i > 0) {
        std::uint64_t h = params.seed ^ (0x5eedc1a7ULL + k * 0x9e3779b9ULL);
        h += i * 0xc2b2ae3d27d4eb4fULL;
        const double roll =
            static_cast<double>(splitmix64(h) >> 11) * 0x1.0p-53;
        if (roll > params.clutter_stability) ++epoch;
      }
      clutter_epoch_[i * clutter_points_ + k] = epoch;
    }
  }
}

int synthetic_video::frame_count() const {
  return static_cast<int>(path_.size());
}

img::image_u8 synthetic_video::frame(int index) const {
  if (index < 0 || index >= frame_count()) {
    throw invalid_argument("synthetic_video::frame: index out of range");
  }
  return core::dispatch([&] { return frame_clean(index); },
                        [&] { return frame_instrumented(index); });
}

img::image_u8 synthetic_video::frame_instrumented(int index) const {
  rt::scope attributed(rt::fn::video_decode);

  const geo::mat3 to_scene =
      pose_to_scene(path_[static_cast<std::size_t>(index)],
                    params_.frame_width, params_.frame_height);

  img::image_u8 out(params_.frame_width, params_.frame_height, 1);
  rng noise(params_.seed * 0x51ed2701ULL + static_cast<std::uint64_t>(index));

  for (int y = 0; y < out.height(); ++y) {
    for (int x = 0; x < out.width(); ++x) {
      const geo::vec2 s = to_scene.apply({x + 0.5, y + 0.5});
      const auto v = geo::sample_bilinear(*scene_, s.x, s.y);
      double pixel = v ? static_cast<double>(*v) : 0.0;
      if (params_.sensor_noise_sigma > 0.0) {
        pixel += noise.normal() * params_.sensor_noise_sigma;
      }
      out.at(x, y) = img::saturate_u8(pixel);
    }
    // Real frame acquisition (decode + color/debayer + undistort) costs
    // far more than the synthetic sampling that stands in for it here.
    rt::account(rt::op::fp_alu, static_cast<std::uint64_t>(out.width()) * 8);
    rt::account(rt::op::int_alu, static_cast<std::uint64_t>(out.width()) * 14);
    rt::account(rt::op::mem, static_cast<std::uint64_t>(out.width()) * 6);
  }

  overlay_clutter(out, to_scene, index);
  return out;
}

img::image_u8 synthetic_video::frame_clean(int index) const {
  const geo::mat3 to_scene =
      pose_to_scene(path_[static_cast<std::size_t>(index)],
                    params_.frame_width, params_.frame_height);

  img::image_u8 out(params_.frame_width, params_.frame_height, 1);
  rng noise(params_.seed * 0x51ed2701ULL + static_cast<std::uint64_t>(index));

  // The per-pixel normal() draws are replicated up front in raster order:
  // Box–Muller caches a spare draw, so the stream is call-order-sensitive
  // and must match the instrumented lane's one-call-per-pixel sequence.
  std::vector<double> noise_buf;
  const bool noisy = params_.sensor_noise_sigma > 0.0;
  if (noisy) {
    noise_buf.resize(out.size());
    for (auto& v : noise_buf) v = noise.normal();
  }

  const int w = out.width();
  core::thread_pool::current().parallel_for(
      0, out.height(), 8, [&](std::int64_t y0, std::int64_t y1, std::size_t) {
        for (int y = static_cast<int>(y0); y < y1; ++y) {
          for (int x = 0; x < w; ++x) {
            const geo::vec2 s = to_scene.apply({x + 0.5, y + 0.5});
            const auto v = geo::sample_bilinear(*scene_, s.x, s.y);
            double pixel = v ? static_cast<double>(*v) : 0.0;
            if (noisy) {
              pixel += noise_buf[static_cast<std::size_t>(y) * w + x] *
                       params_.sensor_noise_sigma;
            }
            out.at(x, y) = img::saturate_u8(pixel);
          }
        }
      });

  overlay_clutter(out, to_scene, index);
  return out;
}

void synthetic_video::overlay_clutter(img::image_u8& out,
                                      const geo::mat3& to_scene,
                                      int index) const {
  // Dynamic clutter overlay: each point's position is a pure function of
  // (seed, point id, relocation epoch), so it is stable while the point
  // survives and jumps when it relocates.  Points blend over one another in
  // id order, so both lanes run this sequentially.
  if (clutter_points_ > 0) {
    const auto from_scene = to_scene.inverse();
    if (from_scene) {
      const std::uint16_t* epochs =
          clutter_epoch_.data() +
          static_cast<std::size_t>(index) * clutter_points_;
      for (std::size_t k = 0; k < clutter_points_; ++k) {
        const std::uint16_t epoch = epochs[k];
        std::uint64_t h = params_.seed ^ (0xc1a77e57ULL + k * 0x2545f491ULL);
        h += static_cast<std::uint64_t>(epoch) * 0x9e3779b97f4a7c15ULL;
        const std::uint64_t r0 = splitmix64(h);
        const std::uint64_t r1 = splitmix64(h);
        double sx = static_cast<double>(r0 % 100000) * 1e-5 *
                    (scene_->width() - 4);
        double sy = static_cast<double>(r1 % 100000) * 1e-5 *
                    (scene_->height() - 4);
        if (params_.clutter_height_max > 0.0) {
          // Parallax: an elevated point's apparent ground position leans
          // away from the camera nadir in proportion to its height.  The
          // height is a stable property of the point's identity (k), not of
          // its epoch, like a building that outlives the vehicles around it.
          std::uint64_t hh = params_.seed ^ (0x8e1ff00dULL + k * 0x7f4a7c15ULL);
          const double unit =
              static_cast<double>(splitmix64(hh) >> 11) * 0x1.0p-53;
          const double height =
              params_.clutter_height_min +
              unit * (params_.clutter_height_max - params_.clutter_height_min);
          const pose& cam = path_[static_cast<std::size_t>(index)];
          sx += (sx - cam.x) * height;
          sy += (sy - cam.y) * height;
        }
        const geo::vec2 f = from_scene->apply({sx, sy});
        if (f.x < 3.0 || f.y < 3.0 || f.x >= out.width() - 4.0 ||
            f.y >= out.height() - 4.0) {
          continue;
        }
        // Each point renders a distinctive 3x3 signature derived from its
        // identity hash (two tones + a pixel on/off pattern), so clutter
        // keypoints have locally unique descriptors and survive the ratio
        // test while they remain in place.  The signature is splatted with
        // bilinear weights at its subpixel position — like every static
        // scene feature, which is bilinearly sampled — so the rendered
        // position is accurate well below a pixel and parallax (not
        // rasterization jitter) governs the geometric residual.
        const auto tone_a = static_cast<std::uint8_t>(
            (r0 >> 32) & 1 ? 225 + (r1 >> 40) % 30 : 3 + (r1 >> 40) % 30);
        const auto tone_b = static_cast<std::uint8_t>(
            (r0 >> 33) & 1 ? 200 + (r1 >> 48) % 40 : 20 + (r1 >> 48) % 50);
        const std::uint32_t shape =
            static_cast<std::uint32_t>(r1 & 0x1ffffff) | (1u << 12);  // 5x5,
                                                        // center always on
        const auto base_x = static_cast<int>(std::floor(f.x));
        const auto base_y = static_cast<int>(std::floor(f.y));
        const double frac_x = f.x - base_x;
        const double frac_y = f.y - base_y;
        const double w11 = frac_x * frac_y;
        const double w10 = frac_x * (1.0 - frac_y);
        const double w01 = (1.0 - frac_x) * frac_y;
        const double w00 = (1.0 - frac_x) * (1.0 - frac_y);
        auto mix = [&out](int mx, int my, double tone, double weight) {
          if (weight <= 0.0) return;
          std::uint8_t& pixel = out.at(mx, my);
          pixel = img::saturate_u8((1.0 - weight) * pixel + weight * tone);
        };
        for (int dy = 0; dy < 5; ++dy) {
          for (int dx = 0; dx < 5; ++dx) {
            if (((shape >> (5 * dy + dx)) & 1) == 0) continue;
            const double tone = ((dx + dy) & 1) ? tone_b : tone_a;
            const int px = base_x + dx - 2;
            const int py = base_y + dy - 2;
            mix(px, py, tone, w00);
            mix(px + 1, py, tone, w10);
            mix(px, py + 1, tone, w01);
            mix(px + 1, py + 1, tone, w11);
          }
        }
      }
      rt::account(rt::op::int_alu, clutter_points_ * 8);
      rt::account(rt::op::fp_alu, clutter_points_ * 6);
    }
  }
}

frame_list::frame_list(std::vector<img::image_u8> frames)
    : frames_(std::move(frames)) {
  if (frames_.empty()) throw invalid_argument("frame_list: no frames");
  for (const auto& f : frames_) {
    if (f.width() != frames_[0].width() || f.height() != frames_[0].height() ||
        f.channels() != 1) {
      throw invalid_argument("frame_list: inconsistent frame shapes");
    }
  }
}

int frame_list::frame_count() const { return static_cast<int>(frames_.size()); }
int frame_list::frame_width() const { return frames_[0].width(); }
int frame_list::frame_height() const { return frames_[0].height(); }

img::image_u8 frame_list::frame(int index) const {
  if (index < 0 || index >= frame_count()) {
    throw invalid_argument("frame_list::frame: index out of range");
  }
  return frames_[static_cast<std::size_t>(index)];
}

const char* input_name(input_id id) noexcept {
  switch (id) {
    case input_id::input1: return "Input1";
    case input_id::input2: return "Input2";
    case input_id::input3: return "Input3";
  }
  return "Input?";
}

clip_params input_params(input_id id, int frames, int replica) {
  clip_params params;
  params.frame_width = 128;
  params.frame_height = 96;
  if (id == input_id::input1) {
    params.scene.seed = 0xA11CE;
    params.path = input1_path(frames);
    params.seed = 101;
    // Fast-moving, busy footage: the camera covers ground quickly (the
    // paper notes Input 1's much higher rate of view changes), so one frame
    // of extra temporal gap costs most of the inter-frame overlap; moving
    // clutter erodes matchability further.  Segment breaks are hard scene
    // cuts between cameras.
    params.scene.speckles = 3000;
    params.dynamic_clutter = 9000;
    params.clutter_stability = 0.92;
    params.clutter_height_min = 0.075;
    params.clutter_height_max = 0.095;
  } else if (id == input_id::input2) {
    params.scene.seed = 0xB0B42;
    params.path = input2_path(frames);
    params.seed = 202;
    // Calm rural-style footage: mostly static content, richly textured.
    params.scene.speckles = 20000;
    params.dynamic_clutter = 4000;
    params.clutter_stability = 0.95;
  } else {
    params.scene.seed = 0xC0FFEE;
    params.path = input3_path(frames);
    params.seed = 303;
    // Low-texture night pass: the detector is starved rather than
    // saturated.  Most of the daytime corner sources are gone (sparse
    // fields, few buildings, little ground speckle), sensor noise is up
    // (high gain in low light), and the little clutter there is flickers
    // quickly (headlights, moving shadows).  Alignment runs close to the
    // min-matches threshold, so faults that shave a few matches — harmless
    // on Inputs 1-2 — tip frames into discard here.
    params.scene.noise_octaves = 3;
    params.scene.fields = 8;
    params.scene.roads = 6;
    params.scene.buildings = 90;
    params.scene.trees = 160;
    params.scene.speckles = 1200;
    params.sensor_noise_sigma = 1.4;
    params.dynamic_clutter = 1500;
    params.clutter_stability = 0.80;
  }
  params.seed += static_cast<std::uint64_t>(replica) * 10007u;
  return params;
}

namespace {

using scene_ptr = std::shared_ptr<const img::image_u8>;

/// One published scene per input_id; null until its first use.
std::atomic<const scene_ptr*> g_scenes[3] = {};

/// `id`'s landscape, generated on the first call and kept for the life of
/// the process.  Publication is one compare-exchange on a pointer, so no
/// lock is ever held while a scene is generated: a child forked while
/// another thread is inside this function inherits no lock, only a slot
/// that is either empty (the child generates its own) or complete.  When two
/// threads race, both generate the same bytes and the loser drops its
/// copy.  The published holder is never freed; it stays reachable from
/// its slot.
scene_ptr input_scene(input_id id, const landscape_params& params) {
  auto& slot = g_scenes[static_cast<std::size_t>(id)];
  const scene_ptr* seen = slot.load(std::memory_order_acquire);
  if (seen == nullptr) {
    auto built = std::make_unique<const scene_ptr>(
        std::make_shared<const img::image_u8>(generate_landscape(params)));
    if (slot.compare_exchange_strong(seen, built.get(),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      seen = built.release();
    }
  }
  return *seen;
}

}  // namespace

std::shared_ptr<const synthetic_video> make_input(input_id id, int frames,
                                                  int replica) {
  const clip_params params = input_params(id, frames, replica);
  return std::make_shared<const synthetic_video>(
      params, input_scene(id, params.scene));
}

}  // namespace vs::video
