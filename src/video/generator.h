// Frame sources: the abstraction the VS pipeline consumes, plus the
// synthetic implementation that stands in for the two VIRAT aerial clips.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "image/image.h"
#include "video/camera.h"
#include "video/scene.h"

namespace vs::video {

/// Abstract sequence of frames.  Implementations must be deterministic and
/// safe to read from multiple threads concurrently (fault campaigns run
/// parallel pipeline instances against one shared source).
class video_source {
 public:
  virtual ~video_source() = default;

  [[nodiscard]] virtual int frame_count() const = 0;
  [[nodiscard]] virtual int frame_width() const = 0;
  [[nodiscard]] virtual int frame_height() const = 0;

  /// Renders/loads frame `index` (grayscale).  Throws on invalid index.
  [[nodiscard]] virtual img::image_u8 frame(int index) const = 0;
};

/// Configuration of a synthetic clip.
struct clip_params {
  landscape_params scene;
  path_params path;
  int frame_width = 128;
  int frame_height = 96;
  double sensor_noise_sigma = 0.6;  ///< per-pixel Gaussian sensor noise

  // Dynamic ground clutter: point features (vehicles, foliage, shimmer)
  // that persist for a while and then relocate.  They are what makes
  // matchability decay with temporal distance — the property that lets
  // random frame dropping trigger the paper's cascade of additional frame
  // discards on the busy input (Section IV-A).
  int dynamic_clutter = 2400;       ///< clutter points across the scene
  double clutter_stability = 0.85;  ///< per-frame survival probability

  // Clutter height range (fraction of camera altitude).  Elevated points
  // (urban structure: rooftops, poles, vehicles) exhibit parallax: their
  // apparent ground position shifts with the camera by height x camera
  // displacement.  Consecutive frames stay within RANSAC's inlier
  // threshold; frames two apart do not — the property that makes Input 1's
  // alignment collapse when a frame in between is dropped.
  double clutter_height_min = 0.0;
  double clutter_height_max = 0.0;
  std::uint64_t seed = 7;
};

/// Synthetic aerial clip: a landscape plus a camera path; frame(i) samples
/// the landscape through the pose-i camera with bilinear interpolation and
/// adds deterministic per-frame sensor noise.  The landscape is immutable
/// and may be shared by any number of clips.
class synthetic_video final : public video_source {
 public:
  /// Generates `params.scene` for this clip alone.
  explicit synthetic_video(const clip_params& params);
  /// Samples an already built scene, which must be
  /// `generate_landscape(params.scene)` for the frames to be the clip's.
  synthetic_video(const clip_params& params,
                  std::shared_ptr<const img::image_u8> scene);

  [[nodiscard]] int frame_count() const override;
  [[nodiscard]] int frame_width() const override { return params_.frame_width; }
  [[nodiscard]] int frame_height() const override {
    return params_.frame_height;
  }
  [[nodiscard]] img::image_u8 frame(int index) const override;

  [[nodiscard]] const img::image_u8& scene() const noexcept { return *scene_; }
  [[nodiscard]] const std::vector<pose>& path() const noexcept { return path_; }

 private:
  /// Clean (parallel) lane of frame(): identical bytes, no fault hooks.
  [[nodiscard]] img::image_u8 frame_clean(int index) const;
  /// Instrumented lane of frame(): sequential, rt:: hooks as fault sites.
  [[nodiscard]] img::image_u8 frame_instrumented(int index) const;
  /// Dynamic-clutter overlay shared by both lanes (order-dependent
  /// blending, so it runs sequentially in each).
  void overlay_clutter(img::image_u8& out, const geo::mat3& to_scene,
                       int index) const;

  clip_params params_;
  std::shared_ptr<const img::image_u8> scene_;
  std::vector<pose> path_;
  std::size_t clutter_points_ = 0;
  /// clutter_epoch_[i * clutter_points_ + k]: how many times clutter point
  /// k has relocated by frame i, one row per frame.  Precomputed so frame
  /// rendering is O(points) per frame.
  std::vector<std::uint16_t> clutter_epoch_;
};

/// An in-memory list of frames (tests, replay of saved clips).
class frame_list final : public video_source {
 public:
  explicit frame_list(std::vector<img::image_u8> frames);

  [[nodiscard]] int frame_count() const override;
  [[nodiscard]] int frame_width() const override;
  [[nodiscard]] int frame_height() const override;
  [[nodiscard]] img::image_u8 frame(int index) const override;

 private:
  std::vector<img::image_u8> frames_;
};

/// Identifier for the evaluation inputs: the paper's two VIRAT-style
/// clips, plus a synthetic third scenario (low-texture night pass) for
/// whole-pipeline campaigns summarized across a scenario matrix.
enum class input_id { input1, input2, input3 };

[[nodiscard]] const char* input_name(input_id id) noexcept;

/// The parameters of the standard evaluation clip for `id` with `frames`
/// frames.  Frame geometry and scene seeds are fixed so results are
/// comparable across experiments; the paper's 1000-frame clips are
/// represented at laptop scale (default 40 frames — see EXPERIMENTS.md).
/// `replica` varies the flight path and dynamic content (not the scene),
/// for experiments that average over several runs of the same input class.
[[nodiscard]] clip_params input_params(input_id id, int frames = 40,
                                       int replica = 0);

/// Builds the clip of `input_params(id, frames, replica)`.  Its landscape
/// depends on `id` alone, so it is generated once per process on first use
/// and shared by every later clip of that input (DESIGN §5m).  Safe to call
/// from any thread, and from a child forked while another thread is inside
/// it: no lock is taken.
[[nodiscard]] std::shared_ptr<const synthetic_video> make_input(
    input_id id, int frames = 40, int replica = 0);

}  // namespace vs::video
