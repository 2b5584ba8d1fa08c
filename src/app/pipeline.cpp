#include "app/pipeline.h"

#include <algorithm>
#include <cctype>
#include <optional>

#include "core/error.h"
#include "core/rng.h"
#include "core/same_bits.h"
#include "gate/change.h"
#include "gate/extrapolate.h"
#include "pipeline/executor.h"
#include "resil/recovery.h"
#include "resil/runtime.h"
#include "rt/frame_log.h"
#include "rt/instrument.h"

namespace vs::app {

const char* algorithm_name(algorithm alg) noexcept {
  switch (alg) {
    case algorithm::vs:
      return "VS";
    case algorithm::vs_rfd:
      return "VS_RFD";
    case algorithm::vs_kds:
      return "VS_KDS";
    case algorithm::vs_sm:
      return "VS_SM";
  }
  return "?";
}

algorithm parse_algorithm(const std::string& name) {
  std::string upper;
  upper.reserve(name.size());
  for (char c : name) upper.push_back(static_cast<char>(std::toupper(c)));
  if (upper == "VS") return algorithm::vs;
  if (upper == "VS_RFD" || upper == "RFD") return algorithm::vs_rfd;
  if (upper == "VS_KDS" || upper == "KDS") return algorithm::vs_kds;
  if (upper == "VS_SM" || upper == "SM") return algorithm::vs_sm;
  throw invalid_argument("unknown algorithm: " + name);
}

namespace {

using pipeline::stage_id;

// VS_KDS: match on only a fraction of the keypoints.  Matching cost —
// O(n^2) in keypoints — falls by ~fraction^2.  The subset is chosen as the
// spatially-dominant corners: greedily take the strongest keypoint whose
// distance to every already-kept keypoint is at least a spacing radius.
// Local dominance is far more stable between consecutive frames than a raw
// score ranking (scores jitter with noise and subpixel motion, but the
// strongest corner of a neighbourhood stays the strongest), so the retained
// third keeps supporting alignment most of the time.
feat::frame_features subsample_features(const feat::frame_features& features,
                                        double fraction) {
  if (fraction >= 1.0 || features.empty()) return features;
  const auto keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             static_cast<double>(features.size()) * fraction + 0.5));

  feat::frame_features out;
  out.keypoints.reserve(keep);
  out.descriptors.reserve(keep);
  // Pass 1: enforce a spacing radius among the score-ordered keypoints.
  constexpr float spacing2 = 10.0f * 10.0f;
  std::vector<std::size_t> rejected;
  for (std::size_t i = 0; i < features.size() && out.size() < keep; ++i) {
    const auto& kp = features.keypoints[i];
    bool spaced = true;
    for (const auto& kept : out.keypoints) {
      const float dx = kept.x - kp.x;
      const float dy = kept.y - kp.y;
      if (dx * dx + dy * dy < spacing2) {
        spaced = false;
        break;
      }
    }
    if (spaced) {
      out.keypoints.push_back(kp);
      out.descriptors.push_back(features.descriptors[i]);
    } else {
      rejected.push_back(i);
    }
  }
  // Pass 2: top up from the strongest rejected ones if spacing was too
  // aggressive to reach the requested fraction.
  for (std::size_t i = 0; i < rejected.size() && out.size() < keep; ++i) {
    out.keypoints.push_back(features.keypoints[rejected[i]]);
    out.descriptors.push_back(features.descriptors[rejected[i]]);
  }
  rt::account(rt::op::int_alu, features.size() * 8);
  return out;
}

/// Everything one frame of work may mutate, bundled so the recovery
/// boundary can snapshot it with one copy and restore it with one swap.
/// A campaign checkpoint holds it too, so a field added here must also be
/// compared in same() below.
struct pipeline_state {
  summary_result result;
  stitch::mini_panorama_builder builder;
  geo::mat3 cumulative = geo::mat3::identity();  // current frame -> anchor
  feat::frame_features prev_features;  // features of last aligned frame
  bool have_reference = false;
  int consecutive_discards = 0;
  std::vector<frame_placement> pending_placements;
  /// Last successful inter-frame motion model (degrade step 1 reuses it to
  /// place a failing frame by dead reckoning).
  geo::mat3 last_delta = geo::mat3::identity();
  bool have_last_delta = false;
  /// Real-time gating state (reference thumb/frame, streaks, descriptor
  /// cache).  Inside the recovery boundary's snapshot like everything else
  /// a frame may mutate; recovery paths additionally invalidate it.
  gate::runtime_state gate;

  pipeline_state(const pipeline_config& config)
      : builder(config.max_panorama_pixels, config.gain_compensation) {
    gate.cache.configure(config.gate.cache_capacity,
                         config.gate.cache_max_age);
  }
};

// --- campaign checkpoints (rt/frame_log.h) ------------------------------
// A fault campaign's golden run records one checkpoint at the top of every
// frame and one after the last: everything the rest of the call reads.
// The frame executor keeps nothing across frames on the instrumented lane,
// and the source and config are the caller's, which a run never changes.

struct checkpoint {
  pipeline_state st;
  rng drop_rng;
  int frame_count = 0;  ///< through a hook, so a flip can change it
  std::optional<resil::cfcss::monitor> monitor;
  resil::run_report report;
};

// Exact comparison (core/same_bits.h for the floating-point fields): an
// experiment whose state passes it at a boundary can only repeat the
// golden run from there on.
static_assert(sizeof(geo::mat3) == 9 * sizeof(double));
static_assert(sizeof(feat::keypoint) == 4 * sizeof(float));
static_assert(sizeof(frame_placement) == 2 * sizeof(int) + sizeof(geo::mat3));
static_assert(std::has_unique_object_representations_v<run_stats>);

bool same(const feat::frame_features& a, const feat::frame_features& b) {
  return same_bits(a.keypoints, b.keypoints) && a.descriptors == b.descriptors;
}

bool same(const gate::runtime_state& a, const gate::runtime_state& b) {
  return a.ref_thumb == b.ref_thumb && a.ref_frame == b.ref_frame &&
         a.have_ref == b.have_ref && same_bits(a.last_score, b.last_score) &&
         a.consecutive_skips == b.consecutive_skips &&
         a.consecutive_deltas == b.consecutive_deltas &&
         a.cache.identical(b.cache);
}

bool same(const pipeline_state& a, const pipeline_state& b) {
  return a.result.panorama == b.result.panorama &&
         a.result.mini_panoramas == b.result.mini_panoramas &&
         a.result.panorama_bounds == b.result.panorama_bounds &&
         same_bits(a.result.placements, b.result.placements) &&
         same_bits(a.result.stats, b.result.stats) &&
         a.result.recovery == b.result.recovery && a.builder == b.builder &&
         same_bits(a.cumulative, b.cumulative) &&
         same(a.prev_features, b.prev_features) &&
         a.have_reference == b.have_reference &&
         a.consecutive_discards == b.consecutive_discards &&
         same_bits(a.pending_placements, b.pending_placements) &&
         same_bits(a.last_delta, b.last_delta) &&
         a.have_last_delta == b.have_last_delta && same(a.gate, b.gate);
}

// The call's state at a boundary, as a checkpoint.
checkpoint capture(const pipeline_state& st, const rng& drop_rng,
                   int frame_count) {
  std::optional<resil::cfcss::monitor> monitor;
  if (resil::tls.monitor != nullptr) monitor = *resil::tls.monitor;
  return {st, drop_rng, frame_count, monitor, resil::tls.report};
}

// Whether the call's state at a boundary is exactly `golden`.
bool rejoins(const checkpoint& golden, const pipeline_state& st,
             const rng& drop_rng, int frame_count) {
  const bool same_monitor = resil::tls.monitor == nullptr
                                ? !golden.monitor
                                : golden.monitor == *resil::tls.monitor;
  return golden.frame_count == frame_count && golden.drop_rng == drop_rng &&
         golden.report == resil::tls.report && same_monitor &&
         same(golden.st, st);
}

// Restores the checkpoint the armed experiment resumes from
// (rt::resume_point) and returns its frame index; 0, restoring nothing,
// when the target lies in frame 0 or before it.
int resume(const rt::frame_log& replay, pipeline_state& st, rng& drop_rng,
           int frame_count) {
  const auto point = rt::resume_point(replay);
  if (!point || *point == 0) return 0;
  const rt::boundary& b = replay.boundaries[*point];
  const auto& golden = std::any_cast<const checkpoint&>(b.app);
  if (golden.frame_count != frame_count) return 0;
  st = golden.st;
  drop_rng = golden.drop_rng;
  if (golden.monitor) *resil::tls.monitor = *golden.monitor;
  resil::tls.report = golden.report;
  rt::resume_at(b);
  return static_cast<int>(*point);
}

// The log this call records into: the golden run's first call, unless it
// reports mini-panoramas through on_mini_panorama (an experiment resumed
// past a close would skip that callback).  A second call empties the log,
// whose boundaries could no longer say which call they belong to.
rt::frame_log* recording_log(const pipeline_config& config) {
  rt::frame_log* log = rt::tls.record;
  if (log == nullptr) return nullptr;
  if (log->recordings++ > 0 || config.on_mini_panorama) {
    log->boundaries.clear();
    return nullptr;
  }
  log->entry = rt::tls.c;
  return log;
}

// The golden log this call may resume from: an experiment's, before its
// flip, entering the call exactly as the golden run entered its one
// recorded call.
const rt::frame_log* replay_log() {
  const rt::frame_log* log = rt::tls.replay;
  if (log == nullptr || log->recordings != 1 || log->boundaries.empty() ||
      rt::tls.fired || !(rt::tls.c == log->entry)) {
    return nullptr;
  }
  return log;
}

}  // namespace

summary_result summarize(const video::video_source& source,
                         const pipeline_config& config) {
  rt::frame_log* const record = recording_log(config);
  const rt::frame_log* const replay = replay_log();

  const bool hardened = config.hardening.enabled();
  std::optional<resil::session> hardening(std::nullopt);
  if (hardened) hardening.emplace(config.hardening);

  // Real-time gating: resolved once per run (flag/env beaten by an explicit
  // config request).  Off is the exact pipeline, bit-identical — hook
  // stream included — to builds without the gate subsystem.
  const gate::level glevel = gate::resolve(config.gate.request);
  const bool gating = glevel != gate::level::off;

  pipeline_state st(config);
  st.result.stats.frames_total = source.frame_count();

  const match::match_params matcher = config.matcher();
  rng drop_rng(config.seed ^ 0xd20bULL);

  auto record_placement = [&](int frame_index, const geo::mat3& transform) {
    frame_placement placement;
    placement.frame_index = frame_index;
    placement.frame_to_anchor = transform;
    st.pending_placements.push_back(placement);
  };

  auto reset_builder = [&] {
    st.pending_placements.clear();
    st.builder = stitch::mini_panorama_builder(config.max_panorama_pixels,
                                               config.gain_compensation);
    st.cumulative = geo::mat3::identity();
    st.have_reference = false;
    st.consecutive_discards = 0;
  };

  auto close_mini_panorama = [&] {
    if (!st.builder.empty()) {
      auto pano = st.builder.render();
      if (!pano.empty()) {
        const int pano_index = st.result.stats.mini_panoramas;
        for (auto& placement : st.pending_placements) {
          placement.panorama_index = pano_index;
          st.result.placements.push_back(placement);
        }
        st.result.panorama_bounds.push_back(st.builder.content_bounds());
        st.result.mini_panoramas.push_back(std::move(pano));
        ++st.result.stats.mini_panoramas;
        if (config.on_mini_panorama) {
          config.on_mini_panorama(pano_index,
                                  st.result.mini_panoramas.back());
        }
      }
    }
    reset_builder();
  };

  /// Containment for the mini-panorama close itself: the final render walks
  /// the whole canvas, so corrupted canvas state can crash there.  The
  /// degradation is losing that one mini-panorama, not the summary.
  auto close_mini_panorama_contained = [&] {
    if (!hardened) {
      close_mini_panorama();
      return;
    }
    if (const auto failure = resil::attempt(close_mini_panorama)) {
      ++resil::tls.report.panoramas_dropped;
      ++resil::tls.report.frames_degraded;
      reset_builder();
    }
  };

  const int frame_count =
      static_cast<int>(rt::ctrl(source.frame_count()));

  // The stage-graph spine: the executor owns CFCSS transitions, watchdog
  // budgets, the recovery boundary, lane selection, and — clean lane only —
  // the multi-frame lookahead that keeps the prefetchable prefix of frames
  // t+1..t+k in flight while frame t is matched and composited.  What
  // remains below is stage definitions plus mini-panorama policy.
  const auto full_extract = [&config](const img::image_u8& frame) {
    return feat::orb_extract(frame, config.orb);
  };
  pipeline::frame_executor exec(
      config.hardening, frame_count, config.frames_in_flight,
      [&source](int index) { return source.frame(index); }, full_extract,
      [&config](const img::image_u8& frame,
                const feat::frame_features& features) {
        return feat::orb_verify_features(frame, features, config.orb);
      },
      config.scheduler,
      // Gated runs prefetch acquisition only: whether (and over which ROI)
      // extraction happens is decided per frame behind the gate stage.
      /*acquire_only=*/gating);

  // Remembers the frame the reference feature set describes (the
  // extrapolator refines predicted motion against its pixels) and re-seeds
  // the descriptor cache after a full extraction.
  auto note_reference_frame = [&](const img::image_u8& frame) {
    if (!gating || !gate::roi_enabled(glevel)) return;
    st.gate.ref_frame = frame;
    if (gate::cache_enabled(glevel)) st.gate.cache.refill(st.prev_features);
  };

  // The two ways a processed frame reaches the canvas (dead reckoning, in
  // degrade_frame, is the recovery ladder's own).  Neither enters a stage:
  // the caller holds the composite guard, so CFCSS marks and budgets stay
  // put.
  //
  // anchor: the frame opens a mini-panorama at the identity and its
  // features become the reference set; a frame the compositor rejects is
  // discarded.
  auto anchor = [&](int index, const img::image_u8& frame,
                    feat::frame_features&& features) {
    if (!st.builder.add_frame(frame, geo::mat3::identity())) {
      ++st.result.stats.frames_discarded;
      return;
    }
    ++st.result.stats.frames_stitched;
    record_placement(index, geo::mat3::identity());
    st.prev_features = std::move(features);
    st.have_reference = true;
    st.consecutive_discards = 0;
    note_reference_frame(frame);
  };

  // place: the frame lands at the accumulated transform advanced by `delta`
  // (current -> reference) and returns true.  A placement the compositor
  // rejects (implausible accumulated drift or canvas overflow) is a hard
  // view change: the mini-panorama closes, the frame anchors the next one,
  // and place returns false.
  auto place = [&](int index, const img::image_u8& frame,
                   const geo::mat3& delta, feat::frame_features&& features) {
    const geo::mat3 frame_to_anchor = st.cumulative * delta;
    if (!st.builder.add_frame(frame, frame_to_anchor)) {
      close_mini_panorama();
      anchor(index, frame, std::move(features));
      return false;
    }
    st.cumulative = frame_to_anchor;
    record_placement(index, frame_to_anchor);
    st.prev_features = std::move(features);
    ++st.result.stats.frames_stitched;
    st.consecutive_discards = 0;
    st.last_delta = delta;
    st.have_last_delta = true;
    return true;
  };

  // --- the per-frame unit of work: acquire -> detect -> describe ->
  // --- match -> estimate -> composite, exactly the legacy statement order -
  auto frame_body = [&](int index) {
    pipeline::frame_work work = exec.obtain(index);

    // --- real-time gating: classify before any extraction ---------------
    gate::frame_class cls = gate::frame_class::full;
    bool delta_mode = false;
    gate::roi_plan plan;
    gate::extrapolation extra;
    if (gating) {
      const auto guard = exec.enter(stage_id::gate);
      if (exec.retrying() && st.gate.have_ref) {
        // A failed attempt may have computed this state from corrupted
        // values; the retry starts from a cold gate.
        st.gate.invalidate();
        ++st.result.stats.gate_invalidations;
      }
      img::image_u8 thumb =
          gate::make_thumb(work.frame, config.gate.thumb_factor);
      gate::change_stats stats;
      if (st.gate.have_ref && st.have_reference) {
        stats = gate::change_score(thumb, st.gate.ref_thumb,
                                   config.gate.thumb_search,
                                   config.gate.thumb_factor);
        // Dual-execution contract of the gate stage: recompute the
        // decision values hook-free and require bitwise agreement (both
        // lanes accumulate the same integers).
        resil::verify_recomputed(
            stage_id::gate, stats,
            [&] {
              return gate::change_score_clean(thumb, st.gate.ref_thumb,
                                              config.gate.thumb_search,
                                              config.gate.thumb_factor);
            },
            std::equal_to<gate::change_stats>());
      }
      st.gate.last_score = stats.score;
      const bool can_skip =
          gate::skip_enabled(glevel) && st.gate.have_ref &&
          st.have_reference &&
          st.gate.consecutive_skips < config.gate.max_consecutive_skips;
      const bool can_delta =
          gate::roi_enabled(glevel) && st.have_reference &&
          !st.gate.ref_frame.empty() &&
          st.gate.consecutive_deltas < config.gate.max_consecutive_deltas;
      cls = gate::classify(stats, config.gate, can_skip, can_delta);
      if (cls == gate::frame_class::skip) {
        ++st.gate.consecutive_skips;
      } else {
        // The shift and score accumulate against the last *processed*
        // frame, so a slow pan eventually crosses the motion bound even if
        // every single step is tiny.
        st.gate.ref_thumb = std::move(thumb);
        st.gate.have_ref = true;
        st.gate.consecutive_skips = 0;
      }
      if (cls == gate::frame_class::delta) {
        // Restricted processing is only committed once the extrapolated
        // model verifies against the actual pixels; otherwise the frame
        // falls back to the exact path.  The thumb-measured shift is the
        // translation prior (reference -> current content motion, so the
        // current -> reference model starts at its negation) — which is
        // how a delta frame bridges the gap across skipped frames.
        const geo::mat3 prior = geo::mat3::translation(
            -double(stats.shift_x), -double(stats.shift_y));
        extra = gate::extrapolate_alignment(work.frame, st.gate.ref_frame,
                                            prior, config.gate);
        if (extra.valid) {
          plan = gate::predict_roi(extra.delta, work.frame.width(),
                                   work.frame.height());
        }
        delta_mode = extra.valid && plan.valid;
        if (!delta_mode) cls = gate::frame_class::full;
      }
      if (cls == gate::frame_class::full) st.gate.consecutive_deltas = 0;
    }

    if (cls == gate::frame_class::skip) {
      // Near-duplicate: the canvas already shows this content; the frame
      // rides the previous placement and no feature stage runs.
      ++st.result.stats.frames_gated_skip;
      ++st.result.stats.frames_stitched;
      record_placement(index, st.cumulative);
      return;
    }

    if (gating) {
      // Extraction moved behind the gate.  The gate classifies against the
      // last processed frame, so it can never run ahead of the stitch point
      // and the executor prefetches acquisition only.  Full frames extract
      // everywhere, delta frames only over the newly-revealed ROI strips.
      if (delta_mode) {
        exec.extract(work, [&](const img::image_u8& frame) {
          return gate::extract_roi(frame, plan.fresh, config.orb,
                                   config.gate.roi_margin);
        });
      } else {
        exec.extract(work, full_extract);
      }
    }
    st.result.stats.keypoints_detected += work.features.size();

    // --- VS_KDS: selective computation ----------------------------------
    if (!delta_mode && config.approx.alg == algorithm::vs_kds) {
      work.features = subsample_features(work.features,
                                         config.approx.kds_keypoint_fraction);
    }
    if (!delta_mode) {
      st.result.stats.keypoints_matched_on += work.features.size();
    }

    if (delta_mode) {
      // --- restricted processing: extrapolated alignment ----------------
      // The refined model replaces match + estimate; compositing still
      // runs in full.  The reference feature set is carried across the
      // step (descriptor reuse) instead of re-extracted.
      ++st.result.stats.frames_gated_delta;
      ++st.gate.consecutive_deltas;
      const int w = work.frame.width();
      const int h = work.frame.height();
      const int border = config.orb.fast.border;
      feat::frame_features carried;
      if (const auto inv = extra.delta.inverse()) {
        if (gate::cache_enabled(glevel)) {
          st.gate.cache.rebase(*inv, w, h, border);
          st.result.stats.keypoints_reused += st.gate.cache.size();
          st.gate.cache.insert(work.features);
          carried = st.gate.cache.snapshot();
        } else {
          carried =
              gate::rebase_features(st.prev_features, *inv, w, h, border);
          st.result.stats.keypoints_reused += carried.size();
          for (std::size_t i = 0; i < work.features.size(); ++i) {
            carried.keypoints.push_back(work.features.keypoints[i]);
            carried.descriptors.push_back(work.features.descriptors[i]);
          }
        }
      } else {
        carried = work.features;
      }

      const auto guard = exec.enter(stage_id::composite);
      // A delta frame re-references its pixels but keeps the descriptor
      // cache it just rebased (no refill).
      if (place(index, work.frame, extra.delta, std::move(carried))) {
        st.gate.ref_frame = work.frame;
      }
      return;
    }

    if (!st.have_reference) {
      // First (usable) frame anchors the mini-panorama.
      const auto guard = exec.enter(stage_id::composite);
      anchor(index, work.frame, std::move(work.features));
      return;
    }

    std::optional<stitch::alignment> aligned;
    {
      const auto guard = exec.enter(stage_id::match);
      aligned = stitch::align_frames(
          work.features, st.prev_features, matcher, config.alignment,
          config.seed + static_cast<std::uint64_t>(index) * 7919u);
    }

    if (!aligned) {
      if (++st.consecutive_discards <= config.discard_limit) {
        ++st.result.stats.frames_discarded;
        return;
      }
      // The view changed beyond recovery: close this mini-panorama and
      // anchor a new one at this frame.
      const auto guard = exec.enter(stage_id::composite);
      close_mini_panorama();
      anchor(index, work.frame, std::move(work.features));
      return;
    }

    st.result.stats.total_matches += aligned->matches;
    if (aligned->kind == stitch::model_kind::homography) {
      ++st.result.stats.homography_alignments;
    } else {
      ++st.result.stats.affine_alignments;
    }

    const auto guard = exec.enter(stage_id::composite);
    if (place(index, work.frame, aligned->transform,
              std::move(work.features))) {
      note_reference_frame(work.frame);
    }
  };

  // --- graceful degradation: the bottom rungs of the policy ladder -------
  // Step 1: place the frame by dead reckoning with the last successful
  // motion model (the compositor still paints it, just at its predicted
  // position; the reference features stay those of the last aligned frame,
  // so `cumulative` is deliberately not advanced).  Step 2: close the
  // mini-panorama and skip the frame — persistent corruption in the open
  // panorama's state cannot outlive a re-anchor.
  auto degrade_frame = [&](int index) {
    ++resil::tls.report.frames_degraded;
    if (gating) {
      // Dead-reckoned frames advance the canvas without a trusted model:
      // everything the gate learned before the failure is suspect.
      st.gate.invalidate();
      ++st.result.stats.gate_invalidations;
    }
    if (st.have_reference && st.have_last_delta) {
      const bool placed = !resil::attempt([&] {
        const img::image_u8 frame = exec.reacquire(index);
        const geo::mat3 frame_to_anchor = st.cumulative * st.last_delta;
        if (!st.builder.add_frame(frame, frame_to_anchor)) {
          throw crash_error(crash_kind::abort,
                            "degraded placement rejected by compositor");
        }
        record_placement(index, frame_to_anchor);
        ++st.result.stats.frames_stitched;
        st.consecutive_discards = 0;
      });
      if (placed) return;
    }
    ++st.result.stats.frames_discarded;
    ++resil::tls.report.frames_skipped;
    if (const auto failure = resil::attempt(close_mini_panorama)) {
      ++resil::tls.report.panoramas_dropped;
      reset_builder();
    }
  };

  // --- campaign checkpoints: record, resume, rejoin ----------------------
  // The golden run records each boundary.  An experiment restores the last
  // one its flip has not reached; once the flip has fired, a boundary
  // whose state is the golden one ends the run with rt::rejoined.
  const auto boundary = [&](int index) {
    const auto at = static_cast<std::size_t>(index);
    if (record != nullptr) {
      rt::record_boundary(*record, capture(st, drop_rng, frame_count));
    } else if (replay != nullptr && rt::tls.fired &&
               at < replay->boundaries.size() &&
               rejoins(std::any_cast<const checkpoint&>(
                           replay->boundaries[at].app),
                       st, drop_rng, frame_count)) {
      throw rt::rejoined{at};
    }
  };
  const int first_frame =
      replay != nullptr ? resume(*replay, st, drop_rng, frame_count) : 0;

  for (int index = first_frame; index < frame_count; ++index) {
    boundary(index);
    // --- VS_RFD: random input sampling ---------------------------------
    // The drop decision is drawn for every frame (whatever the variant) so
    // all variants see identical RNG streams downstream — and it is drawn
    // outside the recovery boundary so a frame retry cannot re-roll it.
    const bool drop = drop_rng.chance(config.approx.rfd_drop_fraction);
    if (config.approx.alg == algorithm::vs_rfd && drop) {
      ++st.result.stats.frames_dropped_rfd;
      continue;
    }
    exec.run_frame(
        st,
        [&] {
          frame_body(index);
          exec.end_frame();
        },
        [&] { degrade_frame(index); });
  }
  boundary(frame_count);
  close_mini_panorama_contained();

  if (!hardened) {
    st.result.panorama = stitch::montage(st.result.mini_panoramas);
  } else if (const auto failure = resil::attempt([&] {
               st.result.panorama = stitch::montage(st.result.mini_panoramas);
             })) {
    // Even the montage is contained: an empty summary is a detected,
    // degraded output rather than a dead process.
    ++resil::tls.report.frames_degraded;
    st.result.panorama = img::image_u8{};
  }

  if (hardened && config.hardening.calibration.has_value()) {
    // End-of-run symptom detectors (Section V-D): no golden knowledge, just
    // the calibrated envelope.
    resil::tls.report.output_checked = true;
    resil::tls.report.output_verdict = fault::run_detectors(
        st.result.panorama, *config.hardening.calibration);
  }
  if (hardened) st.result.recovery = hardening->current_report();
  return st.result;
}

hardening_calibration calibrate_hardening(const video::video_source& source,
                                          pipeline_config profile_config,
                                          int frames, double budget_factor) {
  profile_config.hardening = resil::hardening_config{};
  rt::session profile;
  const img::image_u8 golden = summarize(source, profile_config).panorama;
  hardening_calibration out;
  out.stage_budgets =
      resil::derive_stage_budgets(profile.stats(), frames, budget_factor);
  out.calibration = fault::calibrate_detectors({golden});
  return out;
}

}  // namespace vs::app
