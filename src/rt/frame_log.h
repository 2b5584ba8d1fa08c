// Frame-boundary checkpoints of a golden run (the fault campaign's
// fast-forward).
//
// A fault experiment replays its workload up to one dynamic op, flips one
// bit there and runs on.  Everything before the flip is the golden run
// again, op for op.  The golden run therefore records, at every frame
// boundary of the application, the rt state plus the application's own
// state (a frame_log).  An experiment restores the last boundary before
// its target op instead of recomputing the frames in front of it, and once
// its flip has fired it stops at the first later boundary whose state is
// the golden one again: from there on it would only repeat the golden run.
//
// The log travels with the rt::session (writable in the golden run, const
// in experiments), so a workload stays an opaque callable.  The
// application decides what its state is and when it is safe to record it
// (app::summarize records one clip's frame loop); this layer only holds it.
#pragma once

#include <any>
#include <cstdint>
#include <exception>
#include <optional>
#include <type_traits>
#include <vector>

#include "rt/instrument.h"

namespace vs::rt {

/// The recorded run's state at one frame boundary.
struct boundary {
  counters c;  ///< counters at the boundary (hook counts locate targets)
  std::uint64_t steps = 0;
  std::uint64_t stage_steps = 0;
  std::any app;  ///< the recording application's own state
};

/// The golden run's boundaries, in order.  An empty log (the workload
/// never recorded, or recorded in a way an experiment cannot resume)
/// makes every experiment run from its start.
struct frame_log {
  counters entry;  ///< counters when the recording call began
  std::vector<boundary> boundaries;
  int recordings = 0;  ///< calls that tried to record (one is resumable)
};

/// Thrown by the application when a fired experiment's state equals the
/// golden run's at a boundary.  Deliberately not a std::exception: no
/// recovery boundary and no workload handler may take it for a failure.
struct rejoined {
  std::size_t boundary = 0;  ///< index into frame_log::boundaries
};
static_assert(!std::is_base_of_v<std::exception, rejoined>);

/// Hooks in `c` that advance `plan`'s match index: the ones of its class
/// a flip can strike, within its scopes when it is scoped.  The flip lands
/// after a boundary exactly when this count at the boundary is at most
/// plan.target.
[[nodiscard]] std::uint64_t plan_sites(const fault_plan& plan,
                                       const counters& c) noexcept;

/// Records the current rt state as `log`'s next boundary, holding `app`.
void record_boundary(frame_log& log, std::any app);

/// The boundary this thread's armed plan resumes from: the last one whose
/// plan_sites count is at most the plan's target, i.e. the last one its
/// flip has not struck yet.  nullopt when the target lies before the first.
[[nodiscard]] std::optional<std::size_t> resume_point(const frame_log& log);

/// Puts this thread's session where the recorded run stood at `b`:
/// counters, step meters, and the plan's match index.
void resume_at(const boundary& b) noexcept;

}  // namespace vs::rt
