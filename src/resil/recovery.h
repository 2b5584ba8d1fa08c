// Frame-level fault containment: the recovery boundary primitives used by
// app::summarize's policy ladder (retry once, then degrade gracefully).
//
// A boundary runs one unit of work (one frame's detect -> describe ->
// match -> estimate -> composite, or the final render/montage) and converts
// *recoverable* failures — simulated crashes, per-stage watchdog trips,
// CFCSS violations, replica divergences — into a contained_failure value
// the caller acts on.  Unrecoverable conditions pass through untouched:
// the global watchdog's hang_error stays a campaign-level Hang, and a
// logic_error without a fired injection is a library bug that must surface.
#pragma once

#include <optional>
#include <string>

#include "core/error.h"
#include "resil/runtime.h"
#include "rt/instrument.h"

namespace vs::resil {

/// Why a contained attempt failed.
enum class failure_kind : std::uint8_t {
  crash_segfault,
  crash_abort,
  stage_hang,
  control_flow,
  replica_divergence,
};

struct contained_failure {
  failure_kind kind = failure_kind::crash_segfault;
  std::string what;
};

/// Runs `body` inside a recovery boundary.  Returns nullopt on success, the
/// contained failure otherwise (with the detection tallied into the session
/// report and the rt unwind state re-asserted).  Rethrows unrecoverable
/// exceptions.
template <class Body>
std::optional<contained_failure> attempt(Body&& body) {
  const rt::unwind_snapshot checkpoint = rt::unwind_snapshot::capture();
  contained_failure failure;
  try {
    body();
    return std::nullopt;
  } catch (const detected_error& e) {
    switch (e.kind()) {
      case detect_kind::stage_hang:
        failure.kind = failure_kind::stage_hang;
        ++tls.report.stage_hangs;
        break;
      case detect_kind::control_flow:
        failure.kind = failure_kind::control_flow;
        break;
      case detect_kind::replica_divergence:
        failure.kind = failure_kind::replica_divergence;
        break;
    }
    failure.what = e.what();
  } catch (const crash_error& e) {
    failure.kind = e.kind() == crash_kind::segfault
                       ? failure_kind::crash_segfault
                       : failure_kind::crash_abort;
    failure.what = e.what();
    ++tls.report.crashes_contained;
  } catch (const hang_error&) {
    // Global watchdog: the run's whole step budget is gone, so a retry
    // would re-raise immediately.  Not recoverable at frame level.
    throw;
  } catch (const invalid_argument& e) {
    // A library precondition tripped.  After a fired injection that is
    // corrupted state hitting an internal assert — containable as an
    // abort.  Without one it is a genuine bug.
    if (!rt::tls.fired) throw;
    failure.kind = failure_kind::crash_abort;
    failure.what = e.what();
    ++tls.report.crashes_contained;
  } catch (const std::logic_error&) {
    // Guarded access failed without an injected fault: library bug.
    throw;
  } catch (const std::exception& e) {
    // Any other exception after a fired injection is corrupted state
    // tripping an internal assertion — the "library abort" crash class.
    // Without a fired injection it is a genuine bug.
    if (!rt::tls.fired) throw;
    failure.kind = failure_kind::crash_abort;
    failure.what = e.what();
    ++tls.report.crashes_contained;
  }
  checkpoint.restore();
  return failure;
}

}  // namespace vs::resil
