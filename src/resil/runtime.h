// Thread-local hardening runtime: the counterpart of rt::tls for the
// fault-containment subsystem.
//
// A resil::session is installed by app::summarize when hardening is
// enabled.  While it is alive, the deep layers participate without any API
// change: stage marks feed the CFCSS monitor, and at level full the
// compositor checks its warped patch against a clean-lane replica
// (`verify_replica`).
// When no session is active every entry point collapses to one thread-local
// load and a predictable branch, so the unhardened pipeline's behaviour —
// and, critically, its instrumented-lane hook stream — is bit-identical to
// a build without this subsystem.
#pragma once

#include <cstdint>
#include <string>

#include "core/error.h"
#include "resil/cfcss.h"
#include "resil/hardening.h"
#include "rt/instrument.h"

namespace vs::resil {

/// Thread-local hardening state.  One pipeline run == one session.
struct runtime_state {
  bool active = false;       ///< a session is installed
  /// The composite replica runs this session (hardening level full).
  bool replicate_composite = false;
  cfcss::monitor* monitor = nullptr;  ///< stage-signature monitor (or null)
  run_report report;         ///< live accumulation for the current run
};

// local-exec + constinit for the same reasons as rt::tls (see rt/instrument.h):
// no init wrapper, and no linker TLS relaxation that would break GCC 12's
// flag-carrying UBSan null checks.
extern thread_local constinit runtime_state tls VS_RT_TLS_MODEL;

/// Report of the most recently *finished* session on this thread (the
/// campaign driver reads it after the workload returns, exactly as it reads
/// rt::tls after a run).
[[nodiscard]] const run_report& last_run_report() noexcept;

/// Zeroes last_run_report() — a campaign driver calls this before each
/// workload run so an unhardened run cannot inherit a stale report from an
/// earlier hardened run on the same thread.
void clear_last_run_report() noexcept;

/// RAII hardening session.  Saves/restores the previous thread state and
/// publishes the accumulated report to last_run_report() on destruction.
class session {
 public:
  explicit session(const hardening_config& config);
  ~session();
  session(const session&) = delete;
  session& operator=(const session&) = delete;

  /// The report accumulated so far, with the CFCSS violation count folded
  /// in (the same value the destructor will publish).
  [[nodiscard]] run_report current_report() const noexcept;

 private:
  runtime_state saved_;
  cfcss::monitor monitor_;
};

/// Stage mark: records entry into stage `v` with the active monitor.
/// No-op without a session (or below the cfcss hardening level).
inline void mark(cfcss::node v) {
  if (tls.monitor != nullptr) tls.monitor->transition(v);
}

/// Dual execution of the composite stage: the primary execution has
/// already produced its warped patch; `primary_digest` digests it lazily
/// and `replica_digest` re-warps on the hook-free clean lane (an
/// rt::replica_scope, invisible to the instrumented lane's dynamic-op
/// stream) and digests the replica's patch.  A disagreement means a fault
/// struck the primary execution, so the silent corruption becomes a
/// detected error the recovery ladder can contain.  No-op below level full.
template <class DigestPrimary, class DigestReplica>
void verify_replica(DigestPrimary&& primary_digest,
                    DigestReplica&& replica_digest) {
  if (!tls.replicate_composite) return;
  const std::uint64_t primary = primary_digest();
  std::uint64_t replica = 0;
  {
    const rt::replica_scope clean_lane;
    replica = replica_digest();
  }
  if (primary != replica) {
    ++tls.report.replica_divergences;
    throw detected_error(detect_kind::replica_divergence,
                         "dual execution diverged in stage composite");
  }
}

}  // namespace vs::resil
