// Thread-local hardening runtime: the counterpart of rt::tls for the
// fault-containment subsystem.
//
// A resil::session is installed by app::summarize when hardening is
// enabled.  While it is alive, the deep layers participate without any API
// change: stage marks feed the CFCSS monitor, and the geometry math routes
// its critical calls through `replicated` (HAFT-style dual execution).
// When no session is active every entry point collapses to one thread-local
// load and a predictable branch, so the unhardened pipeline's behaviour —
// and, critically, its instrumented-lane hook stream — is bit-identical to
// a build without this subsystem.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "core/error.h"
#include "pipeline/stage.h"
#include "resil/cfcss.h"
#include "resil/hardening.h"
#include "rt/instrument.h"

namespace vs::resil {

/// Thread-local hardening state.  One pipeline run == one session.
struct runtime_state {
  bool active = false;       ///< a session is installed
  /// Per-stage selective-replication mask (bit i == pipeline::stage_id i):
  /// stages whose dual execution runs this session.
  std::uint32_t replicate_mask = 0;
  bool in_replica = false;   ///< executing inside a replica (no nesting)
  cfcss::monitor* monitor = nullptr;  ///< stage-signature monitor (or null)
  run_report report;         ///< live accumulation for the current run
};

// local-exec + constinit for the same reasons as rt::tls (see rt/instrument.h):
// no init wrapper, and no linker TLS relaxation that would break GCC 12's
// flag-carrying UBSan null checks.
extern thread_local constinit runtime_state tls VS_RT_TLS_MODEL;

/// Whether stage `s` dual-executes in the current session (false inside a
/// replica: nested replication would quadruple cost for no extra coverage).
[[nodiscard]] inline bool stage_replicated(pipeline::stage_id s) noexcept {
  return (tls.replicate_mask & pipeline::stage_bit(s)) != 0 && !tls.in_replica;
}

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

namespace detail {
/// RAII replica context: blocks nested replication and switches the rt
/// hooks off so the replica runs the stage's hook-free clean-lane twin
/// (cheap, and invisible to the instrumented lane's dynamic-op stream).
struct replica_context {
  runtime_state& s = tls;
  rt::replica_scope clean_lane;
  replica_context() { s.in_replica = true; }
  ~replica_context() { s.in_replica = false; }
  replica_context(const replica_context&) = delete;
  replica_context& operator=(const replica_context&) = delete;
};

/// Suppresses nested replication during a primary execution (hooks stay
/// on): the enclosing `replicated` call's replica re-runs the inner
/// computation anyway, so letting inner calls check too would compound the
/// cost (2x per nesting level) for no extra coverage.
struct nesting_guard {
  runtime_state& s = tls;
  bool prev = s.in_replica;
  nesting_guard() { s.in_replica = true; }
  ~nesting_guard() { s.in_replica = prev; }
  nesting_guard(const nesting_guard&) = delete;
  nesting_guard& operator=(const nesting_guard&) = delete;
};

[[noreturn]] inline void raise_divergence(pipeline::stage_id stage) {
  ++tls.report.replica_divergences;
  throw detected_error(
      detect_kind::replica_divergence,
      std::string("dual execution diverged in stage ") +
          pipeline::stage_name(stage));
}
}  // namespace detail

/// HAFT-style selective replication of a deterministic computation
/// belonging to pipeline stage `stage` (value-producing stages): runs `f`
/// a second time on the hook-free clean lane and compares the results with
/// `equal`.  A divergence means a fault
/// struck the primary execution, so the silent corruption is converted
/// into a detected error the recovery ladder can contain.  `f` must be a
/// pure function of its captures.  Runs once (no check) when the session's
/// replication mask excludes the stage or when already inside a replica.
template <class F, class Eq>
auto replicated(pipeline::stage_id stage, F&& f, Eq&& equal) -> decltype(f()) {
  if (!stage_replicated(stage)) return f();
  auto first = [&] {
    const detail::nesting_guard primary;  // outermost call owns the check
    return f();
  }();
  {
    const detail::replica_context replica;
    auto second = f();
    if (!equal(first, second)) detail::raise_divergence(stage);
  }
  return first;
}

/// Checksum-compare dual execution for buffer-producing stages (composite
/// digests its warped patch).  The primary execution has already produced
/// its buffer; `primary_digest` digests it lazily and `replica_digest`
/// re-runs the producer on the clean lane and digests the replica's
/// buffer.  Both callbacks return a 64-bit digest; disagreement
/// raises the same detected replica divergence as `replicated`.  No-op
/// when the stage is not replicated this session.
template <class DigestPrimary, class DigestReplica>
void verify_replica(pipeline::stage_id stage, DigestPrimary&& primary_digest,
                    DigestReplica&& replica_digest) {
  if (!stage_replicated(stage)) return;
  const std::uint64_t primary = primary_digest();
  std::uint64_t replica = 0;
  {
    const detail::replica_context context;
    replica = replica_digest();
  }
  if (primary != replica) detail::raise_divergence(stage);
}

/// Predicate-form dual check: runs `check` on the clean lane and raises
/// the replica divergence when it returns false.  For verifiers that
/// re-derive per-element products of the primary result (the extraction
/// stages' per-keypoint scoring check) instead of re-running the whole
/// stage.  No-op when the stage is not replicated this session.
template <class Check>
void verify_checked(pipeline::stage_id stage, Check&& check) {
  if (!stage_replicated(stage)) return;
  bool agrees = false;
  {
    const detail::replica_context context;
    agrees = check();
  }
  if (!agrees) detail::raise_divergence(stage);
}

/// Recompute-compare against an already-produced primary result: the
/// sibling of `replicated` for callers whose primary execution happened
/// upstream (the executor's fused extraction stages and prefetched
/// frames).  Re-runs `recompute` on the clean lane and compares to `primary`
/// with `equal`.
template <class T, class F, class Eq>
void verify_recomputed(pipeline::stage_id stage, const T& primary,
                       F&& recompute, Eq&& equal) {
  if (!stage_replicated(stage)) return;
  bool agrees = false;
  {
    const detail::replica_context context;
    agrees = equal(primary, recompute());
  }
  if (!agrees) detail::raise_divergence(stage);
}

}  // namespace vs::resil
