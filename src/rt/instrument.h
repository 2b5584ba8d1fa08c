// Runtime instrumentation: the "virtual register file" layer.
//
// This header is the substitution for the paper's AFI tool (Application Fault
// Injection on an IBM POWER machine).  AFI flips one bit of one architectural
// register (GPR or FPR) at one random execution cycle of the unmodified
// binary.  We cannot touch architectural registers portably, so the compute
// kernels of this library route their live values through the inline hooks
// below.  Each hook
//
//   * represents one (or a small batch of) dynamic instruction(s) of a given
//     operation kind, attributed to the currently active function scope
//     (used for the Fig-8 execution profile and the perf/energy model), and
//   * is a potential fault site: when a fault plan is armed and the hook's
//     dynamic index matches the planned injection cycle, the value passing
//     through has one bit flipped, exactly once per run.
//
// Crash behaviour is reproduced by guarded address arithmetic (idx / ptr
// hooks): an injected index that lands far outside its buffer raises
// crash_error(segfault) — the analog of SIGSEGV — while a near miss silently
// reads a wrong-but-mapped location (as real hardware would).  Hang behaviour
// is reproduced by a step-budget watchdog.  Everything else runs to
// completion and is classified Mask or SDC by output comparison.
//
// All hooks compile to a single predictable branch when instrumentation is
// disabled, so normal library use pays close to nothing.
#pragma once

#include <bit>
#include <cstdint>
#include <cstddef>

#include "core/error.h"

namespace vs::rt {

/// Function scopes for attribution.  Mirrors the granularity of the paper's
/// perf profile (Fig 8) and the hot-function study (Fig 11b).
enum class fn : std::uint8_t {
  other = 0,
  video_decode,   ///< frame acquisition / synthetic generation
  fast_detect,    ///< FAST corner detection
  orb_describe,   ///< orientation + rBRIEF descriptor extraction
  match,          ///< brute-force descriptor matching
  ransac,         ///< RANSAC model estimation loop
  homography,     ///< DLT / affine solve
  warp,           ///< warpPerspective coordinate computation (hot function)
  remap,          ///< remapBilinear pixel interpolation (hot function)
  stitch,         ///< panorama compositing / blending
  quality,        ///< output quality metric (not part of the measured app)
  gate,           ///< frame-gate change score / motion extrapolation
  count_          ///< sentinel
};
inline constexpr int fn_count = static_cast<int>(fn::count_);

/// Human-readable scope name (for profiles and reports).
const char* fn_name(fn f) noexcept;

/// Dynamic-operation kinds.  int_alu/mem/branch ops flow through GPRs;
/// fp_alu ops flow through FPRs — this is what decides which injection
/// campaign (GPR vs. FPR) can target a given hook.
enum class op : std::uint8_t { int_alu = 0, mem, branch, fp_alu, count_ };
inline constexpr int op_count = static_cast<int>(op::count_);

const char* op_name(op k) noexcept;

/// Register class targeted by an injection, as in the paper.
enum class reg_class : std::uint8_t { gpr = 0, fpr = 1 };
inline constexpr int reg_class_count = 2;

/// Per-scope, per-kind dynamic operation counters.
struct counters {
  std::uint64_t by_fn[fn_count][op_count] = {};
  /// Actual fault-site hooks executed, per scope and register class.  The
  /// bulk-accounted ops above model the cost of homogeneous instruction
  /// streams; the hooks are the representative sample of live values that
  /// injections can strike.  Campaigns draw targets over these.
  std::uint64_t hooks_by_fn[fn_count][2] = {};
  /// The GPR hooks above that alloc_size executed: drawn as targets like
  /// any other, but never struck (alloc_size applies no flip), so they do
  /// not advance an armed plan's match index.
  std::uint64_t unstruck_by_fn[fn_count] = {};

  [[nodiscard]] std::uint64_t total(op k) const noexcept {
    std::uint64_t sum = 0;
    for (int f = 0; f < fn_count; ++f) sum += by_fn[f][static_cast<int>(k)];
    return sum;
  }
  [[nodiscard]] std::uint64_t fn_total(fn f) const noexcept {
    std::uint64_t sum = 0;
    for (int k = 0; k < op_count; ++k) sum += by_fn[static_cast<int>(f)][k];
    return sum;
  }
  /// GPR-class dynamic ops (int_alu + mem + branch), optionally in one scope.
  [[nodiscard]] std::uint64_t gpr_ops() const noexcept {
    return total(op::int_alu) + total(op::mem) + total(op::branch);
  }
  [[nodiscard]] std::uint64_t gpr_ops(fn f) const noexcept {
    const auto* row = by_fn[static_cast<int>(f)];
    return row[0] + row[1] + row[2];
  }
  /// FPR-class dynamic ops, optionally in one scope.
  [[nodiscard]] std::uint64_t fpr_ops() const noexcept {
    return total(op::fp_alu);
  }
  [[nodiscard]] std::uint64_t fpr_ops(fn f) const noexcept {
    return by_fn[static_cast<int>(f)][static_cast<int>(op::fp_alu)];
  }
  [[nodiscard]] std::uint64_t steps() const noexcept {
    return gpr_ops() + fpr_ops();
  }

  /// Fault-site hook counts (what campaigns draw injection targets over).
  [[nodiscard]] std::uint64_t hooks(reg_class cls) const noexcept {
    std::uint64_t sum = 0;
    for (int f = 0; f < fn_count; ++f) {
      sum += hooks_by_fn[f][static_cast<int>(cls)];
    }
    return sum;
  }
  [[nodiscard]] std::uint64_t hooks(reg_class cls, fn f) const noexcept {
    return hooks_by_fn[static_cast<int>(f)][static_cast<int>(cls)];
  }

  bool operator==(const counters&) const = default;
};

/// One planned injection: flip `bit` of the value flowing through the
/// `target`-th dynamic op of class `cls` (optionally restricted to ops inside
/// `scope`).  `reg_id` is bookkeeping for the coverage histogram (Fig 9b):
/// the architectural register the flipped value is deemed to occupy.
struct fault_plan {
  reg_class cls = reg_class::gpr;
  std::uint64_t target = 0;
  std::uint32_t bit = 0;  ///< 0..63
  std::uint32_t reg_id = 0;
  bool scoped = false;
  fn scope = fn::other;
  fn scope_b = fn::other;  ///< second accepted scope (set equal to `scope`
                           ///< when only one function is targeted)
};

struct frame_log;  // rt/frame_log.h

/// Thread-local instrumentation state.  One pipeline run == one session on
/// one thread; campaigns may run many sessions on parallel threads.
struct state {
  bool enabled = false;

  // --- attribution ---
  fn cur = fn::other;
  counters c;

  // --- injection ---
  bool armed = false;
  reg_class cls = reg_class::gpr;
  bool scoped = false;
  fn scope = fn::other;
  fn scope_b = fn::other;
  std::uint64_t match_count = 0;  ///< dynamic index within the targeted class
  std::uint64_t target = ~0ULL;
  std::uint32_t bit = 0;
  bool fired = false;  ///< the planned flip has been applied
  fn fired_scope = fn::other;  ///< scope of the hook that fired
  op fired_kind = op::int_alu; ///< op kind of the hook that fired

  // --- watchdog ---
  std::uint64_t steps = 0;
  std::uint64_t step_budget = ~0ULL;

  // --- per-stage watchdog (hardening; see src/resil/) ---
  // A stage_scope grants each pipeline stage its own step allowance so one
  // corrupted loop bound is flagged within the stage it corrupts instead of
  // only after burning the whole run's global budget — and so a frame retry
  // starts from a fresh allowance instead of inheriting a nearly-exhausted
  // one.  ~0ULL (the default) means no stage is being metered.
  std::uint64_t stage_steps = 0;
  std::uint64_t stage_budget = ~0ULL;

  // --- guarded-memory policy ---
  // An out-of-bounds access within `mem_slack` elements of the buffer reads a
  // wrapped (wrong but mapped) location; farther out raises segfault.  2^14
  // elements approximates the page-scale slack a heap buffer enjoys.
  std::uint64_t mem_slack = 1ULL << 14;

  // --- frame-boundary log (rt/frame_log.h; fault campaigns only) ---
  frame_log* record = nullptr;        ///< golden run: boundaries go here
  const frame_log* replay = nullptr;  ///< experiment: the golden run's log
};

// constinit: the state is constant-initialized, so no TLS init-on-first-use
// wrapper function is emitted for cross-TU accesses.  Besides saving a call
// per access, this is what lets the ASan+UBSan CI job run clean: UBSan's
// -fsanitize=null instruments every member access routed through the
// wrapper's returned pointer, and the wrapper itself is the only place a
// null could (in principle) appear.
//
// tls_model("local-exec"): the library is only ever linked statically into
// executables, so the most direct TLS access sequence is always legal.  It
// is also load-bearing under UBSan: for the default initial-exec model GCC
// 12 emits `add tls@gottpoff(%rip),%reg; je <null-abort>` — the null check
// consumes the add's flags — and GNU ld's IE->LE relaxation rewrites that
// add into an lea, which sets no flags, so the je reads stale flags and
// aborts with a spurious "member access within null pointer".  Local-exec
// needs no relaxation, so the flag dependency survives.
#if defined(__GNUC__) || defined(__clang__)
#define VS_RT_TLS_MODEL __attribute__((tls_model("local-exec")))
#else
#define VS_RT_TLS_MODEL
#endif
extern thread_local constinit state tls VS_RT_TLS_MODEL;

/// Whether this thread is executing on the instrumented lane (an rt session
/// is active, hooks are live).  The two-lane kernel dispatch and the
/// pipeline's frame scheduler key off this one predicate.
[[nodiscard]] inline bool instrumented() noexcept { return tls.enabled; }

namespace detail {
[[noreturn]] void raise_hang();
[[noreturn]] void raise_stage_hang();
[[noreturn]] void raise_segfault(std::int64_t index, std::size_t bound);
[[noreturn]] void raise_logic_oob(std::int64_t index, std::size_t bound);

inline bool injection_matches(state& s, reg_class cls) noexcept {
  if (!s.armed || s.cls != cls) return false;
  if (s.scoped && s.cur != s.scope && s.cur != s.scope_b) return false;
  return s.match_count++ == s.target;
}

inline void bump(state& s, op k) {
  ++s.c.by_fn[static_cast<int>(s.cur)][static_cast<int>(k)];
  const int cls = k == op::fp_alu ? 1 : 0;
  ++s.c.hooks_by_fn[static_cast<int>(s.cur)][cls];
  if (++s.steps >= s.step_budget) raise_hang();
  if (++s.stage_steps >= s.stage_budget) raise_stage_hang();
}
}  // namespace detail

/// GPR hook for a 64-bit integer value (the register image of any integer
/// the kernels compute with — indices are sign-extended as on a 64-bit ISA).
inline std::int64_t g64(std::int64_t v, op k = op::int_alu) {
  state& s = tls;
  if (!s.enabled) return v;
  detail::bump(s, k);
  if (detail::injection_matches(s, reg_class::gpr)) {
    s.armed = false;
    s.fired = true;
    s.fired_scope = s.cur;
    s.fired_kind = k;
    v = static_cast<std::int64_t>(static_cast<std::uint64_t>(v) ^
                                  (1ULL << s.bit));
  }
  return v;
}

/// GPR hook for an `int`-typed value.  The value still occupies a 64-bit
/// register (sign-extended); flips of bits 32..63 corrupt the register image
/// and matter wherever the full register feeds address arithmetic, but are
/// naturally masked when the consumer truncates back to 32 bits — exactly
/// the architectural behaviour that produces masking on real hardware.
inline int g32(int v, op k = op::int_alu) {
  state& s = tls;
  if (!s.enabled) return v;
  detail::bump(s, k);
  if (detail::injection_matches(s, reg_class::gpr)) {
    s.armed = false;
    s.fired = true;
    s.fired_scope = s.cur;
    s.fired_kind = k;
    const auto reg = static_cast<std::uint64_t>(static_cast<std::int64_t>(v)) ^
                     (1ULL << s.bit);
    v = static_cast<int>(static_cast<std::uint32_t>(reg));
  }
  return v;
}

/// GPR hook tagging a control value (loop bound / branch operand).
inline std::int64_t ctrl(std::int64_t v) { return g64(v, op::branch); }

/// FPR hook for a double value: a flip is applied to the IEEE-754 bit image.
inline double f64(double v) {
  state& s = tls;
  if (!s.enabled) return v;
  detail::bump(s, op::fp_alu);
  if (detail::injection_matches(s, reg_class::fpr)) {
    s.armed = false;
    s.fired = true;
    s.fired_scope = s.cur;
    s.fired_kind = op::fp_alu;
    v = std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) ^
                              (1ULL << s.bit));
  }
  return v;
}

/// FPR hook for a float value held in a 64-bit FPR (as on POWER, where
/// singles occupy a double-width register): flips above bit 31 of the single
/// image land in the register's unused/expanded bits and are modelled on the
/// promoted double.
inline float f32(float v) { return static_cast<float>(f64(v)); }

/// Guarded load index: the GPR hook for address arithmetic.  Counts as a
/// memory op; the (possibly corrupted) index is bounds-policed:
///   in [0, n)                         -> used as is
///   within mem_slack of the buffer    -> wrapped (wrong but mapped read)
///   far positive                      -> crash_error(segfault)
///   far negative                      -> crash_error(abort): libraries
///                                        assert on negative sizes/indices
///                                        (CV_Assert-style), which is the
///                                        paper's "library abort" crash
/// Out-of-bounds without a fired injection is a library bug and raises
/// logic_error so tests catch it.
inline std::size_t idx(std::int64_t i, std::size_t n) {
  state& s = tls;
  if (s.enabled) {
    detail::bump(s, op::mem);
    if (detail::injection_matches(s, reg_class::gpr)) {
      s.armed = false;
      s.fired = true;
      s.fired_scope = s.cur;
      s.fired_kind = op::mem;
      i = static_cast<std::int64_t>(static_cast<std::uint64_t>(i) ^
                                    (1ULL << s.bit));
    }
  }
  if (i >= 0 && static_cast<std::uint64_t>(i) < n) {
    return static_cast<std::size_t>(i);
  }
  if (!s.fired) detail::raise_logic_oob(i, n);
  const auto slack = static_cast<std::int64_t>(s.mem_slack);
  if (n > 0 && i > -slack &&
      i < static_cast<std::int64_t>(n) + slack) {
    const auto m = static_cast<std::int64_t>(n);
    return static_cast<std::size_t>(((i % m) + m) % m);
  }
  if (i < 0 || i > (std::int64_t{1} << 59)) {
    // Negative or absurd-magnitude offsets indicate a corrupted size/count
    // rather than a plain pointer: libraries validate those and abort
    // (CV_Assert-style) before any dereference happens.
    throw crash_error(crash_kind::abort,
                      "internal assertion: impossible index after injection");
  }
  detail::raise_segfault(i, n);
}

/// Sanity gate for sizes that feed allocations (canvas dimensions computed
/// from homographies, match-list reservations, ...).  A corrupted size that
/// exceeds `cap` raises crash_error(abort) — the analog of the library
/// internal-constraint aborts that make up ~8% of the paper's crashes.
inline std::size_t alloc_size(std::int64_t n, std::size_t cap) {
  state& s = tls;
  if (s.enabled) {
    detail::bump(s, op::int_alu);
    ++s.c.unstruck_by_fn[static_cast<int>(s.cur)];
  }
  if (n >= 0 && static_cast<std::uint64_t>(n) <= cap) {
    return static_cast<std::size_t>(n);
  }
  if (!s.fired) detail::raise_logic_oob(n, cap);
  throw crash_error(crash_kind::abort,
                    "allocation constraint violated after injection");
}

/// Bulk attribution of `n` dynamic ops of kind `k` without creating a fault
/// site — used for homogeneous inner loops where hooking every iteration
/// would distort runtime by 10x while adding no new fault-site diversity.
/// The per-iteration representative values still pass through real hooks.
inline void account(op k, std::uint64_t n) {
  state& s = tls;
  if (!s.enabled) return;
  s.c.by_fn[static_cast<int>(s.cur)][static_cast<int>(k)] += n;
  s.steps += n;
  if (s.steps >= s.step_budget) detail::raise_hang();
  s.stage_steps += n;
  if (s.stage_steps >= s.stage_budget) detail::raise_stage_hang();
}

/// RAII scope attribution: everything executed while alive is attributed to
/// function `f` (nesting restores the previous scope).
class scope {
 public:
  explicit scope(fn f) noexcept : prev_(tls.cur) { tls.cur = f; }
  ~scope() { tls.cur = prev_; }
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;

 private:
  fn prev_;
};

/// RAII per-stage watchdog: meters everything executed while alive against
/// `budget` steps (0 or ~0ULL disables metering).  Exceeding the budget
/// raises detected_error(stage_hang) — a *detected* symptom the frame-level
/// recovery boundary can act on, unlike the global watchdog's hang_error
/// which remains the campaign-level Hang classification.  Nesting restores
/// the enclosing stage's meter (its own elapsed steps keep accumulating).
class stage_scope {
 public:
  explicit stage_scope(std::uint64_t budget) noexcept
      : prev_steps_(tls.stage_steps), prev_budget_(tls.stage_budget) {
    tls.stage_steps = 0;
    tls.stage_budget = budget == 0 ? ~0ULL : budget;
  }
  ~stage_scope() {
    // The enclosing stage also paid for the nested stage's steps.
    tls.stage_steps = prev_steps_ + tls.stage_steps;
    tls.stage_budget = prev_budget_;
  }
  stage_scope(const stage_scope&) = delete;
  stage_scope& operator=(const stage_scope&) = delete;

 private:
  std::uint64_t prev_steps_;
  std::uint64_t prev_budget_;
};

/// RAII lane switch for dual-execution replicas (resil::replicated /
/// verify_replica): disables the hooks while alive, so the replica re-runs
/// a stage through the hook-free clean-lane twins.  That keeps the second
/// execution cheap and keeps it out of the instrumented lane's dynamic-op
/// stream — a replica must neither shift the indices fault plans address
/// nor offer the already-fired injection a second strike.  The clean twins
/// are pinned byte-identical to the instrumented kernels, so a fault-free
/// replica always agrees with a fault-free primary.
class replica_scope {
 public:
  replica_scope() noexcept : prev_(tls.enabled) { tls.enabled = false; }
  ~replica_scope() { tls.enabled = prev_; }
  replica_scope(const replica_scope&) = delete;
  replica_scope& operator=(const replica_scope&) = delete;

 private:
  bool prev_;
};

/// Snapshot of the session-level mutable instrumentation state that a
/// recovery boundary must restore before re-attempting a unit of work whose
/// first attempt unwound mid-kernel: the attribution scope (normally
/// restored by rt::scope destructors, re-asserted here for defence in
/// depth) and the per-stage watchdog meter.  Injection bookkeeping (armed /
/// fired / match_count) is deliberately NOT restored: a transient fault
/// strikes once, so a retry must not re-arm or replay the same flip.
struct unwind_snapshot {
  fn cur = fn::other;
  std::uint64_t stage_steps = 0;
  std::uint64_t stage_budget = ~0ULL;

  static unwind_snapshot capture() noexcept {
    return {tls.cur, tls.stage_steps, tls.stage_budget};
  }
  void restore() const noexcept {
    tls.cur = cur;
    tls.stage_steps = stage_steps;
    tls.stage_budget = stage_budget;
  }
};

/// RAII instrumentation session: clears counters, enables hooks, optionally
/// arms a fault plan and sets a watchdog budget; restores the previous state
/// on destruction.  One session per pipeline run.  A golden run may hand
/// the application a frame_log to record into; an experiment may hand it
/// the golden run's log to resume from.
class session {
 public:
  explicit session(frame_log* record = nullptr);
  explicit session(const fault_plan& plan, std::uint64_t step_budget = ~0ULL,
                   const frame_log* replay = nullptr);
  ~session();
  session(const session&) = delete;
  session& operator=(const session&) = delete;

  /// Counters accumulated so far in this session.
  [[nodiscard]] const counters& stats() const noexcept { return tls.c; }
  /// Whether the armed injection was actually applied.
  [[nodiscard]] bool fired() const noexcept { return tls.fired; }

 private:
  state saved_;
};

}  // namespace vs::rt
