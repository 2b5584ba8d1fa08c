// Error taxonomy for the VS resiliency framework.
//
// The fault-injection campaign classifies a perturbed run into the paper's
// four outcomes (Mask / SDC / Crash / Hang).  Crash and Hang surface as the
// exception types below; Mask vs. SDC is decided by comparing the produced
// output against the golden output.
#pragma once

#include <stdexcept>
#include <string>

namespace vs {

/// Sub-kind of a Crash outcome, mirroring the paper's breakdown of crashes
/// into segmentation faults (~92%) and library/application aborts (~8%).
enum class crash_kind {
  segfault,  ///< memory-access violation (guarded access far out of bounds)
  abort,     ///< internal constraint violation (e.g. absurd allocation size)
};

/// Thrown by guarded accessors / sanity checks when a corrupted value would
/// have crashed the process.  The analog of SIGSEGV / SIGABRT under AFI.
class crash_error : public std::runtime_error {
 public:
  crash_error(crash_kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  [[nodiscard]] crash_kind kind() const noexcept { return kind_; }

 private:
  crash_kind kind_;
};

/// Thrown by the execution-step watchdog when a run exceeds its step budget.
/// The analog of AFI's Fault Monitor declaring a Hang.
class hang_error : public std::runtime_error {
 public:
  explicit hang_error(const std::string& what) : std::runtime_error(what) {}
};

/// What a hardening mechanism observed when it flagged an execution.  Each
/// kind maps to one detector of the resil subsystem (src/resil/).
enum class detect_kind {
  stage_hang,         ///< per-stage watchdog budget exceeded
  control_flow,       ///< CFCSS signature mismatch / illegal stage transition
  replica_divergence, ///< the composite replica disagreed
};

/// Thrown by the hardening layer when a fault is *detected* (as opposed to
/// crashing or silently corrupting): CFCSS signature checks, the composite
/// replica, and the per-stage watchdog.  The frame-level recovery
/// boundary converts these into retries / graceful degradation; when no
/// boundary is installed they classify as detected-and-stopped.
class detected_error : public std::runtime_error {
 public:
  detected_error(detect_kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  [[nodiscard]] detect_kind kind() const noexcept { return kind_; }

 private:
  detect_kind kind_;
};

/// Non-fault-related I/O failure (image file parsing and the like).
class io_error : public std::runtime_error {
 public:
  explicit io_error(const std::string& what) : std::runtime_error(what) {}
};

/// Argument / precondition violation in normal (un-injected) API use.
class invalid_argument : public std::invalid_argument {
 public:
  explicit invalid_argument(const std::string& what)
      : std::invalid_argument(what) {}
};

}  // namespace vs
