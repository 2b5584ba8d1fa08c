// What produced a result: the host and build every reported number is
// attached to, plus peak-memory probes.
#pragma once

#include <cstdint>
#include <string>

#include <sys/types.h>

namespace vsbench {

struct host_info {
  unsigned nproc = 0;        ///< online CPUs
  std::string simd;          ///< active core::simd tier
  std::string build_type;    ///< CMake build type of this binary + library
  bool optimized = false;    ///< compiled with optimization
  std::string commit;        ///< source revision the build came from
  unsigned pool_width = 0;   ///< clean-lane pool width pinned for the run
  std::uint64_t seed = 0;    ///< workload seed
};

[[nodiscard]] host_info probe_host(const std::string& commit,
                                   unsigned pool_width, std::uint64_t seed);

/// One-line JSON object of `h`.
[[nodiscard]] std::string host_json(const host_info& h);

/// Peak resident set of this process, MiB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb_self();

/// Peak resident set (VmHWM) of a live process, MiB; negative when it
/// cannot be read.
[[nodiscard]] double peak_rss_mb_of(pid_t pid);

}  // namespace vsbench
