#include "host.h"

#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <sstream>

#include "core/simd.h"

namespace vsbench {

host_info probe_host(const std::string& commit, unsigned pool_width,
                     std::uint64_t seed) {
  host_info h;
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  h.nproc = cpus > 0 ? static_cast<unsigned>(cpus) : 1u;
  h.simd = vs::core::simd::level_name(vs::core::simd::active());
  h.build_type = VSBENCH_BUILD_TYPE;
#ifdef __OPTIMIZE__
  h.optimized = true;
#endif
  h.commit = commit.empty() ? "unknown" : commit;
  h.pool_width = pool_width;
  h.seed = seed;
  return h;
}

std::string host_json(const host_info& h) {
  std::ostringstream os;
  os << "{\"nproc\": " << h.nproc << ", \"simd\": \"" << h.simd
     << "\", \"build_type\": \"" << h.build_type
     << "\", \"optimized\": " << (h.optimized ? "true" : "false")
     << ", \"commit\": \"" << h.commit << "\", \"pool_width\": "
     << h.pool_width << ", \"seed\": " << h.seed << "}";
  return os.str();
}

double peak_rss_mb_self() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return -1.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double peak_rss_mb_of(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return -1.0;
}

}  // namespace vsbench
