// What one benchmark run reports: named metrics with units, the operation
// counts behind the JSON result line, and human-readable report lines.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace vsbench {

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct run_result {
  std::vector<metric> metrics;      ///< in print order
  std::uint64_t attempted = 0;      ///< operations: clips, experiments, jobs
  std::uint64_t failed = 0;         ///< failed, rejected or mismatched
  std::vector<std::string> report;  ///< human-readable lines

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void line(std::string text) { report.push_back(std::move(text)); }
};

/// Common options every workload runs under.
struct run_options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned width = 1;  ///< campaign threads, serve clients and server pool
  std::string pins_dir;        ///< pinned reference files
  std::string run_dir;         ///< scratch for sockets, journals, logs
  std::string vs_binary;       ///< the `vs` tool (serve workload)
};

}  // namespace vsbench
