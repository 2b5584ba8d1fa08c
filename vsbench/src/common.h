// Small helpers the workloads share: seeded order generation and timing.
#pragma once

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace vsbench {

/// splitmix64 step: a well-mixed 64-bit value from any seed.
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seed of one workload's input stream: the run seed mixed with a per-
/// workload tag, so workloads never share a stream.
[[nodiscard]] inline std::uint64_t stream_seed(std::uint64_t seed,
                                               const std::string& tag) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : tag) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return mix64(seed ^ h);
}

/// Fisher-Yates shuffle driven by mix64 (identical on every platform).
template <class T>
void seeded_shuffle(std::vector<T>& items, std::uint64_t seed) {
  std::uint64_t state = seed;
  for (std::size_t i = items.size(); i > 1; --i) {
    state = mix64(state);
    std::swap(items[i - 1], items[state % i]);
  }
}

/// printf-style formatting into a std::string (report lines).
[[nodiscard]] inline std::string strf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));
inline std::string strf(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return buf;
}

/// Median of `repeats` timings of `f`, in seconds (set-up is timed several
/// times in a run so one slow repetition does not move the figure).
template <class F>
[[nodiscard]] double median_seconds(int repeats, F&& f) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    const auto start = bench_clock::now();
    f(i);
    seconds.push_back(ms_between(start, bench_clock::now()) / 1000.0);
  }
  return median(std::move(seconds));
}

}  // namespace vsbench
