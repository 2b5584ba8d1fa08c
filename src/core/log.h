// Minimal leveled logger for the library and the benchmark harnesses.
//
// Not a general-purpose logging framework: the fault-injection campaign runs
// tens of thousands of pipeline executions, so logging in library code must
// be cheap when disabled (a single atomic level compare).
#pragma once

#include <sstream>
#include <string>

namespace vs::log {

enum class level : int { debug = 0, info = 1, warn = 2, error = 3, off = 4 };

/// Global threshold; messages below it are discarded.
void set_level(level lvl) noexcept;
[[nodiscard]] level get_level() noexcept;

/// True when a message at `lvl` would be emitted.
[[nodiscard]] bool enabled(level lvl) noexcept;

/// Emit one line to stderr ("[WARN] [tag] message\n", tag omitted when the
/// thread has none).  Line-atomic: the whole line is composed first and
/// written with a single write(2), so concurrent workers — threads in one
/// process or forked children sharing stderr — never shear each other's
/// lines.
void emit(level lvl, const std::string& message);

/// RAII log tag for the calling thread ("job 7": server job runners set one
/// so interleaved lines stay attributable); restores the previous tag on
/// exit.
class scoped_tag {
 public:
  explicit scoped_tag(std::string tag);
  ~scoped_tag();
  scoped_tag(const scoped_tag&) = delete;
  scoped_tag& operator=(const scoped_tag&) = delete;

 private:
  std::string prev_;
};

namespace detail {
inline void append(std::ostringstream&) {}
template <typename T, typename... Rest>
void append(std::ostringstream& out, const T& value, const Rest&... rest) {
  out << value;
  append(out, rest...);
}
}  // namespace detail

/// Compose a message from stream-able pieces and emit it if enabled.
template <typename... Args>
void write(level lvl, const Args&... args) {
  if (!enabled(lvl)) return;
  std::ostringstream out;
  detail::append(out, args...);
  emit(lvl, out.str());
}

template <typename... Args>
void debug(const Args&... args) {
  write(level::debug, args...);
}
template <typename... Args>
void info(const Args&... args) {
  write(level::info, args...);
}
template <typename... Args>
void warn(const Args&... args) {
  write(level::warn, args...);
}
template <typename... Args>
void error(const Args&... args) {
  write(level::error, args...);
}

}  // namespace vs::log
