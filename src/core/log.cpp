#include "core/log.h"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <mutex>
#include <utility>

namespace vs::log {

namespace {
std::atomic<int> g_level{static_cast<int>(level::warn)};
std::mutex g_emit_mutex;
thread_local std::string g_thread_tag;

const char* label(level lvl) noexcept {
  switch (lvl) {
    case level::debug:
      return "DEBUG";
    case level::info:
      return "INFO";
    case level::warn:
      return "WARN";
    case level::error:
      return "ERROR";
    case level::off:
      return "OFF";
  }
  return "?";
}
}  // namespace

void set_level(level lvl) noexcept {
  g_level.store(static_cast<int>(lvl), std::memory_order_relaxed);
}

level get_level() noexcept {
  return static_cast<level>(g_level.load(std::memory_order_relaxed));
}

bool enabled(level lvl) noexcept {
  return static_cast<int>(lvl) >= g_level.load(std::memory_order_relaxed);
}

void emit(level lvl, const std::string& message) {
  // Compose the whole line up front and push it with one write(2): the
  // mutex orders threads within this process, the single syscall keeps the
  // line intact against forked workers writing the same stderr.
  std::string line = "[";
  line += label(lvl);
  line += "] ";
  if (!g_thread_tag.empty()) {
    line += "[";
    line += g_thread_tag;
    line += "] ";
  }
  line += message;
  line += '\n';
  const std::lock_guard<std::mutex> lock(g_emit_mutex);
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t k =
        ::write(STDERR_FILENO, line.data() + off, line.size() - off);
    if (k < 0) {
      if (errno == EINTR) continue;
      return;  // stderr is gone; logging must never take the process down
    }
    off += static_cast<std::size_t>(k);
  }
}

scoped_tag::scoped_tag(std::string tag) : prev_(std::move(g_thread_tag)) {
  g_thread_tag = std::move(tag);
}

scoped_tag::~scoped_tag() { g_thread_tag = std::move(prev_); }

}  // namespace vs::log
