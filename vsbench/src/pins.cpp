#include "pins.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace vsbench {

pin_table pin_table::load(const std::string& path) {
  pin_table table;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    std::string value;
    if (fields >> key && std::getline(fields >> std::ws, value)) {
      table.entries_[key] = value;
    }
  }
  return table;
}

std::optional<std::string> pin_table::find(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

void pin_table::set(const std::string& key, const std::string& value) {
  entries_[key] = value;
}

void pin_table::save(const std::string& path,
                     const std::string& header) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write pin file " + path);
  std::istringstream lines(header);
  std::string line;
  while (std::getline(lines, line)) out << "# " << line << '\n';
  for (const auto& [key, value] : entries_) out << key << ' ' << value << '\n';
  if (!out) throw std::runtime_error("short write to pin file " + path);
}

std::string pin_path(const std::string& pins_dir, const std::string& name) {
  return pins_dir + "/" + name + ".txt";
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace vsbench
