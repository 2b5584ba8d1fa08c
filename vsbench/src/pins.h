// Pinned reference outputs: one text file per workload under vsbench/pins,
// one "key value" line per pinned operation ('#' starts a comment).  The
// benchmark compares every output it produces against these, and
// `vsbench --pin WORKLOAD` regenerates a file from the sequential
// reference configuration.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace vsbench {

class pin_table {
 public:
  /// Loads `path`; a missing file yields an empty table.
  [[nodiscard]] static pin_table load(const std::string& path);

  [[nodiscard]] std::optional<std::string> find(const std::string& key) const;
  void set(const std::string& key, const std::string& value);

  /// Writes every entry, sorted by key, under a `header` comment.  Throws
  /// std::runtime_error when the file cannot be written.
  void save(const std::string& path, const std::string& header) const;

 private:
  std::map<std::string, std::string> entries_;
};

/// Path of workload `name`'s pin file inside `pins_dir`.
[[nodiscard]] std::string pin_path(const std::string& pins_dir,
                                   const std::string& name);

/// Fixed-width lowercase hex of a 64-bit digest.
[[nodiscard]] std::string hex64(std::uint64_t v);

}  // namespace vsbench
