// Minimal command-line parsing for the difftrace tool: positional
// arguments plus --name value options and --name boolean flags. Kept as a
// library so the command layer is unit-testable without spawning processes.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace difftrace::cli {

class ArgError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Args {
 public:
  /// Parses tokens (argv[1..]): "--key value" pairs, bare "--key" flags
  /// (when followed by another option or nothing), everything else
  /// positional. "--key=value" is also accepted.
  explicit Args(const std::vector<std::string>& tokens);

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept { return positional_; }
  [[nodiscard]] bool has(const std::string& key) const { return options_.contains(key); }

  /// Option value; throws ArgError when missing.
  [[nodiscard]] std::string required(const std::string& key) const;
  [[nodiscard]] std::string get_or(const std::string& key, const std::string& fallback) const;
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

  /// Integer option value in [lo, hi], or `fallback` when absent. Throws
  /// ArgError when the value is not an integer or lies outside the range.
  [[nodiscard]] std::int64_t int_in(const std::string& key, std::int64_t fallback,
                                    std::int64_t lo, std::int64_t hi) const;
  /// int_in over the whole std::int64_t range.
  [[nodiscard]] std::int64_t int_or(const std::string& key, std::int64_t fallback) const {
    return int_in(key, fallback, std::numeric_limits<std::int64_t>::min(),
                  std::numeric_limits<std::int64_t>::max());
  }
  [[nodiscard]] bool flag(const std::string& key) const;

  /// Positional at index; throws ArgError with `what` when absent.
  [[nodiscard]] std::string positional_at(std::size_t index, const std::string& what) const;

  /// Every parsed option in sorted key order (flags map to ""). The query
  /// client uses this view to forward options it does not itself consume to
  /// the serve daemon verbatim.
  [[nodiscard]] const std::map<std::string, std::string>& options() const noexcept {
    return options_;
  }

 private:
  std::vector<std::string> positional_;
  std::map<std::string, std::string> options_;  // flags map to ""
};

}  // namespace difftrace::cli
