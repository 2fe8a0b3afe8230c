#include "cli/args.hpp"

#include "util/str.hpp"

namespace difftrace::cli {

Args::Args(const std::vector<std::string>& tokens) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const auto& token = tokens[i];
    if (!util::starts_with(token, "--")) {
      positional_.push_back(token);
      continue;
    }
    const auto body = token.substr(2);
    if (body.empty()) throw ArgError("empty option name '--'");
    if (const auto eq = body.find('='); eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--key value" unless the next token is another option (or absent):
    // then it is a boolean flag.
    if (i + 1 < tokens.size() && !util::starts_with(tokens[i + 1], "--")) {
      options_[body] = tokens[i + 1];
      ++i;
    } else {
      options_[body] = "";
    }
  }
}

std::string Args::required(const std::string& key) const {
  const auto it = options_.find(key);
  if (it == options_.end() || it->second.empty()) throw ArgError("missing required option --" + key);
  return it->second;
}

std::string Args::get_or(const std::string& key, const std::string& fallback) const {
  const auto it = options_.find(key);
  return it == options_.end() || it->second.empty() ? fallback : it->second;
}

std::optional<std::string> Args::get(const std::string& key) const {
  const auto it = options_.find(key);
  if (it == options_.end() || it->second.empty()) return std::nullopt;
  return it->second;
}

std::int64_t Args::int_in(const std::string& key, std::int64_t fallback, std::int64_t lo,
                          std::int64_t hi) const {
  const auto it = options_.find(key);
  if (it == options_.end() || it->second.empty()) return fallback;
  std::int64_t value = 0;
  try {
    std::size_t used = 0;
    value = std::stoll(it->second, &used);
    if (used != it->second.size()) throw std::invalid_argument("trailing junk");
  } catch (const std::exception&) {
    throw ArgError("option --" + key + " expects an integer, got '" + it->second + "'");
  }
  if (value < lo || value > hi)
    throw ArgError("option --" + key + " must be in [" + std::to_string(lo) + ", " +
                   std::to_string(hi) + "], got " + std::to_string(value));
  return value;
}

bool Args::flag(const std::string& key) const { return options_.contains(key); }

std::string Args::positional_at(std::size_t index, const std::string& what) const {
  if (index >= positional_.size()) throw ArgError("missing " + what);
  return positional_[index];
}

}  // namespace difftrace::cli
