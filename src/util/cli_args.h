// Option parsing shared by the adscope and adscoped front ends and the
// examples: `--key value` or `--key=value`; a key followed by another
// `--key` (or by nothing) is a flag with an empty value.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>

namespace adscope::cli {

/// A malformed option value; the front ends print it and exit 2.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The value `text` of option --`name` as a non-negative decimal
/// integer; throws UsageError on anything else (empty, signed,
/// non-numeric, trailing text, overflow).
inline std::uint64_t parse_u64(const std::string& name,
                               const std::string& text) {
  std::uint64_t value = 0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    throw UsageError("--" + name + " expects a non-negative integer, got '" +
                     text + "'");
  }
  return value;
}

struct Args {
  std::map<std::string, std::string> named;
  bool flag(const std::string& name) const { return named.contains(name); }
  std::string get(const std::string& name, std::string fallback = "") const {
    const auto it = named.find(name);
    return it == named.end() ? fallback : it->second;
  }
  /// The option through parse_u64(), or `fallback` when absent.
  std::uint64_t get_u64(const std::string& name, std::uint64_t fallback) const {
    const auto it = named.find(name);
    return it == named.end() ? fallback : parse_u64(name, it->second);
  }
};

inline Args parse_args(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;
    key = key.substr(2);
    if (const auto eq = key.find('='); eq != std::string::npos) {
      args.named[key.substr(0, eq)] = key.substr(eq + 1);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.named[key] = argv[++i];
    } else {
      args.named[key] = "";
    }
  }
  return args;
}

}  // namespace adscope::cli
