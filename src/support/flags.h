// Command-line flags shared by the srra and srrad binaries: `--name=value`
// and `--name` arguments checked against a per-command vocabulary, and the
// integer parser both use for flag values.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "support/error.h"
#include "support/str.h"

namespace srra {

/// Flag names without the leading "--". Value flags take `--name=value` (a
/// bare `--name` reads as ""); switches take no value.
struct FlagVocabulary {
  std::vector<const char*> values;
  std::vector<const char*> switches;
};

/// Parsed flags by name; switches map to "".
struct Flags {
  std::map<std::string, std::string> values;

  bool has(const std::string& name) const { return values.count(name) != 0; }
  std::string get(const std::string& name, const std::string& fallback) const {
    const auto it = values.find(name);
    return it == values.end() ? fallback : it->second;
  }
};

/// Parses args[first..]; throws srra::Error on a positional argument, an
/// unknown or repeated flag, or a switch given a value.
inline Flags parse_flags(const std::vector<std::string>& args, std::size_t first,
                         const FlagVocabulary& known) {
  const auto listed = [](const std::vector<const char*>& names, const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  Flags flags;
  for (std::size_t i = first; i < args.size(); ++i) {
    const std::string& arg = args[i];
    check(starts_with(arg, "--"), cat("unexpected argument: ", arg));
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    const bool is_switch = listed(known.switches, name);
    check(is_switch || listed(known.values, name), cat("unknown flag: --", name));
    check(!is_switch || eq == std::string::npos, cat("--", name, " takes no value"));
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    check(flags.values.emplace(name, value).second, cat("duplicate flag: --", name));
  }
  return flags;
}

/// Parses the value `text` of the integer flag spelled `what`: decimal
/// digits only, at most `max_digits` (<= 18) of them, and >= min_value.
inline std::int64_t parse_count(const std::string& text, const std::string& what,
                                std::int64_t min_value, int max_digits) {
  check(!text.empty() && text.size() <= static_cast<std::size_t>(max_digits) &&
            text.find_first_not_of("0123456789") == std::string::npos,
        cat("bad ", what, " value: ", text));
  const std::int64_t value = std::strtoll(text.c_str(), nullptr, 10);
  check(value >= min_value, cat("bad ", what, " value: ", text, " (must be >= ", min_value, ")"));
  return value;
}

}  // namespace srra
