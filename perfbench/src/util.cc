#include "util.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/json.h"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double host_probe_ms(int repeats) {
  std::vector<double> ms;
  volatile std::uint64_t sink = 0;
  for (int r = 0; r < repeats; ++r) {
    const std::int64_t t0 = now_ns();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 4000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = sink + x;
    ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  return median(ms);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

namespace {

// Index one past the JSON value starting at text[i] (whitespace skipped by
// the caller); npos when malformed.
std::size_t skip_value(std::string_view text, std::size_t i) {
  if (i >= text.size()) return std::string_view::npos;
  if (text[i] == '"') {
    for (std::size_t j = i + 1; j < text.size(); ++j) {
      if (text[j] == '\\') {
        ++j;
      } else if (text[j] == '"') {
        return j + 1;
      }
    }
    return std::string_view::npos;
  }
  if (text[i] == '{' || text[i] == '[') {
    int depth = 0;
    for (std::size_t j = i; j < text.size(); ++j) {
      const char c = text[j];
      if (c == '"') {
        j = skip_value(text, j);
        if (j == std::string_view::npos) return j;
        --j;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        if (--depth == 0) return j + 1;
      }
    }
    return std::string_view::npos;
  }
  std::size_t j = i;
  while (j < text.size() && text[j] != ',' && text[j] != '}' && text[j] != ']' &&
         text[j] != ' ' && text[j] != '\n' && text[j] != '\t' && text[j] != '\r') {
    ++j;
  }
  return j;
}

std::size_t skip_space(std::string_view text, std::size_t i) {
  while (i < text.size() &&
         (text[i] == ' ' || text[i] == '\n' || text[i] == '\t' || text[i] == '\r')) {
    ++i;
  }
  return i;
}

}  // namespace

std::string_view member_raw(std::string_view object, std::string_view key) {
  std::size_t i = skip_space(object, 0);
  if (i >= object.size() || object[i] != '{') return {};
  ++i;
  for (;;) {
    i = skip_space(object, i);
    if (i >= object.size() || object[i] != '"') return {};
    const std::size_t key_end = skip_value(object, i);
    if (key_end == std::string_view::npos) return {};
    const std::string_view name = object.substr(i + 1, key_end - i - 2);
    i = skip_space(object, key_end);
    if (i >= object.size() || object[i] != ':') return {};
    i = skip_space(object, i + 1);
    const std::size_t value_end = skip_value(object, i);
    if (value_end == std::string_view::npos) return {};
    if (name == key) return object.substr(i, value_end - i);
    i = skip_space(object, value_end);
    if (i >= object.size() || object[i] != ',') return {};
    ++i;
  }
}

std::string_view member_string(std::string_view object, std::string_view key) {
  const std::string_view raw = member_raw(object, key);
  if (raw.size() < 2 || raw.front() != '"') return {};
  return raw.substr(1, raw.size() - 2);
}

std::int64_t member_int(std::string_view object, std::string_view key,
                        std::int64_t fallback) {
  const std::string raw(member_raw(object, key));
  if (raw.empty()) return fallback;
  char* end = nullptr;
  const long long value = std::strtoll(raw.c_str(), &end, 10);
  return *end == '\0' ? static_cast<std::int64_t>(value) : fallback;
}

void Result::fail_check(std::string what) {
  correct = false;
  notes.push_back(std::move(what));
}

std::string Result::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char number[64];
    std::snprintf(number, sizeof number, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + srra::json_escape(metrics[i].name) + "\": {\"value\": " + number +
           ", \"unit\": \"" + srra::json_escape(metrics[i].unit) + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
