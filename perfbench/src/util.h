// Small helpers shared by the benchmark's load generator and replayer:
// clocks, order statistics, raw JSON member extraction and the result
// document the benchmark prints.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds.
std::int64_t now_ns();

/// Milliseconds one fixed, program-independent CPU loop takes on this
/// machine right now (median of `repeats`): a probe of the host's speed,
/// logged next to each window so run-to-run drift of the host can be told
/// from drift of the program.
double host_probe_ms(int repeats = 9);

/// q-quantile (0..1) by linear interpolation; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }
/// Geometric mean of positive values; 0 for an empty sample.
double geomean(const std::vector<double>& values);

/// The raw bytes of member `key` of the JSON object `object` (top level
/// only; strings are skipped correctly). Empty when absent or malformed.
/// Byte-exact, so two responses can be compared member by member without
/// re-serializing either.
std::string_view member_raw(std::string_view object, std::string_view key);
/// member_raw of a string member, without the quotes (no unescaping).
std::string_view member_string(std::string_view object, std::string_view key);
/// member_raw of an integer member; `fallback` when absent or not an integer.
std::int64_t member_int(std::string_view object, std::string_view key,
                        std::int64_t fallback = -1);

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Operation accounting plus metrics: the benchmark's result document.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< failed checks, for the log

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed answer check: the run is no longer correct.
  void fail_check(std::string what);
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}} on one line.
  std::string to_json() const;
};

}  // namespace perfbench
