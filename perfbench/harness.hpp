// Shared pieces of the benchmark harness: command-line options, the
// result record every mode prints, and sample statistics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Parsed `--key value` arguments of one harness mode.
struct Options {
  std::map<std::string, std::string> values;

  /// Throws std::invalid_argument when `key` is absent.
  const std::string& str(const std::string& key) const;
  std::int64_t i64(const std::string& key) const;
  double f64(const std::string& key) const;
};

/// What one mode reports: named metric values, the operation tally
/// behind the result line's `attempted`/`failed`, and failed checks.
struct Result {
  std::map<std::string, double> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;

  /// Record a check; a false `ok` adds `weight` failed operations.
  void check(bool ok, const std::string& what, std::int64_t weight = 1);
  /// One JSON object on one line.
  std::string to_json() const;
};

double median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> values, double p);

/// Peak resident set (VmHWM) of process `pid` in MB; "self" reads this
/// process. Returns 0 when /proc is unreadable.
double vm_hwm_mb(const std::string& pid);

Result run_offline(const Options& options);
Result run_daemon(const Options& options);

}  // namespace perfbench
