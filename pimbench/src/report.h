#ifndef PIMBENCH_REPORT_H_
#define PIMBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pimbench {

/// One named figure of a run.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;   ///< how many measurements the value summarizes
  double spread = -1.0;  ///< spread across sub-windows; < 0 = not timed
  bool gated = true;     ///< in the result object, not only in the table
};

/// Everything one run reports: its metrics, the operations it attempted
/// and how many of them failed (an error or a wrong answer), and the
/// configuration that produced it.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> config;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few, for the log

  void Add(std::string name, double value, std::string unit,
           int64_t samples, double spread = -1.0) {
    metrics.push_back(
        {std::move(name), value, std::move(unit), samples, spread});
  }
  /// A figure printed in the table but left out of the result object.
  void Info(std::string name, double value, std::string unit,
            int64_t samples, double spread = -1.0) {
    metrics.push_back(
        {std::move(name), value, std::move(unit), samples, spread, false});
  }
  void Config(std::string key, std::string value) {
    config.emplace_back(std::move(key), std::move(value));
  }
  /// Counts one attempted operation; `error` non-empty marks it failed.
  void Check(const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    if (failures.size() < 10) failures.push_back(error);
  }
  /// Adds what `other` (a client's own report) holds.
  void Merge(const Report& other) {
    metrics.insert(metrics.end(), other.metrics.begin(), other.metrics.end());
    config.insert(config.end(), other.config.begin(), other.config.end());
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& f : other.failures) {
      if (failures.size() < 10) failures.push_back(f);
    }
  }
};

}  // namespace pimbench

#endif  // PIMBENCH_REPORT_H_
