#ifndef PIMBENCH_STATS_H_
#define PIMBENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <malloc.h>
#include <string>
#include <vector>

namespace pimbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double MsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

/// Linear-interpolated percentile (p in [0, 1]) of `values`; 0 when empty.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// (max - min) / median of per-window values: how far the metric moved
/// between sub-windows of one run. A run that straddled a change in the
/// machine's speed reads wide here even when its overall median looks sane.
inline double WindowSpread(const std::vector<double>& per_window) {
  if (per_window.size() < 2) return 0.0;
  const double med = Median(per_window);
  if (med == 0.0) return 0.0;
  const auto [lo, hi] =
      std::minmax_element(per_window.begin(), per_window.end());
  return (*hi - *lo) / med;
}

/// Starts a new peak-RSS measurement: returns freed heap to the system and
/// resets the kernel's high-water mark to the current resident set (Linux
/// /proc/self/clear_refs); without that support the peak covers the whole
/// process.
inline void ResetPeakRss() {
  malloc_trim(0);
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Peak resident set size of this process, in MB (VmHWM).
inline double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// FNV-1a over raw bytes, chainable through `h`.
inline uint64_t Fnv1a(const void* data, size_t n,
                      uint64_t h = 14695981039346656037ull) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace pimbench

#endif  // PIMBENCH_STATS_H_
