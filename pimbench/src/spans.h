#ifndef PIMBENCH_SPANS_H_
#define PIMBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pimbench {

inline constexpr uint32_t kNoParent = 0xffffffffu;

/// One timed call into a library module, recorded from outside it.
struct Span {
  const char* name = "";  ///< "<module>.<Function>", a string literal
  uint32_t parent = kNoParent;
  uint64_t request = 0;  ///< shared by every span of one request
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t allocs = 0;  ///< heap allocations made inside the span
};

/// Per-name totals over a span log.
struct SpanTotals {
  int64_t calls = 0;
  int64_t total_ns = 0;
  std::vector<uint64_t> call_allocs;  ///< allocations of each call

  double MeanUs() const {
    return calls == 0 ? 0.0 : static_cast<double>(total_ns) / 1e3 / calls;
  }
  /// Allocation counts are reported as the median per call: a count, and
  /// one that does not depend on how many calls a run happened to make.
  double MedianAllocs() const;
};

/// In-memory span recorder for one thread. Spans nest by a current-span
/// stack; nothing is written until Write() at the end of the run.
class SpanLog {
 public:
  void BeginRequest(uint64_t request) { request_ = request; }

  uint32_t Open(const char* name);
  void Close(uint32_t index);

  const std::vector<Span>& spans() const { return spans_; }
  void Clear() { spans_.clear(); }

  /// Totals per span name.
  std::map<std::string, SpanTotals> Totals() const;

  /// Writes the spans as JSON lines to `path`; false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  /// This thread's allocations minus the recorder's own.
  uint64_t ProgramAllocs() const;

  std::vector<Span> spans_;
  std::vector<uint32_t> stack_;
  uint64_t request_ = 0;
  uint64_t own_allocs_ = 0;
};

/// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log != nullptr ? log->Open(name) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  uint32_t index_;
};

}  // namespace pimbench

#endif  // PIMBENCH_SPANS_H_
