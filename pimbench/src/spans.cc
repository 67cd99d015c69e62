#include "spans.h"

#include <algorithm>
#include <cstdio>

#include "alloc_count.h"
#include "stats.h"

namespace pimbench {

uint32_t SpanLog::Open(const char* name) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? kNoParent : stack_.back();
  span.request = request_;
  const uint32_t index = static_cast<uint32_t>(spans_.size());
  const uint64_t before = ThreadAllocs();
  spans_.push_back(span);
  stack_.push_back(index);
  // The recorder's own vector growth is not the program's: keep it out of
  // every open span's count.
  own_allocs_ += ThreadAllocs() - before;
  spans_.back().allocs = ProgramAllocs();
  spans_.back().start_ns = NowNs();
  return index;
}

void SpanLog::Close(uint32_t index) {
  const int64_t end = NowNs();
  const uint64_t allocs = ProgramAllocs();
  Span& span = spans_[index];
  span.end_ns = end;
  span.allocs = allocs - span.allocs;
  stack_.pop_back();
}

uint64_t SpanLog::ProgramAllocs() const { return ThreadAllocs() - own_allocs_; }

double SpanTotals::MedianAllocs() const {
  if (call_allocs.empty()) return 0.0;
  std::vector<uint64_t> sorted = call_allocs;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  return static_cast<double>(sorted[sorted.size() / 2]);
}

std::map<std::string, SpanTotals> SpanLog::Totals() const {
  std::map<std::string, SpanTotals> totals;
  for (const Span& s : spans_) {
    SpanTotals& t = totals[s.name];
    ++t.calls;
    t.total_ns += s.end_ns - s.start_ns;
    t.call_allocs.push_back(s.allocs);
  }
  return totals;
}

bool SpanLog::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"parent\": %lld, "
                 "\"request\": %llu, \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"allocs\": %llu}\n",
                 i, s.name,
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.allocs));
  }
  return std::fclose(f) == 0;
}

}  // namespace pimbench
