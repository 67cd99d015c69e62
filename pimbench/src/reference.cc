#include "reference.h"

#include <algorithm>
#include <numeric>
#include <random>
#include <unordered_map>
#include <utility>

#include "stats.h"

namespace pimbench {

namespace {

const char* const kWords[] = {
    "item",   "person", "gold",        "vintage", "phoenix", "college",
    "male",   "female", "category",    "price",   "auction", "bidder",
    "seller", "region", "description", "africa"};

bool Separator(char c) { return c == ' ' || c == '<' || c == '>' || c == '/'; }

}  // namespace

ReferenceWork::ReferenceWork() {
  std::mt19937_64 rng(42);
  while (text_.size() < (32u << 10)) {
    text_ += std::string("<") + kWords[rng() % 16] + ">";
    const int n = 3 + static_cast<int>(rng() % 12);
    for (int i = 0; i < n; ++i) {
      text_ += kWords[rng() % 16] + std::to_string(rng() % 500) + " ";
    }
    text_ += "</x>";
  }
  const size_t n = (4u << 20) / sizeof(uint32_t);
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::shuffle(order.begin(), order.end(), rng);
  next_.resize(n);
  for (size_t i = 0; i < n; ++i) next_[order[i]] = order[(i + 1) % n];
}

double ReferenceWork::TimeMs() {
  const int64_t t0 = NowNs();
  std::unordered_map<std::string, uint32_t> counts;
  const size_t n = text_.size();
  for (size_t i = 0; i < n;) {
    while (i < n && Separator(text_[i])) ++i;
    size_t j = i;
    while (j < n && !Separator(text_[j])) ++j;
    if (j > i) ++counts[text_.substr(i, j - i)];
    i = j;
  }
  std::vector<std::pair<uint32_t, std::string>> sorted;
  for (const auto& [word, count] : counts) sorted.emplace_back(count, word);
  std::sort(sorted.begin(), sorted.end());
  uint32_t at = at_;
  for (int s = 0; s < 8000; ++s) at = next_[at];
  at_ = at;
  sink_ += sorted.size() + at;
  return MsBetween(t0, NowNs());
}

}  // namespace pimbench
