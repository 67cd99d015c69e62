#ifndef PIMBENCH_REFERENCE_H_
#define PIMBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace pimbench {

/// A fixed piece of generic work that no change to PIMENTO can make faster
/// or slower: split a 32 KB XML-like text into words, count them in a hash
/// map of strings, sort the counts, and chase pointers through 4 MB. Timed
/// between blocks of a timed loop, on every client thread, it measures how
/// fast the machine runs while the engine is measured.
class ReferenceWork {
 public:
  ReferenceWork();

  /// Runs the work once; returns its time in ms.
  double TimeMs();

 private:
  std::string text_;
  std::vector<uint32_t> next_;
  uint32_t at_ = 0;
  uint64_t sink_ = 0;
};

}  // namespace pimbench

#endif  // PIMBENCH_REFERENCE_H_
