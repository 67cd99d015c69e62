#ifndef PIMBENCH_ALLOC_COUNT_H_
#define PIMBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace pimbench {

/// Heap allocations made so far by the calling thread. The benchmark binary
/// replaces the global operator new, so every allocation the library makes
/// on this thread is counted; a span's allocation count is the difference
/// of two readings.
uint64_t ThreadAllocs();

}  // namespace pimbench

#endif  // PIMBENCH_ALLOC_COUNT_H_
