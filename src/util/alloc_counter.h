#ifndef UCR_UTIL_ALLOC_COUNTER_H_
#define UCR_UTIL_ALLOC_COUNTER_H_

#include <cstdint>

namespace ucr {

/// \brief Number of global `operator new` invocations (all forms)
/// since process start.
///
/// Only available in binaries that link `ucr_alloc_counter`, whose
/// translation unit replaces the global allocation functions with
/// counting wrappers around malloc/free. The counter is process-wide
/// and atomic; diff two samples around a region to measure its heap
/// traffic (`bench/hotpath` and the allocation-regression test assert
/// the hot path's steady state allocates nothing).
uint64_t AllocationCount();

/// Bytes requested from the global `operator new` (all forms) since
/// process start — the size argument summed, alignment padding and
/// frees not counted. Same availability and exclusions as
/// `AllocationCount()`; diff two samples to measure a region's heap
/// traffic in bytes.
uint64_t AllocatedBytes();

/// Publishes the current `AllocationCount()` into the metrics registry
/// as the gauge `ucr_heap_allocations`, so snapshots emitted by
/// measuring binaries (bench `--smoke`, `ucr_admin metrics`) carry the
/// allocator's view next to the query counters. No-op with metrics
/// compiled out.
void PublishAllocationGauge();

}  // namespace ucr

#endif  // UCR_UTIL_ALLOC_COUNTER_H_
