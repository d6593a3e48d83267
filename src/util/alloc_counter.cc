// Counting replacements for the global allocation functions. Linked
// ONLY into binaries that measure heap traffic (bench/hotpath, the
// allocation-regression test); production targets keep the default
// allocator untouched.

#include "util/alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

#include "obs/metrics.h"

namespace ucr {
namespace alloc_counter_internal {

std::atomic<uint64_t> g_news{0};
std::atomic<uint64_t> g_bytes{0};

}  // namespace alloc_counter_internal

uint64_t AllocationCount() {
  return alloc_counter_internal::g_news.load(std::memory_order_relaxed);
}

uint64_t AllocatedBytes() {
  return alloc_counter_internal::g_bytes.load(std::memory_order_relaxed);
}

void PublishAllocationGauge() {
  if constexpr (obs::kEnabled) {
    static obs::Gauge& gauge = obs::Registry::Global().GetGauge(
        "ucr_heap_allocations",
        "Global operator new invocations since process start (only in "
        "binaries linking the counting allocator)");
    gauge.Set(static_cast<int64_t>(AllocationCount()));
  }
}

}  // namespace ucr

namespace {

// Threads inside an obs::ScopedAllocExclusion scope (audit-writer
// formatting, sampled shadow-oracle re-resolution) allocate off the
// books: their traffic is deliberate observability work, not hot-path
// leakage, and excluding it keeps the 0-allocs/query bound meaningful
// with sampling enabled.
void CountOne(std::size_t size) noexcept {
  if (ucr::obs::AllocCountingSuspended()) return;
  ucr::alloc_counter_internal::g_news.fetch_add(1, std::memory_order_relaxed);
  ucr::alloc_counter_internal::g_bytes.fetch_add(size,
                                                 std::memory_order_relaxed);
}

void* CountedAllocate(std::size_t size) noexcept {
  CountOne(size);
  if (size == 0) size = 1;
  return std::malloc(size);
}

void* CountedAllocateAligned(std::size_t size, std::size_t align) noexcept {
  CountOne(size);
  if (size == 0) size = align;
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded);
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = CountedAllocate(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  void* p = CountedAllocate(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocate(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocate(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = CountedAllocateAligned(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = CountedAllocateAligned(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAllocateAligned(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAllocateAligned(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, std::size_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, std::size_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
