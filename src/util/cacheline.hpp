// Cache-line geometry and false-sharing avoidance helpers.
//
// Lock-free structures are dominated by coherence traffic; per-thread state
// (epoch announcements, hazard slots, operation counters) must never share a
// cache line between threads. `CachePadded<T>` wraps a value in a full line.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace efrb {

// std::hardware_destructive_interference_size is not reliably provided by all
// standard libraries; 64 bytes is correct for every mainstream x86-64 and most
// AArch64 parts (128 on Apple M-series; padding to 64 is still a large win).
inline constexpr std::size_t kCacheLineSize = 64;

/// Value occupying (at least) one full cache line, aligned to a line boundary.
/// Use for elements of per-thread arrays that are written by their owner and
/// read by other threads (epoch slots, hazard-pointer slots, stat counters).
template <typename T>
struct alignas(kCacheLineSize) CachePadded {
  static_assert(!std::is_reference_v<T>, "CachePadded of a reference");

  T value{};

  CachePadded() = default;
  template <typename... Args>
  explicit CachePadded(Args&&... args) : value(std::forward<Args>(args)...) {}

  T& operator*() noexcept { return value; }
  const T& operator*() const noexcept { return value; }
  T* operator->() noexcept { return &value; }
  const T* operator->() const noexcept { return &value; }
};

static_assert(sizeof(CachePadded<char>) == kCacheLineSize);
static_assert(alignof(CachePadded<char>) == kCacheLineSize);

/// True when a plain `new` of every T takes the ordinary operator new. A type
/// aligned past __STDCPP_DEFAULT_NEW_ALIGNMENT__ (16 on x86-64) goes through
/// the aligned overload instead — glibc's memalign path, which bypasses the
/// thread cache and splits a chunk on every call. Per-operation heap types
/// (tree nodes, Info/SCX records) assert this.
template <typename... Ts>
inline constexpr bool kPlainNewAligned =
    ((alignof(Ts) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__) && ...);

}  // namespace efrb
