#pragma once
// Cache-line / SIMD-width aligned storage for SoA field arrays.

#include <cstddef>
#include <cstdlib>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace rshc {

inline constexpr std::size_t kAlignment = 64;  // cache line & AVX-512 width

/// Minimal aligned allocator (Core Guidelines R.10: no naked malloc/free in
/// user code — containment here is the single sanctioned wrapper).
template <typename T, std::size_t Align = kAlignment>
struct AlignedAllocator {
  using value_type = T;

  // Explicit rebind: the default one cannot see through the non-type
  // alignment parameter.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    void* p = std::aligned_alloc(Align, round_up(n * sizeof(T)));
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept { std::free(p); }

  /// Default-initialize rather than value-initialize: a sized
  /// aligned_vector<double>(n) or resize(n) leaves the doubles unwritten.
  /// Pass the value to fill with, as in aligned_vector<double>(n, 0.0).
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Align>&) const noexcept {
    return true;
  }

 private:
  static std::size_t round_up(std::size_t bytes) {
    return (bytes + Align - 1) / Align * Align;
  }
};

/// Vector whose data() is 64-byte aligned — the storage type for all field
/// arrays so vectorized kernels can assume alignment. Sized construction
/// without a fill value default-initializes (see AlignedAllocator).
template <typename T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

/// `n` doubles for an array its owner always writes before it reads (the
/// RK reference state, the rhs accumulator, the rhs tile scratch). They
/// are left unwritten, so no page is touched until first use. Checked
/// builds (RSHC_CHECKS_ENABLED) fill them with quiet NaN instead, so a
/// read before the first write surfaces at the next state check.
[[nodiscard]] inline aligned_vector<double> unfilled_doubles(std::size_t n) {
#if RSHC_CHECKS_ENABLED
  return aligned_vector<double>(n, std::numeric_limits<double>::quiet_NaN());
#else
  return aligned_vector<double>(n);
#endif
}

}  // namespace rshc
