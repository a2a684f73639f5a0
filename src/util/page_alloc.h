// Page-mapped storage for the few large buffers built once per snapshot or
// checkpoint.
//
// glibc raises its mmap threshold to the size of the largest mapped block
// it has freed, so after the first multi-MB free every later snapshot
// column, build scratch and checkpoint chunk of that size is carved from a
// malloc arena instead. A freed arena block is rarely returned to the
// kernel (other live blocks pin the arena top, and each thread has its own
// arena), so the process keeps the memory of one or two whole snapshot
// generations mapped. PageAllocator sidesteps that policy for the buffers
// that need it without changing it for the rest of the process: a block of
// kPageMapMinBytes or more is its own anonymous mapping and is unmapped on
// free; smaller blocks stay with operator new.

#ifndef ECRPQ_UTIL_PAGE_ALLOC_H_
#define ECRPQ_UTIL_PAGE_ALLOC_H_

#include <cstddef>
#include <new>
#include <utility>
#include <vector>

namespace ecrpq {

/// Blocks of at least this many bytes are mapped and unmapped directly.
inline constexpr size_t kPageMapMinBytes = size_t{1} << 20;

void* PageAllocate(size_t bytes);
void PageFree(void* p, size_t bytes);

/// A std::allocator stand-in routing blocks of kPageMapMinBytes and up
/// through mmap/munmap (see the header comment). Elements constructed
/// without arguments are default-initialized, so resize(n) leaves
/// trivial elements unwritten: the pass that fills a column touches its
/// fresh pages first, on whichever lanes run that pass. Every PageVector
/// is sized once and filled completely before it is read.
template <typename T>
struct PageAllocator {
  using value_type = T;

  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) {}

  T* allocate(size_t n) { return static_cast<T*>(PageAllocate(n * sizeof(T))); }
  void deallocate(T* p, size_t n) { PageFree(p, n * sizeof(T)); }

  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  template <typename U>
  bool operator==(const PageAllocator<U>&) const {
    return true;
  }
};

template <typename T>
using PageVector = std::vector<T, PageAllocator<T>>;

}  // namespace ecrpq

#endif  // ECRPQ_UTIL_PAGE_ALLOC_H_
