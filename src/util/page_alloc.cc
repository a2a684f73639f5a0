#include "util/page_alloc.h"

#include <sys/mman.h>

#include <new>

namespace ecrpq {

void* PageAllocate(size_t bytes) {
  if (bytes < kPageMapMinBytes) return ::operator new(bytes);
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void PageFree(void* p, size_t bytes) {
  if (bytes < kPageMapMinBytes) {
    ::operator delete(p);
    return;
  }
  munmap(p, bytes);
}

}  // namespace ecrpq
