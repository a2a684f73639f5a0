#include "core/parallel.h"

#include <algorithm>
#include <atomic>

namespace ecrpq {

int ResolveNumThreads(int requested) {
  if (requested >= 1) return std::min(requested, 256);
  return ThreadPool::DefaultParallelism();
}

void ParallelMorsels(int lanes, size_t count, size_t grain,
                     const std::function<void(size_t, size_t, int)>& body) {
  if (count == 0) return;
  grain = std::max<size_t>(grain, 1);
  const size_t num_morsels = (count + grain - 1) / grain;
  lanes = std::min<int>(lanes, static_cast<int>(num_morsels));
  if (lanes <= 1) {
    body(0, count, 0);
    return;
  }
  std::atomic<size_t> cursor{0};
  ThreadPool::Shared().RunOnWorkers(lanes, [&](int lane) {
    for (;;) {
      const size_t m = cursor.fetch_add(1, std::memory_order_relaxed);
      if (m >= num_morsels) return;
      const size_t begin = m * grain;
      body(begin, std::min(count, begin + grain), lane);
    }
  });
}

}  // namespace ecrpq
