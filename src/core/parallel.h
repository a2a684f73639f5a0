// Morsel-driven parallel execution support for the operator layer.
//
// The leaves of a physical plan are embarrassingly parallel over their
// seed sets: a ReachabilityScan runs one independent BFS per source node,
// and a ProductExpand runs one independent product search per start
// assignment (Thm 5.1's enumeration) or per sideways seed row. This
// header provides the machinery the operators in core/ops.cc use to
// exploit that:
//
//   ResolveNumThreads    EvalOptions::num_threads -> a concrete lane count
//                        (0 = ECRPQ_THREADS env, else hardware concurrency)
//   ParallelMorsels      N lanes pulling [begin, end) morsels off a shared
//                        atomic cursor (ThreadPool::Shared supplies lanes)
//
// A single product search always runs on one lane: its BFS levels are
// not split across lanes.
//
// Everything here is engine-internal; the public surface of parallelism
// is EvalOptions::num_threads / ::cancellation (the
// token itself lives in util/cancellation.h) and the api layer's
// snapshot protocol (api/database.h).

#ifndef ECRPQ_CORE_PARALLEL_H_
#define ECRPQ_CORE_PARALLEL_H_

#include <cstddef>
#include <functional>

#include "util/thread_pool.h"

namespace ecrpq {

/// Resolves EvalOptions::num_threads: values >= 1 are taken literally
/// (1 = the exact legacy single-threaded path); 0 and negatives resolve
/// to the ECRPQ_THREADS environment variable when it parses to a positive
/// integer, else std::thread::hardware_concurrency. Clamped to [1, 256].
int ResolveNumThreads(int requested);

/// Runs `body(begin, end, lane)` over `count` items split into morsels of
/// `grain` items, on `lanes` lanes (capped by the shared pool + caller).
/// Lanes claim morsels from a shared atomic cursor until none remain —
/// late or slow lanes simply claim fewer. Blocks until every lane is done.
/// With lanes <= 1 or count == 0 the body runs inline on the caller.
void ParallelMorsels(int lanes, size_t count, size_t grain,
                     const std::function<void(size_t, size_t, int)>& body);

}  // namespace ecrpq

#endif  // ECRPQ_CORE_PARALLEL_H_
