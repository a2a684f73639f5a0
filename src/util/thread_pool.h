// Work-stealing thread pool shared by every parallel execution.
//
// The execution layer (core/parallel.h) is morsel-driven: an operator
// splits its input (seed nodes, seed rows, join rows) into small
// morsels and N lanes pull morsels from a shared atomic cursor until none
// remain. The pool's job is only to supply the lanes: RunOnWorkers(n, fn)
// runs fn(lane) on the calling thread (lane 0) plus up to n-1 pool
// threads, and blocks until every lane returned. Because morsels are
// claimed dynamically, a lane that starts late (the pool is busy serving
// another query) or runs slow simply claims fewer morsels — there is no
// static partition to unbalance.
//
// Tasks are distributed over per-worker deques; an idle worker steals
// from the back of its siblings' deques before sleeping, so concurrent
// queries (inter-query parallelism through a shared Database) interleave
// fairly instead of queueing behind one another.
//
// Deadlock-freedom rule: a lane may only block on progress its OWN lane
// group is guaranteed to make, never on acquiring a pool slot — lane 0
// always runs on the caller, so every group drives itself even when the
// pool is saturated by other queries. After the caller's own lane finishes, it
// reclaims its still-queued lane tasks and runs them inline, so a query
// whose morsels are drained never waits on another query's backlog.

#ifndef ECRPQ_UTIL_THREAD_POOL_H_
#define ECRPQ_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ecrpq {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 0; 0 = a pool that never runs
  /// anything, every lane collapses onto the caller).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process default degree of parallelism: ECRPQ_THREADS when it
  /// parses to a positive integer, else hardware concurrency, clamped to
  /// [1, 256]. The single source of truth — the shared pool is sized to
  /// it (minus the calling lane) and core/parallel.h's ResolveNumThreads
  /// resolves EvalOptions::num_threads = 0 through it.
  static int DefaultParallelism();

  /// The process-wide pool, sized to DefaultParallelism() - 1 (the
  /// caller is always lane 0). Constructed on first use, so strictly
  /// single-threaded processes (num_threads = 1 everywhere) never spawn
  /// a thread.
  static ThreadPool& Shared();

  int num_threads() const { return static_cast<int>(threads_.size()); }

  /// Runs fn(0) .. fn(lanes-1): lane 0 on the calling thread, the rest as
  /// pool tasks (capped at num_threads()). Blocks until every lane
  /// finished. `fn` must not submit nested RunOnWorkers waits from inside
  /// a lane and must not throw.
  void RunOnWorkers(int lanes, const std::function<void(int)>& fn);

 private:
  struct Worker {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void Submit(std::function<void()> task);
  bool TryRunOne(int self);
  void WorkerLoop(int self);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  // Sleep/wake protocol: pending_ counts queued-but-unclaimed tasks.
  std::mutex sleep_mutex_;
  std::condition_variable wake_cv_;
  int pending_ = 0;
  bool stop_ = false;

  std::size_t next_ = 0;  // round-robin submit cursor (under sleep_mutex_)
};

}  // namespace ecrpq

#endif  // ECRPQ_UTIL_THREAD_POOL_H_
