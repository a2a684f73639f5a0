// Morsel-driven parallel execution support for the operator layer.
//
// The leaves of a physical plan are embarrassingly parallel over their
// seed sets: a ReachabilityScan runs one independent BFS per source node,
// and a ProductExpand runs one independent product search per start
// assignment (Thm 5.1's enumeration). This header provides the machinery
// the operators in core/ops.cc use to exploit that:
//
//   ResolveNumThreads    EvalOptions::num_threads -> a concrete lane count
//                        (0 = ECRPQ_THREADS env, else hardware concurrency)
//   ParallelMorsels      N lanes pulling [begin, end) morsels off a shared
//                        atomic cursor (ThreadPool::Shared supplies lanes)
//   SharedSubsetPool     thread-safe relation state-subset interning for
//                        searches whose frontier is expanded by many lanes
//   ShardedVisitedTable  the open-addressing config visited table of
//                        ops.cc, sharded by structural config hash with a
//                        striped lock per shard, for shared-frontier
//                        expansion of a single product search
//   FrontierQueue        the shared work queue + termination detection for
//                        that expansion
//
// Everything here is engine-internal; the public surface of parallelism
// is EvalOptions::num_threads / ::cancellation (the
// token itself lives in util/cancellation.h) and the api layer's
// snapshot protocol (api/database.h).

#ifndef ECRPQ_CORE_PARALLEL_H_
#define ECRPQ_CORE_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "core/ops.h"
#include "util/cancellation.h"
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

/// Thread-safe variant of ops.cc's relation state-subset interner, shared
/// by every lane of one shared-frontier product search. Intern ids are
/// dense and stable. Get is on the expansion hot path: the shared lock
/// only guards the store_ vector's growth — the returned reference
/// targets a std::map node (pointer-stable, immutable after insert), so
/// it stays valid after the lock is released. The serial engine keeps its
/// lock-free pool.
class SharedSubsetPool {
 public:
  int Intern(std::vector<StateId> subset) {
    {
      std::shared_lock<std::shared_mutex> lock(mutex_);
      auto it = ids_.find(subset);
      if (it != ids_.end()) return it->second;
    }
    std::unique_lock<std::shared_mutex> lock(mutex_);
    auto [it, inserted] = ids_.emplace(std::move(subset), 0);
    if (inserted) {
      it->second = static_cast<int>(store_.size());
      store_.push_back(&it->first);
    }
    return it->second;
  }

  const std::vector<StateId>& Get(int id) const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return *store_[id];
  }

 private:
  mutable std::shared_mutex mutex_;
  std::map<std::vector<StateId>, int> ids_;
  // Pointers into ids_ keys: stable across map growth (node-based).
  std::vector<const std::vector<StateId>*> store_;
};

/// Structural FNV-1a hash of a product configuration (padmask, per-track
/// nodes, per-relation interned subset ids). Shard selection and the
/// generic probing mode of the visited tables both key on it.
uint64_t HashProductConfig(const ProductConfig& c);

/// splitmix64 finalizer, used to spread packed config codes over slots.
uint64_t MixHash64(uint64_t x);

/// Word-packing of product configurations (see ops.cc's VisitedTable):
/// padmask + per-track node ids + per-relation subset ids in one uint64
/// when the shape fits. Subset ids are assigned dynamically, so TryPack
/// can fail mid-search once an id outgrows its bit field — tables then
/// fall back to structural hashing.
struct ConfigCodec {
  int tracks = 0;
  int relations = 0;
  int node_bits = 0;
  int subset_bits = 0;
  bool packable = false;  ///< the shape fits 64 bits at all

  ConfigCodec() = default;
  ConfigCodec(int tracks, int relations, int num_nodes);

  bool TryPack(const ProductConfig& c, uint64_t* out) const;

  /// Exact inverse of TryPack: rebuilds the configuration a code encodes.
  /// Only valid for codes TryPack produced under this codec. Resizes
  /// `out`'s vectors, so a reused scratch config never reallocates.
  void Unpack(uint64_t code, ProductConfig* out) const;
};

/// Outcome of a concurrent visited-table insert.
enum class VisitedInsert {
  kNew,       ///< not seen before; the caller owns expanding this config
  kPresent,   ///< already claimed (here or by another lane)
  kDeferred,  ///< table at its occupancy gate; retry after the next barrier
};

/// Lock-free open-addressing set of packed config codes — the contended
/// hot path of level-synchronous parallel expansion. One relaxed CAS per
/// novel config, one relaxed load per duplicate; no locks, no per-insert
/// allocation. Codes are stored as `code + 1` so 0 can mark an empty
/// slot; the all-ones code (whose increment wraps to 0) gets a dedicated
/// one-bit side table, because ConfigCodec can legally use all 64 bits.
///
/// Growth is cooperative, not concurrent: Insert never resizes. Past the
/// occupancy gate (3/4 of capacity) it returns kDeferred and the caller
/// parks the config until the level barrier, where a single thread calls
/// Grow() and re-inserts the parked configs. The gate keeps probe chains
/// bounded under concurrency: capacity is at least 1024, so the slack
/// above the gate (capacity / 4 >= 256) covers every lane that can pass
/// the gate check simultaneously (lane counts are clamped to 256).
class EpochVisitedSet {
 public:
  explicit EpochVisitedSet(size_t initial_capacity = 1024);

  /// Thread-safe. kNew exactly once per distinct code across all lanes.
  VisitedInsert Insert(uint64_t code);

  /// True when `pending` more inserts would push the load factor past
  /// ~1/2 — the barrier-phase growth trigger.
  bool ShouldGrow(uint64_t pending) const;

  /// Doubles capacity and rehashes. Single-threaded use only (call at a
  /// level barrier, never while any lane may Insert).
  void Grow();

  /// Exact at quiescence.
  uint64_t size() const;

 private:
  std::unique_ptr<std::atomic<uint64_t>[]> slots_;
  size_t capacity_ = 0;  // power of two
  size_t limit_ = 0;     // occupancy gate (capacity - capacity / 4)
  std::atomic<uint64_t> size_{0};
  std::atomic<bool> all_ones_claimed_{false};
};

/// Morsel size for splitting a frontier of `count` configs over `lanes`:
/// below the serial threshold the whole frontier is one morsel (so
/// ParallelMorsels runs it inline — tiny levels never pay the pool
/// hand-off), above it each lane gets ~4 contiguous ranges for locality
/// with enough morsels to absorb skew.
size_t AdaptiveGrain(size_t count, int lanes);

/// The visited/dedup table of a shared-frontier product search: one
/// open-addressing table per shard, shard chosen by structural config
/// hash, each shard guarded by its own mutex (striped locking). Shards
/// start in packed mode when the config shape fits one word and migrate
/// independently to structural hashing when an interned subset id
/// outgrows its bit field. Insert-only; ids are not exposed (the parallel
/// search carries configs in its work items instead of indexing a global
/// discovery array).
class ShardedVisitedTable {
 public:
  /// `shards` is rounded up to a power of two.
  ShardedVisitedTable(const ConfigCodec& codec, int shards);

  /// True when `c` was not present (the caller owns expanding it).
  bool Insert(const ProductConfig& c);

  /// Total configurations across shards (exact only at quiescence).
  uint64_t size() const;

 private:
  struct Shard {
    std::mutex mutex;
    bool packed = false;
    size_t size = 0;
    std::vector<int32_t> slots;  // index into configs, or -1
    std::vector<uint64_t> keys;  // packed codes (packed mode only)
    std::vector<ProductConfig> configs;
    std::vector<uint64_t> hashes;  // structural hashes, parallel to configs
  };

  void InsertSlotPacked(Shard& s, uint64_t code, int32_t id);
  void InsertSlotGeneric(Shard& s, uint64_t hash, int32_t id);
  void GrowOrMigrate(Shard& s, bool migrate);

  ConfigCodec codec_;
  std::vector<std::unique_ptr<Shard>> shards_;
  uint64_t shard_mask_ = 0;
};

/// The visited table of level-synchronous parallel product search: packed
/// configs dedup through the lock-free EpochVisitedSet, configs whose
/// subset ids outgrew the codec's bit fields fall back to the striped-
/// lock ShardedVisitedTable. Subset ids are interned once per distinct
/// state set, so within one run a given config is deterministically
/// packable or not — every lane routes it to the same sub-table and
/// exactly-once claiming holds across the split.
class HybridVisitedTable {
 public:
  HybridVisitedTable(const ConfigCodec& codec, int lanes);

  /// Thread-safe. kDeferred only on the packed path (the fallback locks).
  VisitedInsert Insert(const ProductConfig& c);

  /// As Insert for a code the caller already packed under the same codec.
  VisitedInsert InsertPacked(uint64_t code) { return packed_.Insert(code); }

  /// Barrier-phase maintenance: grows the packed set until `pending`
  /// deferred re-inserts fit under the load target. Single-threaded use
  /// only; guarantees the re-inserts cannot defer again.
  void MaintainAtBarrier(uint64_t pending);

  uint64_t size() const;
  const ConfigCodec& codec() const { return codec_; }

 private:
  ConfigCodec codec_;
  EpochVisitedSet packed_;
  ShardedVisitedTable generic_;
};

/// Shared frontier of one parallel product search: lanes pop batches of
/// configurations, expand them, and push newly discovered ones. Built-in
/// termination detection (empty queue + no lane mid-batch = done) and a
/// poison flag for cancellation/budget aborts.
class FrontierQueue {
 public:
  /// Pops up to `max_batch` configs. Returns false when the search is
  /// finished (or aborted) and no work remains; blocks while other lanes
  /// are still expanding (their output may refill the queue).
  bool PopBatch(size_t max_batch, std::vector<ProductConfig>* out);

  /// Pushes a lane's newly discovered configs; `last_batch_done` must be
  /// true when the lane is done expanding its current batch (pairs with
  /// the PopBatch that handed the batch out).
  void PushBatch(std::vector<ProductConfig>&& batch, bool last_batch_done);

  /// Wakes every lane and makes further PopBatch calls return false.
  void Abort();

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<ProductConfig> queue_;
  int active_ = 0;  // lanes between PopBatch and PushBatch(last=true)
  bool done_ = false;
};

}  // namespace ecrpq

#endif  // ECRPQ_CORE_PARALLEL_H_
