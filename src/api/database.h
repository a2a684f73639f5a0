// Session facade: the single public entry point of the library.
//
//   GraphDb g;
//   ... load nodes/edges ...
//   Database db(std::move(g));
//   auto prepared = db.Prepare("Ans(y) <- ($start, p, y), 'advisor'+(p)");
//   auto cursor = prepared.value().Execute(Params().Set("start", "ann"));
//   while (cursor.value().Next()) { ... cursor.value().tuple() ... }
//
// A Database owns the graph, a relation registry (a copy of the shared
// built-ins, extensible per session), the session-default EvalOptions, and
// an LRU plan cache keyed by query text: preparing the same text twice
// reuses the compiled plan (parse, optimization, relation automata,
// analysis) instead of redoing the query-dependent work.
//
// Concurrency model
// -----------------
// A Database is safe for inter-query parallelism: any number of threads
// may call Prepare / Execute / Exists and run PreparedQuery executions on
// one shared Database concurrently. The implementation is a snapshot
// protocol:
//
//   - the graph is guarded by a reader/writer lock: every execution holds
//     it shared for its whole engine run; MutateGraph takes it exclusive,
//     applies the mutation, and invalidates the caches before readers
//     resume;
//   - the CSR GraphIndex is an immutable snapshot behind a shared_ptr:
//     executions pin the current snapshot and keep using it even while a
//     newer one is built (the swap happens under a mutex, the old
//     snapshot dies with its last execution);
//   - the LRU plan cache (and its hit/miss counters) is mutex-guarded;
//     the per-plan physical-plan memo has its own lock in CompiledPlan.
//
// NOT thread-safe: mutable_graph() (a bare reference for single-threaded
// loading — use MutateGraph once queries may be in flight) and reading
// graph() while a writer is inside MutateGraph.

#ifndef ECRPQ_API_DATABASE_H_
#define ECRPQ_API_DATABASE_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/prepared_query.h"
#include "core/evaluator.h"
#include "graph/graph.h"
#include "graph/index.h"
#include "query/parser.h"
#include "util/status.h"

namespace ecrpq {

class DurableLog;
struct DurabilityOptions;
struct WalRecoveryInfo;

struct DatabaseOptions {
  /// Session-default evaluation options (engine choice, budgets,
  /// num_threads, ...).
  EvalOptions eval;

  /// Maximum number of compiled plans kept in the LRU cache (0 disables
  /// caching).
  size_t plan_cache_capacity = 64;

  // ---- delta-snapshot compaction policy (see ApplyDelta) ----

  /// Fold delta segments into a fresh base once the overlay holds more
  /// than this fraction of the base's edges. Keeps the touched-node
  /// directory (one extra binary search per row lookup on delta
  /// snapshots) small relative to the data.
  double compact_delta_fraction = 0.10;
  /// ... or once this many segments have stacked up, whatever the edge
  /// volume (each batch adds one segment; a long chain of tiny batches
  /// should still fold eventually).
  size_t compact_max_segments = 32;
  /// Compact on a background thread (spawned lazily on first trigger).
  /// When false, a triggering ApplyDelta folds synchronously before
  /// returning — deterministic, used by tests and single-threaded tools.
  bool background_compaction = true;
};

// EdgeSpec and GraphMutation — the batched-write value types — moved to
// graph/graph.h so the WAL layer can serialize them without depending
// on this facade; they remain visible here through that include.

/// What a Database::ApplyDelta batch did.
struct MutationSummary {
  int added_edges = 0;
  int removed_edges = 0;
  /// remove_edges entries that matched no existing edge (unknown node,
  /// unknown label, or edge not present).
  int skipped_removes = 0;
  int new_nodes = 0;
  // Post-batch graph totals.
  int num_nodes = 0;
  int num_edges = 0;
  uint64_t version = 0;
  /// True when the index advanced via the O(delta) overlay path; false
  /// when there was no index to advance (first use or a stale snapshot)
  /// and the next reader full-builds lazily.
  bool delta_applied = false;
  /// True when a durable Database rejected the batch (degraded WAL):
  /// nothing was applied. Only the legacy ApplyDelta wrappers report
  /// this way — durable writers should call CommitDelta and get a
  /// typed Status instead.
  bool rejected = false;
  /// LSN the batch committed at (0 on a non-durable Database).
  uint64_t lsn = 0;
};

class Database {
 public:
  // Out of line: member construction/destruction needs the complete
  // DurableLog type (database.cc sees wal/durable.h; this header only
  // forward-declares it).
  explicit Database(GraphDb graph, DatabaseOptions options = {});

  // A session is an identity: outstanding PreparedQuery/ResultCursor
  // handles point back into it, and the LRU cache holds self-referential
  // iterators, so copying or moving would dangle both.
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  ~Database();

  // ---- durability (src/wal/) ----

  /// Opens a crash-safe Database backed by the write-ahead log in
  /// `dir`: flocks the dir, loads the newest checkpoint snapshot,
  /// replays the WAL tail through the ApplyDelta machinery (truncating
  /// at the first torn/corrupt record), and arranges for every
  /// subsequent CommitDelta to append to the log BEFORE touching the
  /// graph. On a fresh dir the graph starts as `seed` and an initial
  /// checkpoint is published (it pins node/symbol ids for id-level log
  /// records — OpenDurable fails rather than run without one). When
  /// the dir already holds data, `seed` is ignored: the recovered
  /// state wins. `recovery` (optional) receives what recovery found.
  static Result<std::unique_ptr<Database>> OpenDurable(
      const std::string& dir, const DurabilityOptions& durability,
      DatabaseOptions options = {}, GraphDb seed = GraphDb(),
      WalRecoveryInfo* recovery = nullptr);

  /// The durable write path: appends the batch to the WAL (fsyncing
  /// per the configured policy), then applies it exactly like
  /// ApplyDelta. The ack (an ok Result) implies the configured
  /// durability point. Fails with kUnavailable ("DEGRADED: ...") when
  /// the log can't accept writes — nothing is applied in that case, so
  /// memory never runs ahead of what recovery can reproduce. On a
  /// non-durable Database this is plain ApplyDelta in a Result.
  Result<MutationSummary> CommitDelta(const GraphMutation& mutation);
  /// Id-level overload; ids are validated (not DCHECKed) so a bad
  /// batch is rejected before it reaches the log.
  Result<MutationSummary> CommitDelta(const std::vector<Edge>& add,
                                      const std::vector<Edge>& remove);

  /// fsyncs outstanding WAL records now regardless of policy (SIGTERM
  /// drain). Ok on a non-durable Database.
  Status FlushDurable();

  /// When degraded, attempts recovery: repairs the WAL tail, probes the
  /// disk, and retries a pending MutateGraph checkpoint. Returns true
  /// when the write path is healthy after the call. Cheap when healthy;
  /// serving loops call it periodically.
  bool ProbeDurability();

  bool durable() const { return wal_ != nullptr; }
  /// True when durable writes are currently rejected (sick disk or a
  /// failed MutateGraph checkpoint pending retry).
  bool write_degraded() const;
  /// The underlying log, for stats introspection (null when
  /// non-durable).
  const DurableLog* durable_log() const { return wal_.get(); }
  /// LSN of the last batch applied to the graph (0 when non-durable).
  uint64_t applied_lsn() const {
    return applied_lsn_.load(std::memory_order_relaxed);
  }

  const GraphDb& graph() const { return graph_; }

  /// Mutable graph access for single-threaded loading. Mutations can grow
  /// the alphabet, so cached plans are dropped; outstanding PreparedQuery
  /// handles keep their (possibly stale) plans and re-resolve constants
  /// per execution. The cached GraphIndex snapshot is dropped with the
  /// plans and rebuilt lazily on the next execution. NOT safe while other
  /// threads execute queries — use MutateGraph for that.
  GraphDb& mutable_graph() {
    ClearPlanCache();
    return graph_;
  }

  /// Thread-safe mutation: runs `fn` with exclusive access to the graph
  /// (all concurrent executions drain first and block until `fn`
  /// returns), then invalidates the plan cache and the GraphIndex
  /// snapshot. Executions that pinned the old snapshot before the write
  /// finish against it; later executions see the new graph and a fresh
  /// snapshot.
  /// NOTE: this is the heavyweight escape hatch — `fn` can do anything to
  /// the graph, so the index snapshot is dropped wholesale and the next
  /// reader pays a full O(V+E) rebuild (coalesced: see
  /// graph_index_locked). Batched edge/node writes should use ApplyDelta,
  /// which advances the snapshot in O(batch) instead.
  /// On a durable Database the arbitrary `fn` cannot be logged as a
  /// WAL record, so durability comes from a synchronous checkpoint
  /// published before this returns; if that publish fails the write
  /// path degrades (CommitDelta rejects, ProbeDurability retries).
  void MutateGraph(const std::function<void(GraphDb&)>& fn);

  /// The O(delta) write path. Applies the batch to the graph under the
  /// exclusive writer lock (concurrent executions drain first), then
  /// advances the index by layering a delta segment onto the current
  /// snapshot (GraphIndex::ApplyDelta) instead of discarding it — cost
  /// O(|batch| + Σ degree(touched)), independent of graph size.
  /// Executions that pinned the old snapshot finish against it; the
  /// serving layer's snapshot-keyed result cache misses naturally (each
  /// delta snapshot is a distinct GraphIndexPtr). Cached plans survive
  /// unless the batch grew the alphabet (compiled automata are sized by
  /// it); constants re-resolve per execution, and plans re-cost against
  /// the new snapshot. When the overlay outgrows
  /// DatabaseOptions::compact_delta_fraction of the base (or
  /// compact_max_segments), segments are folded into a fresh base via the
  /// parallel Build — on a background thread by default.
  /// On a durable Database this forwards through CommitDelta; a WAL
  /// rejection surfaces as MutationSummary::rejected (durable callers
  /// should prefer CommitDelta for the typed error).
  MutationSummary ApplyDelta(const GraphMutation& mutation);

  /// Id-level overload: labels already interned, node ids in range
  /// (callers doing bulk ingest with ids they minted via MutateGraph /
  /// mutable_graph). `remove` entries matching no edge are skipped and
  /// counted, same as the name-level path.
  MutationSummary ApplyDelta(const std::vector<Edge>& add,
                             const std::vector<Edge>& remove);

  /// Synchronously folds the current snapshot's delta segments into a
  /// fresh base (no-op when there is no delta). Takes the shared graph
  /// guard — safe alongside executions; writers wait. Exposed for tests
  /// and tools; normal operation relies on the threshold policy.
  void CompactIndexNow();

  /// The session's CSR label index of the graph (see graph/index.h):
  /// built lazily on first use, shared by every PreparedQuery execution,
  /// and invalidated together with the plan cache on graph or relation
  /// mutation. A snapshot whose node/edge/label counters no longer match
  /// the graph is rebuilt here too (GraphDb is append-only, so the
  /// counters detect mutation through a retained mutable_graph()
  /// reference). Never null. Thread-safe: the returned snapshot is
  /// immutable and stays valid after later invalidations.
  GraphIndexPtr graph_index() const {
    std::shared_lock<std::shared_mutex> lock(graph_mutex_);
    return graph_index_locked();
  }

  /// The session's relation registry (a copy of the built-ins).
  const RelationRegistry& registry() const { return registry_; }

  /// Public shared guard over the graph for snapshot readers outside the
  /// cursor machinery — e.g. the serving layer rendering NodeName()s of a
  /// finished execution while a MutateGraph writer may be pending. Hold
  /// it only around short read sections; executions take it internally.
  std::shared_lock<std::shared_mutex> SharedReadGuard() const {
    return ReadLock();
  }

  /// Registers a custom relation (or factory) on the session. Cached
  /// plans are dropped at this mutation point: a re-registered name must
  /// not keep resolving through an old plan. Takes the writer lock, so it
  /// is safe alongside concurrent executions.
  void RegisterRelation(std::string name,
                        std::shared_ptr<const RegularRelation> relation) {
    std::unique_lock<std::shared_mutex> lock(graph_mutex_);
    ClearPlanCache();
    registry_.Register(std::move(name), std::move(relation));
  }
  void RegisterRelation(std::string name, RelationRegistry::Factory factory) {
    std::unique_lock<std::shared_mutex> lock(graph_mutex_);
    ClearPlanCache();
    registry_.Register(std::move(name), std::move(factory));
  }

  const EvalOptions& eval_options() const { return options_.eval; }

  /// Compiles `text` (or fetches it from the plan cache): parse →
  /// validate → optimize → relation automata + analysis. Thread-safe;
  /// concurrent misses on the same text may compile twice but converge on
  /// one cached plan.
  Result<PreparedQuery> Prepare(const std::string& text);

  /// One-shot convenience: Prepare (through the cache) + ExecuteAll.
  Result<QueryResult> Execute(const std::string& text,
                              const Params& params = {});

  /// One-shot satisfiability: stops at the first answer.
  Result<bool> Exists(const std::string& text, const Params& params = {});

  // ---- plan cache introspection ----

  /// Number of full O(V+E) GraphIndex::Build runs this session performed
  /// on the lazy read path (graph_index). With single-flight coalescing,
  /// N readers racing one invalidation contribute exactly 1.
  uint64_t index_full_builds() const {
    return index_full_builds_.load(std::memory_order_relaxed);
  }

  uint64_t plan_cache_hits() const {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    return hits_;
  }
  uint64_t plan_cache_misses() const {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    return misses_;
  }
  size_t plan_cache_size() const {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    return cache_.size();
  }
  void ClearPlanCache() {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    cache_.clear();
    lru_.clear();
    index_.reset();  // same invalidation point: the graph may change next
  }

 private:
  friend class PreparedQuery;
  friend class ResultCursor;

  /// Shared guard over graph_ (and registry_), held by executions for the
  /// duration of their engine run. Lock order: graph_mutex_ before
  /// cache_mutex_ / CompiledPlan::memo_mutex.
  std::shared_lock<std::shared_mutex> ReadLock() const {
    return std::shared_lock<std::shared_mutex>(graph_mutex_);
  }

  /// True when `index` is a current snapshot of graph_. Every GraphDb
  /// mutation — including add+remove sequences that leave the node/edge
  /// counts unchanged — bumps the graph's monotone version counter, and
  /// snapshots record the version they were built at, so a single compare
  /// is sound even against mutation through a retained mutable_graph()
  /// reference. Caller holds ReadLock.
  bool IndexFresh(const GraphIndexPtr& index) const {
    return index != nullptr && index->version() == graph_.version();
  }

  /// graph_index() body; the caller must hold ReadLock (shared or
  /// exclusive) so the staleness check and the rebuild read a stable
  /// graph. Single-flight: racing readers that all miss serialize on
  /// build_mutex_, the first one runs the O(V+E) build, and the rest find
  /// the fresh snapshot on their post-acquire recheck — N racing readers
  /// after one invalidation cost exactly one build. The build runs
  /// OUTSIDE cache_mutex_, so concurrent plan-cache hits never wait on
  /// it. Lock order: graph_mutex_ → build_mutex_ → cache_mutex_.
  GraphIndexPtr graph_index_locked() const {
    {
      std::lock_guard<std::mutex> lock(cache_mutex_);
      if (IndexFresh(index_)) return index_;
    }
    std::lock_guard<std::mutex> build_lock(build_mutex_);
    {
      std::lock_guard<std::mutex> lock(cache_mutex_);
      if (IndexFresh(index_)) return index_;  // a coalesced builder won
    }
    GraphIndexPtr built = GraphIndex::Build(graph_);
    index_full_builds_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(cache_mutex_);
    index_ = built;  // fresh by construction: graph stable under ReadLock
    return index_;
  }

  /// Shared tail of the ApplyDelta overloads: stamps the post-batch
  /// totals, advances (or drops) the index snapshot, clears plans iff the
  /// alphabet grew, and triggers compaction. Caller holds the exclusive
  /// graph lock; `prev`/`prev_fresh` were captured BEFORE the batch
  /// touched graph_.
  MutationSummary FinishDeltaLocked(GraphIndexPtr prev, bool prev_fresh,
                                    uint64_t pre_version, int old_num_labels,
                                    int old_num_nodes,
                                    GraphIndex::Delta* delta,
                                    MutationSummary* summary);

  /// Appends the batch to the WAL before anything touches graph_
  /// (write-ahead). No-op Ok when non-durable. Caller holds the
  /// exclusive graph lock. On success `*lsn` is the record's LSN.
  Status LogBatchLocked(const GraphMutation* mutation,
                        const std::vector<Edge>* add,
                        const std::vector<Edge>* remove, uint64_t* lsn);

  /// Serializes graph_ and publishes a checkpoint at applied_lsn_.
  /// `required` marks a checkpoint the log cannot live without (the
  /// MutateGraph path: its mutation has no WAL record) — failure then
  /// degrades the write path until ProbeDurability republishes. The
  /// caller holds the graph lock (shared or exclusive).
  Status WriteCheckpointLocked(bool required);

  bool ShouldCompact(const GraphIndexPtr& index) const {
    return index != nullptr && index->has_delta() &&
           (static_cast<double>(index->delta_edges()) >=
                options_.compact_delta_fraction *
                    std::max(index->base_edges(), 1) ||
            index->num_delta_segments() > options_.compact_max_segments);
  }

  /// Folds the current snapshot into a fresh base if (still) over
  /// threshold — the background thread's work item. Takes the shared
  /// graph guard for the whole fold: readers keep executing, writers
  /// wait (same contention profile a reader-side rebuild had).
  void CompactIfOverThreshold(bool force);
  void CompactLoop();
  /// Wakes (lazily spawning) the background compactor. Only touches
  /// compact_* state — callable with any graph/cache lock held
  /// (compact_mutex_ is a leaf in the lock order).
  void ScheduleCompaction();

  GraphDb graph_;
  DatabaseOptions options_;
  RelationRegistry registry_;

  // Durability (null/0 on an in-memory Database). wal_ is attached by
  // OpenDurable after recovery; every write-path use checks for null.
  // Lock order: graph_mutex_ (and possibly build_mutex_) before the
  // log's internal mutex; the log never takes Database locks.
  std::unique_ptr<DurableLog> wal_;
  std::atomic<uint64_t> applied_lsn_{0};
  /// A MutateGraph checkpoint failed: the in-memory state is ahead of
  /// anything recovery could reproduce, so durable writes are rejected
  /// until ProbeDurability republishes the checkpoint.
  std::atomic<bool> checkpoint_pending_{false};

  /// Readers = executions (and snapshot/prepare graph reads); writer =
  /// MutateGraph / RegisterRelation.
  mutable std::shared_mutex graph_mutex_;

  /// Serializes full index builds on the lazy read path (single-flight).
  /// Writers never take it: ApplyDelta/MutateGraph swap under the
  /// exclusive graph lock, which excludes every reader-side builder.
  mutable std::mutex build_mutex_;
  mutable std::atomic<uint64_t> index_full_builds_{0};

  /// Guards index_, lru_, cache_, hits_, misses_.
  mutable std::mutex cache_mutex_;
  mutable GraphIndexPtr index_;  // lazy CSR snapshot of graph_

  // Background compaction: lazily spawned on the first over-threshold
  // delta, woken by ScheduleCompaction, joined by the destructor.
  // compact_mutex_ is a leaf: never held while acquiring another lock.
  std::mutex compact_mutex_;
  std::condition_variable compact_cv_;
  std::thread compact_thread_;
  bool compact_pending_ = false;
  bool compact_stop_ = false;

  // LRU plan cache keyed by query text; lru_ front = most recent.
  using LruList =
      std::list<std::pair<std::string, std::shared_ptr<const CompiledPlan>>>;
  LruList lru_;
  std::unordered_map<std::string, LruList::iterator> cache_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace ecrpq

#endif  // ECRPQ_API_DATABASE_H_
