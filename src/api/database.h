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
// The graph is held once: as a GraphIndex snapshot (graph/index.h), the
// only adjacency, plus a GraphDb catalog of node names, labels and counts
// with no out-lists (GraphDb::TakeAdjacency). The constructor and
// OpenDurable build the first snapshot from the seed graph and free the
// seed's arc arena; writes advance the snapshot by deltas, and compaction
// folds the deltas into a new base.
//
// Concurrency model
// -----------------
// A Database is safe for inter-query parallelism: any number of threads
// may call Prepare / Execute / Exists and run PreparedQuery executions on
// one shared Database concurrently. The implementation is a snapshot
// protocol:
//
//   - the graph is guarded by a reader/writer lock: every execution holds
//     it shared for its whole engine run; writers (CommitDelta,
//     MutateGraph) take it exclusive and install the next snapshot before
//     readers resume;
//   - the CSR GraphIndex is an immutable snapshot behind a shared_ptr:
//     executions pin the current snapshot and keep using it even while a
//     newer one is built (the swap happens under a mutex, the old
//     snapshot dies with its last execution);
//   - the LRU plan cache (and its hit/miss counters) is mutex-guarded;
//     the per-plan physical-plan memo has its own lock in CompiledPlan.
//
// NOT thread-safe: reading graph() while a writer is inside CommitDelta or
// MutateGraph (hold SharedReadGuard() around such reads).

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
  /// True when the batch changed the graph and the snapshot advanced by
  /// a delta (GraphIndex::ApplyDelta); false for an empty batch.
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
  /// `dir`: flocks the dir, decodes the newest checkpoint straight into
  /// the columns of a base snapshot (freeing the image before the
  /// in-side inversion), replays the WAL tail as deltas (truncating
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

  /// The graph's catalog: alphabet(), num_nodes(), num_edges(),
  /// version(), NodeName(), FindNode() and StoredName() are exact, but it
  /// holds no out-lists (has_adjacency() is false; Out, HasEdge and ToNfa
  /// abort). The edges are in graph_index(): GraphToText(graph(),
  /// *graph_index()) prints the graph, and an Evaluator over graph() needs
  /// set_graph_index(graph_index()). Read it under SharedReadGuard() while
  /// writers may run.
  const GraphDb& graph() const { return graph_; }

  /// Thread-safe arbitrary mutation: materialises a scratch GraphDb from
  /// the catalog and the snapshot, runs `fn` on it with exclusive access
  /// (all concurrent executions drain first and block until the call
  /// returns), then builds a fresh snapshot from the result, frees its
  /// out-lists and drops the plan cache. Executions that pinned the old
  /// snapshot before the write finish against it.
  /// NOTE: this is the heavyweight escape hatch. Each call costs
  /// O(V + E) twice, the scratch out-lists and a full GraphIndex::Build,
  /// and holds both beside the old snapshot while it runs. Batched
  /// edge/node writes should use CommitDelta, which advances the
  /// snapshot in O(batch) instead. (There is no mutable_graph(): a
  /// Database has no GraphDb adjacency to hand out.)
  /// On a durable Database the arbitrary `fn` cannot be logged as a
  /// WAL record, so durability comes from a synchronous checkpoint
  /// published before this returns; if that publish fails the write
  /// path degrades (CommitDelta rejects, ProbeDurability retries).
  void MutateGraph(const std::function<void(GraphDb&)>& fn);

  /// The O(delta) write path. Under the exclusive writer lock
  /// (concurrent executions drain first) it resolves names in the
  /// catalog, checks each remove against the snapshot's rows and the
  /// batch's own adds, and advances the index by layering a delta
  /// segment onto the current snapshot (GraphIndex::ApplyDelta) — cost
  /// O(|batch| + Σ degree(touched)), independent of graph size.
  /// Executions that pinned the old snapshot finish against it; the
  /// serving layer's snapshot-keyed result cache misses naturally (each
  /// delta snapshot is a distinct GraphIndexPtr). Cached plans survive
  /// unless the batch grew the alphabet (compiled automata are sized by
  /// it); constants re-resolve per execution, and plans re-cost against
  /// the new snapshot. When the overlay outgrows
  /// DatabaseOptions::compact_delta_fraction of the base (or
  /// compact_max_segments), segments are folded into a fresh base
  /// (GraphIndex::Fold) — on a background thread by default.
  /// On a durable Database this forwards through CommitDelta; a WAL
  /// rejection surfaces as MutationSummary::rejected (durable callers
  /// should prefer CommitDelta for the typed error).
  MutationSummary ApplyDelta(const GraphMutation& mutation);

  /// Id-level overload: labels already interned, node ids in range
  /// (callers doing bulk ingest with ids they minted via MutateGraph or
  /// the seed). `remove` entries matching no edge are skipped and
  /// counted, same as the name-level path.
  MutationSummary ApplyDelta(const std::vector<Edge>& add,
                             const std::vector<Edge>& remove);

  /// Synchronously folds the current snapshot's delta segments into a
  /// fresh base (no-op when there is no delta). Takes the shared graph
  /// guard — safe alongside executions; writers wait. Exposed for tests
  /// and tools; normal operation relies on the threshold policy.
  void CompactIndexNow();

  /// The current snapshot of the graph (see graph/index.h), the only
  /// adjacency the session holds; every PreparedQuery execution pins one.
  /// Never null. Thread-safe: the returned snapshot is immutable and
  /// stays valid after later writes and compactions; under ReadLock it
  /// matches graph().
  GraphIndexPtr graph_index() const {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    return index_;
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

  /// Number of full O(V+E) GraphIndex::Build runs from a GraphDb this
  /// session performed: the constructor's (OpenDurable constructs over an
  /// empty graph), the seed's when OpenDurable starts a fresh dir, and
  /// one per MutateGraph. Recovery seals decoded rows and compaction
  /// folds; neither counts.
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

  /// Installs a catalog and the snapshot of the same graph (the
  /// constructor, recovery and MutateGraph), freeing the arc arena
  /// `catalog` still holds. Caller holds the exclusive graph lock, or is
  /// the only user of a Database under construction.
  void InstallLocked(GraphDb catalog, GraphIndexPtr snapshot);

  /// Shared tail of the CommitDelta overloads: records the batch in the
  /// catalog, stamps the post-batch totals, advances the snapshot by
  /// `delta`, clears plans iff the alphabet grew, and triggers
  /// compaction. Caller holds the exclusive graph lock; the pre-batch
  /// values were captured before the batch touched graph_.
  MutationSummary FinishDeltaLocked(const GraphIndexPtr& prev,
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

  /// Serializes graph_ and its snapshot and publishes a checkpoint at
  /// applied_lsn_.
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
  /// wait.
  void CompactIfOverThreshold(bool force);
  void CompactLoop();
  /// Wakes (lazily spawning) the background compactor. Only touches
  /// compact_* state — callable with any graph/cache lock held
  /// (compact_mutex_ is a leaf in the lock order).
  void ScheduleCompaction();

  GraphDb graph_;  // the catalog: names, labels, counts, no out-lists
  DatabaseOptions options_;
  RelationRegistry registry_;

  // Durability (null/0 on an in-memory Database). wal_ is attached by
  // OpenDurable after recovery; every write-path use checks for null.
  // Lock order: graph_mutex_ (and possibly fold_mutex_) before the
  // log's internal mutex; the log never takes Database locks.
  std::unique_ptr<DurableLog> wal_;
  std::atomic<uint64_t> applied_lsn_{0};
  /// A MutateGraph checkpoint failed: the in-memory state is ahead of
  /// anything recovery could reproduce, so durable writes are rejected
  /// until ProbeDurability republishes the checkpoint.
  std::atomic<bool> checkpoint_pending_{false};

  /// Readers = executions (and snapshot/prepare graph reads); writer =
  /// CommitDelta / MutateGraph / RegisterRelation.
  mutable std::shared_mutex graph_mutex_;

  /// Serializes folds (the background compactor and CompactIndexNow).
  /// Writers never take it: they swap under the exclusive graph lock,
  /// which excludes every fold.
  std::mutex fold_mutex_;
  std::atomic<uint64_t> index_full_builds_{0};

  /// Guards index_, lru_, cache_, hits_, misses_.
  mutable std::mutex cache_mutex_;
  GraphIndexPtr index_;  // the snapshot of graph_; never null

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
