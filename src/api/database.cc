#include "api/database.h"

#include "query/optimizer.h"
#include "util/status.h"
#include "wal/durable.h"
#include "wal/wal_format.h"

namespace ecrpq {

Database::Database(GraphDb graph, DatabaseOptions options)
    : graph_(std::move(graph)),
      options_(options),
      registry_(RelationRegistry::Default()) {}

Database::~Database() {
  {
    std::lock_guard<std::mutex> lock(compact_mutex_);
    compact_stop_ = true;
  }
  compact_cv_.notify_all();
  if (compact_thread_.joinable()) compact_thread_.join();
}

void Database::MutateGraph(const std::function<void(GraphDb&)>& fn) {
  std::unique_lock<std::shared_mutex> lock(graph_mutex_);
  fn(graph_);
  ClearPlanCache();  // before readers resume (lock order: graph → cache)
  if (wal_ != nullptr) {
    // fn is unloggable (arbitrary code), so the checkpoint IS its
    // durability record; failure blocks further durable writes.
    WriteCheckpointLocked(/*required=*/true);
  }
}

Status Database::LogBatchLocked(const GraphMutation* mutation,
                                const std::vector<Edge>* add,
                                const std::vector<Edge>* remove,
                                uint64_t* lsn) {
  if (wal_ == nullptr) return Status::OK();
  if (checkpoint_pending_.load(std::memory_order_relaxed)) {
    return Status::Unavailable(
        "DEGRADED: checkpoint pending after MutateGraph publish failure");
  }
  Status st = mutation != nullptr ? wal_->AppendMutation(*mutation, lsn)
                                  : wal_->AppendEdgeDelta(*add, *remove, lsn);
  if (st.ok()) applied_lsn_.store(*lsn, std::memory_order_relaxed);
  return st;
}

Status Database::WriteCheckpointLocked(bool required) {
  Status st = wal_->WriteCheckpoint(
      [&](WritableFile* file) { return EncodeCheckpoint(graph_, file); },
      applied_lsn_.load(std::memory_order_relaxed));
  if (st.ok()) {
    checkpoint_pending_.store(false, std::memory_order_relaxed);
  } else if (required) {
    checkpoint_pending_.store(true, std::memory_order_relaxed);
  }
  return st;
}

bool Database::write_degraded() const {
  return wal_ != nullptr &&
         (wal_->degraded() ||
          checkpoint_pending_.load(std::memory_order_relaxed));
}

Status Database::FlushDurable() {
  if (wal_ == nullptr) return Status::OK();
  return wal_->Flush();
}

bool Database::ProbeDurability() {
  if (wal_ == nullptr) return true;
  if (wal_->degraded() && !wal_->Probe()) return false;
  if (checkpoint_pending_.load(std::memory_order_relaxed)) {
    // Shared guard: the graph is stable (writers need it exclusive)
    // while the snapshot is reserialized and republished.
    auto read_lock = ReadLock();
    if (!WriteCheckpointLocked(/*required=*/true).ok()) return false;
  }
  return true;
}

Result<std::unique_ptr<Database>> Database::OpenDurable(
    const std::string& dir, const DurabilityOptions& durability,
    DatabaseOptions options, GraphDb seed, WalRecoveryInfo* recovery) {
  std::unique_ptr<Database> db(new Database(GraphDb(), options));
  bool loaded_checkpoint = false;
  auto load = [&](const std::string& image) -> Status {
    auto decoded = DecodeCheckpoint(image);
    if (!decoded.ok()) return decoded.status();
    db->graph_ = std::move(decoded).value();
    loaded_checkpoint = true;
    return Status::OK();
  };
  // Replay re-runs recovered batches through the normal (non-durable —
  // wal_ is not attached yet) ApplyDelta machinery: name resolution
  // and id assignment are deterministic, so the replayed graph matches
  // the one the records were logged against.
  auto replay_mutation = [&](GraphMutation&& mutation) -> Status {
    db->ApplyDelta(mutation);
    return Status::OK();
  };
  auto replay_edges = [&](std::vector<Edge>&& add,
                          std::vector<Edge>&& remove) -> Status {
    const NodeId n = db->graph_.num_nodes();
    const Symbol l = db->graph_.alphabet().size();
    for (const Edge& e : add) {
      if (e.from < 0 || e.from >= n || e.to < 0 || e.to >= n || e.label < 0 ||
          e.label >= l) {
        return Status::Internal(
            "wal edge-delta references ids beyond the recovered graph "
            "(checkpoint/log mismatch)");
      }
    }
    db->ApplyDelta(add, remove);
    return Status::OK();
  };
  WalRecoveryInfo info;
  auto log = DurableLog::Open(dir, durability, load, replay_mutation,
                              replay_edges, &info);
  if (!log.ok()) return log.status();
  db->wal_ = std::move(log).value();
  db->applied_lsn_.store(info.last_lsn, std::memory_order_relaxed);

  if (!loaded_checkpoint) {
    if (info.last_lsn > 0) {
      // Records without the checkpoint they were logged against: the
      // replay above ran from an empty graph, which is only right if
      // that is what the log started from — and every durable dir
      // publishes its initial checkpoint before the first append.
      return Status::Internal("wal segments present in " + dir +
                              " but no checkpoint — refusing to guess the "
                              "base state");
    }
    db->graph_ = std::move(seed);
    // The initial checkpoint pins node/symbol ids for id-level records;
    // a durable dir must never exist without one.
    std::unique_lock<std::shared_mutex> lock(db->graph_mutex_);
    ECRPQ_RETURN_IF_ERROR(db->WriteCheckpointLocked(/*required=*/true));
  }
  if (recovery != nullptr) *recovery = info;
  return db;
}

Result<MutationSummary> Database::CommitDelta(const GraphMutation& mutation) {
  std::unique_lock<std::shared_mutex> lock(graph_mutex_);
  // Write-ahead: the record reaches the log (and, with fsync=always,
  // the disk) before graph_ changes. A rejected append leaves the
  // graph exactly as it was — memory never runs ahead of recovery.
  uint64_t lsn = 0;
  ECRPQ_RETURN_IF_ERROR(LogBatchLocked(&mutation, nullptr, nullptr, &lsn));
  GraphIndexPtr prev;
  {
    std::lock_guard<std::mutex> cache_lock(cache_mutex_);
    prev = index_;
  }
  const bool prev_fresh = IndexFresh(prev);
  const uint64_t pre_version = graph_.version();
  const int old_num_labels = graph_.alphabet().size();
  const int old_num_nodes = graph_.num_nodes();

  MutationSummary summary;
  GraphIndex::Delta delta;
  auto resolve = [&](const std::string& name) {
    auto found = graph_.FindNode(name);
    return found.has_value() ? *found : graph_.AddNode(name);
  };
  for (const std::string& name : mutation.add_nodes) {
    if (name.empty()) {
      graph_.AddNode();
    } else {
      resolve(name);
    }
  }
  delta.added.reserve(mutation.add_edges.size());
  for (const EdgeSpec& spec : mutation.add_edges) {
    const NodeId from = resolve(spec.from);
    const NodeId to = resolve(spec.to);
    graph_.AddEdge(from, spec.label, to);  // interns the label if new
    delta.added.push_back({from, *graph_.alphabet().Find(spec.label), to});
  }
  for (const EdgeSpec& spec : mutation.remove_edges) {
    const auto from = graph_.FindNode(spec.from);
    const auto to = graph_.FindNode(spec.to);
    const auto label = graph_.alphabet().Find(spec.label);
    if (from && to && label && graph_.RemoveEdge(*from, *label, *to)) {
      delta.removed.push_back({*from, *label, *to});
    } else {
      ++summary.skipped_removes;
    }
  }
  summary.lsn = lsn;
  return FinishDeltaLocked(std::move(prev), prev_fresh, pre_version,
                           old_num_labels, old_num_nodes, &delta, &summary);
}

Result<MutationSummary> Database::CommitDelta(const std::vector<Edge>& add,
                                              const std::vector<Edge>& remove) {
  std::unique_lock<std::shared_mutex> lock(graph_mutex_);
  // Validate BEFORE logging: a record, once appended, will be replayed.
  {
    const NodeId n = graph_.num_nodes();
    const Symbol l = graph_.alphabet().size();
    for (const Edge& e : add) {
      if (e.from < 0 || e.from >= n || e.to < 0 || e.to >= n || e.label < 0 ||
          e.label >= l) {
        return Status::InvalidArgument(
            "CommitDelta: edge (" + std::to_string(e.from) + "," +
            std::to_string(e.label) + "," + std::to_string(e.to) +
            ") out of range");
      }
    }
  }
  uint64_t lsn = 0;
  ECRPQ_RETURN_IF_ERROR(LogBatchLocked(nullptr, &add, &remove, &lsn));
  GraphIndexPtr prev;
  {
    std::lock_guard<std::mutex> cache_lock(cache_mutex_);
    prev = index_;
  }
  const bool prev_fresh = IndexFresh(prev);
  const uint64_t pre_version = graph_.version();
  const int old_num_labels = graph_.alphabet().size();
  const int old_num_nodes = graph_.num_nodes();

  MutationSummary summary;
  GraphIndex::Delta delta;
  delta.added.reserve(add.size());
  for (const Edge& e : add) {
    ECRPQ_DCHECK(e.from >= 0 && e.from < graph_.num_nodes());
    ECRPQ_DCHECK(e.to >= 0 && e.to < graph_.num_nodes());
    ECRPQ_DCHECK(e.label >= 0 && e.label < graph_.alphabet().size());
    graph_.AddEdge(e.from, e.label, e.to);
    delta.added.push_back(e);
  }
  for (const Edge& e : remove) {
    if (e.from >= 0 && e.from < graph_.num_nodes() && e.to >= 0 &&
        e.to < graph_.num_nodes() && graph_.RemoveEdge(e.from, e.label, e.to)) {
      delta.removed.push_back(e);
    } else {
      ++summary.skipped_removes;
    }
  }
  summary.lsn = lsn;
  return FinishDeltaLocked(std::move(prev), prev_fresh, pre_version,
                           old_num_labels, old_num_nodes, &delta, &summary);
}

MutationSummary Database::ApplyDelta(const GraphMutation& mutation) {
  auto result = CommitDelta(mutation);
  if (result.ok()) return std::move(result).value();
  MutationSummary rejected;
  rejected.rejected = true;
  return rejected;
}

MutationSummary Database::ApplyDelta(const std::vector<Edge>& add,
                                     const std::vector<Edge>& remove) {
  auto result = CommitDelta(add, remove);
  if (result.ok()) return std::move(result).value();
  MutationSummary rejected;
  rejected.rejected = true;
  return rejected;
}

MutationSummary Database::FinishDeltaLocked(
    GraphIndexPtr prev, bool prev_fresh, uint64_t pre_version,
    int old_num_labels, int old_num_nodes, GraphIndex::Delta* delta,
    MutationSummary* summary) {
  delta->new_num_nodes = graph_.num_nodes();
  delta->new_num_labels = graph_.alphabet().size();
  delta->new_version = graph_.version();
  summary->added_edges = static_cast<int>(delta->added.size());
  summary->removed_edges = static_cast<int>(delta->removed.size());
  summary->new_nodes = graph_.num_nodes() - old_num_nodes;
  summary->num_nodes = graph_.num_nodes();
  summary->num_edges = graph_.num_edges();
  summary->version = graph_.version();

  const bool changed = graph_.version() != pre_version;
  if (!changed) return *summary;  // empty batch: snapshot still current

  GraphIndexPtr next;
  if (prev_fresh && prev != nullptr) {
    next = prev->ApplyDelta(*delta);
    summary->delta_applied = true;
  }
  const bool alphabet_grew = delta->new_num_labels != old_num_labels;
  {
    std::lock_guard<std::mutex> cache_lock(cache_mutex_);
    if (alphabet_grew) {
      // Compiled automata are sized by the alphabet — plans must not
      // outlive a grown label universe. (Alphabet-stable batches keep
      // their plans: constants re-resolve and plans re-cost per
      // execution against the new snapshot.)
      cache_.clear();
      lru_.clear();
    }
    // next == nullptr (no index yet / stale) drops the
    // snapshot; the next reader full-builds, coalesced by build_mutex_.
    index_ = next;
  }
  if (ShouldCompact(next)) {
    if (options_.background_compaction) {
      ScheduleCompaction();
    } else {
      // Synchronous fold under the exclusive lock already held: the
      // writer pays the O(V+E) rebuild, deterministically.
      GraphIndexPtr built = GraphIndex::Build(graph_);
      {
        std::lock_guard<std::mutex> cache_lock(cache_mutex_);
        index_ = built;
      }
      // Compaction is the checkpoint cadence: the fold already paid
      // O(V+E), the snapshot rides along and lets the log prune.
      // Publish failure is benign here — the WAL still holds every
      // record, recovery just replays more.
      if (wal_ != nullptr) WriteCheckpointLocked(/*required=*/false);
    }
  }
  return *summary;
}

void Database::CompactIndexNow() { CompactIfOverThreshold(/*force=*/true); }

void Database::CompactIfOverThreshold(bool force) {
  auto read_lock = ReadLock();
  {
    std::lock_guard<std::mutex> cache_lock(cache_mutex_);
    if (!IndexFresh(index_) || !index_->has_delta()) return;
    if (!force && !ShouldCompact(index_)) return;  // raced a newer fold
  }
  // Fold outside cache_mutex_ (readers keep hitting the plan cache) but
  // inside the shared graph guard (the graph is stable; writers queue
  // behind the fold — the same profile a reader-side full rebuild had).
  std::lock_guard<std::mutex> build_lock(build_mutex_);
  {
    std::lock_guard<std::mutex> cache_lock(cache_mutex_);
    if (!IndexFresh(index_) || !index_->has_delta()) return;
  }
  GraphIndexPtr built = GraphIndex::Build(graph_);
  index_full_builds_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> cache_lock(cache_mutex_);
    index_ = built;  // distinct GraphIndexPtr: result-cache entries for the
                     // delta snapshot miss from here on (correct, rare)
  }
  // Checkpoint at compaction time (still under the shared graph guard,
  // so graph_ and applied_lsn_ are a consistent pair — writers need
  // the exclusive lock). Failure is benign: the log keeps its records.
  if (wal_ != nullptr) WriteCheckpointLocked(/*required=*/false);
}

void Database::ScheduleCompaction() {
  std::lock_guard<std::mutex> lock(compact_mutex_);
  if (compact_stop_) return;
  if (!compact_thread_.joinable()) {
    compact_thread_ = std::thread([this] { CompactLoop(); });
  }
  compact_pending_ = true;
  compact_cv_.notify_one();
}

void Database::CompactLoop() {
  std::unique_lock<std::mutex> lock(compact_mutex_);
  for (;;) {
    compact_cv_.wait(lock, [&] { return compact_pending_ || compact_stop_; });
    if (compact_stop_) return;
    compact_pending_ = false;
    lock.unlock();
    CompactIfOverThreshold(/*force=*/false);
    lock.lock();
  }
}

Result<PreparedQuery> Database::Prepare(const std::string& text) {
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto it = cache_.find(text);
    if (it != cache_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second);
      return PreparedQuery(this, it->second->second);
    }
    ++misses_;
  }

  // Compile outside the cache lock (parsing reads the graph alphabet and
  // the registry — take the shared graph guard so a concurrent
  // MutateGraph cannot race the reads), and INSERT while still holding
  // the graph guard: a writer invalidating the cache needs the exclusive
  // guard, so a plan compiled under this shared hold cannot be cached
  // after the mutation that would make it stale. Concurrent misses on one
  // text may compile twice; the cache converges on one entry.
  std::shared_ptr<CompiledPlan> plan;
  {
    auto read_lock = ReadLock();
    auto parsed = ParseQuery(text, graph_.alphabet(), registry_);
    if (!parsed.ok()) return parsed.status();
    auto optimized = OptimizeQuery(parsed.value());
    if (!optimized.ok()) return optimized.status();
    auto compiled =
        CompileQuery(optimized.value().query, graph_.alphabet().size());
    if (!compiled.ok()) return compiled.status();

    plan = std::make_shared<CompiledPlan>(
        text, std::move(optimized.value().query),
        std::move(optimized.value().report), std::move(compiled).value());

    if (options_.plan_cache_capacity > 0) {
      std::lock_guard<std::mutex> lock(cache_mutex_);
      auto it = cache_.find(text);
      if (it != cache_.end()) {
        // Another thread compiled the same text meanwhile: adopt its
        // entry.
        lru_.splice(lru_.begin(), lru_, it->second);
        return PreparedQuery(this, it->second->second);
      }
      lru_.emplace_front(text, plan);
      cache_[text] = lru_.begin();
      while (lru_.size() > options_.plan_cache_capacity) {
        cache_.erase(lru_.back().first);
        lru_.pop_back();
      }
    }
  }
  return PreparedQuery(this, std::move(plan));
}

Result<QueryResult> Database::Execute(const std::string& text,
                                      const Params& params) {
  auto prepared = Prepare(text);
  if (!prepared.ok()) return prepared.status();
  return prepared.value().ExecuteAll(params);
}

Result<bool> Database::Exists(const std::string& text, const Params& params) {
  auto prepared = Prepare(text);
  if (!prepared.ok()) return prepared.status();
  return prepared.value().Exists(params);
}

}  // namespace ecrpq
