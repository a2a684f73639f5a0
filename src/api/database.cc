#include "api/database.h"

#include <map>
#include <thread>
#include <tuple>

#include "query/optimizer.h"
#include "util/status.h"
#include "wal/durable.h"
#include "wal/wal_format.h"

namespace ecrpq {

namespace {

// Decides the removes of one batch under multiset semantics: an edge can
// be removed while the snapshot's copies of it plus the batch's adds
// outnumber the batch's earlier removes of it.
class RemoveCheck {
 public:
  RemoveCheck(const GraphIndex& snapshot, const std::vector<Edge>& added)
      : snapshot_(snapshot) {
    for (const Edge& e : added) ++balance_[Key(e)];
  }

  /// True, and the instance is taken, when `e` has one left.
  bool Take(const Edge& e) {
    int& balance = balance_[Key(e)];
    if (balance <= -SnapshotCount(e)) return false;
    --balance;
    return true;
  }

 private:
  static std::tuple<NodeId, Symbol, NodeId> Key(const Edge& e) {
    return {e.from, e.label, e.to};
  }
  int SnapshotCount(const Edge& e) const {
    if (e.from < 0 || e.from >= snapshot_.num_nodes() || e.label < 0 ||
        e.label >= snapshot_.num_labels()) {
      return 0;
    }
    const std::span<const NodeId> targets = snapshot_.Out(e.from, e.label);
    const auto [lo, hi] = std::equal_range(targets.begin(), targets.end(),
                                           e.to);
    return static_cast<int>(hi - lo);
  }

  const GraphIndex& snapshot_;
  // Batch adds minus batch removes so far, per edge the batch touches.
  std::map<std::tuple<NodeId, Symbol, NodeId>, int> balance_;
};

}  // namespace

Database::Database(GraphDb graph, DatabaseOptions options)
    : options_(options), registry_(RelationRegistry::Default()) {
  GraphIndexPtr snapshot = GraphIndex::Build(graph);
  index_full_builds_.fetch_add(1, std::memory_order_relaxed);
  InstallLocked(std::move(graph), std::move(snapshot));
}

void Database::InstallLocked(GraphDb catalog, GraphIndexPtr snapshot) {
  (void)catalog.TakeAdjacency();
  graph_ = std::move(catalog);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  index_ = std::move(snapshot);
}

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
  // The scratch graph: the catalog with its out-lists back, read from the
  // snapshot's rows.
  const GraphIndexPtr old = graph_index();
  GraphDb scratch = std::move(graph_);
  std::span<const Symbol> labels;
  std::span<const NodeId> targets;
  size_t k = 0;
  scratch.RestoreAdjacency(
      [&](NodeId v) {
        labels = old->OutLabels(v);
        targets = old->OutTargets(v);
        k = 0;
        return static_cast<int>(labels.size());
      },
      [&] {
        ++k;
        return GraphDb::Arc(labels[k - 1], targets[k - 1]);
      });
  fn(scratch);
  GraphIndexPtr built = GraphIndex::Build(scratch);
  index_full_builds_.fetch_add(1, std::memory_order_relaxed);
  InstallLocked(std::move(scratch), std::move(built));
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
  const GraphIndexPtr snapshot = graph_index();
  Status st = wal_->WriteCheckpoint(
      [&](WritableFile* file) {
        return EncodeCheckpoint(graph_, *snapshot, file);
      },
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
  auto load = [&](PageVector<char> image) -> Status {
    auto decoded =
        DecodeCheckpoint(std::string_view(image.data(), image.size()));
    if (!decoded.ok()) return decoded.status();
    PageVector<char>().swap(image);  // freed before the in-side inversion
    DecodedCheckpoint& d = decoded.value();
    GraphIndexPtr snapshot =
        GraphIndex::FromOutRows(d.catalog, std::move(d.rows));
    db->InstallLocked(std::move(d.catalog), std::move(snapshot));
    loaded_checkpoint = true;
    return Status::OK();
  };
  // Replay re-runs recovered batches through the normal (non-durable —
  // wal_ is not attached yet) CommitDelta machinery, as deltas on the
  // recovered snapshot: name resolution and id assignment are
  // deterministic, so the replayed graph matches the one the records
  // were logged against.
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
    std::unique_lock<std::shared_mutex> lock(db->graph_mutex_);
    GraphIndexPtr snapshot = GraphIndex::Build(seed);
    db->index_full_builds_.fetch_add(1, std::memory_order_relaxed);
    db->InstallLocked(std::move(seed), std::move(snapshot));
    // The initial checkpoint pins node/symbol ids for id-level records;
    // a durable dir must never exist without one.
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
  const GraphIndexPtr prev = graph_index();
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
    delta.added.push_back(
        {from, graph_.alphabet_ptr()->Intern(spec.label), to});
  }
  RemoveCheck removable(*prev, delta.added);
  for (const EdgeSpec& spec : mutation.remove_edges) {
    const auto from = graph_.FindNode(spec.from);
    const auto to = graph_.FindNode(spec.to);
    const auto label = graph_.alphabet().Find(spec.label);
    if (from && to && label && removable.Take({*from, *label, *to})) {
      delta.removed.push_back({*from, *label, *to});
    } else {
      ++summary.skipped_removes;
    }
  }
  summary.lsn = lsn;
  return FinishDeltaLocked(prev, pre_version, old_num_labels, old_num_nodes,
                           &delta, &summary);
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
  const GraphIndexPtr prev = graph_index();
  const uint64_t pre_version = graph_.version();
  const int old_num_labels = graph_.alphabet().size();
  const int old_num_nodes = graph_.num_nodes();

  MutationSummary summary;
  GraphIndex::Delta delta;
  delta.added = add;
  RemoveCheck removable(*prev, add);
  for (const Edge& e : remove) {
    if (e.from >= 0 && e.from < graph_.num_nodes() && e.to >= 0 &&
        e.to < graph_.num_nodes() && removable.Take(e)) {
      delta.removed.push_back(e);
    } else {
      ++summary.skipped_removes;
    }
  }
  summary.lsn = lsn;
  return FinishDeltaLocked(prev, pre_version, old_num_labels, old_num_nodes,
                           &delta, &summary);
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
    const GraphIndexPtr& prev, uint64_t pre_version, int old_num_labels,
    int old_num_nodes, GraphIndex::Delta* delta, MutationSummary* summary) {
  graph_.CountEdges(static_cast<int>(delta->added.size()),
                    static_cast<int>(delta->removed.size()));
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

  GraphIndexPtr next = prev->ApplyDelta(*delta);
  summary->delta_applied = true;
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
    index_ = next;
  }
  if (ShouldCompact(next)) {
    if (options_.background_compaction) {
      ScheduleCompaction();
    } else {
      // Synchronous fold under the exclusive lock already held: the
      // writer pays the O(V+E) copy, deterministically.
      GraphIndexPtr folded = next->Fold();
      {
        std::lock_guard<std::mutex> cache_lock(cache_mutex_);
        index_ = folded;
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
  // Folds serialize; the graph is stable under the shared guard (writers
  // queue behind the fold) while readers keep executing.
  std::lock_guard<std::mutex> fold_lock(fold_mutex_);
  const GraphIndexPtr current = graph_index();
  if (!current->has_delta()) return;
  if (!force && !ShouldCompact(current)) return;  // raced a newer fold
  GraphIndexPtr folded = current->Fold();
  {
    std::lock_guard<std::mutex> cache_lock(cache_mutex_);
    index_ = folded;  // distinct GraphIndexPtr: result-cache entries for the
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
