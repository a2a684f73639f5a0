#include "wal/durable.h"

#include <algorithm>
#include <cstring>

#include "wal/wal_format.h"

namespace ecrpq {

namespace {

bool HasSuffix(const std::string& s, const char* suffix) {
  size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

}  // namespace

Result<std::unique_ptr<DurableLog>> DurableLog::Open(
    std::string dir, const DurabilityOptions& options,
    const CheckpointLoadFn& load_checkpoint,
    const MutationReplayFn& replay_mutation,
    const EdgeDeltaReplayFn& replay_edges, WalRecoveryInfo* info) {
  FileSystem* fs = options.fs != nullptr ? options.fs : PosixFileSystem();
  ECRPQ_RETURN_IF_ERROR(fs->CreateDir(dir));

  std::unique_ptr<DurableLog> log(new DurableLog(dir, options, fs));

  auto lock = fs->LockFile(dir + "/LOCK");
  if (!lock.ok()) return lock.status();
  log->lock_fd_ = lock.value();

  // Sweep leftovers of an interrupted checkpoint publish, and find the
  // newest checkpoint.
  auto names = fs->ListDir(dir);
  if (!names.ok()) return names.status();
  uint64_t newest_ckpt = 0;
  bool have_ckpt = false;
  std::vector<std::string> stale_ckpts;
  for (const std::string& name : names.value()) {
    if (HasSuffix(name, ".tmp")) {
      fs->Remove(dir + "/" + name);  // best effort
      continue;
    }
    uint64_t lsn;
    if (ParseCheckpointName(name, &lsn)) {
      if (!have_ckpt || lsn > newest_ckpt) {
        if (have_ckpt) stale_ckpts.push_back(CheckpointName(newest_ckpt));
        newest_ckpt = lsn;
        have_ckpt = true;
      } else {
        stale_ckpts.push_back(name);
      }
    }
  }

  if (have_ckpt) {
    PageVector<char> image;
    ECRPQ_RETURN_IF_ERROR(
        fs->ReadFile(dir + "/" + CheckpointName(newest_ckpt), &image));
    ECRPQ_RETURN_IF_ERROR(load_checkpoint(std::move(image)));
    log->checkpoint_lsn_ = newest_ckpt;
    log->has_checkpoint_ = true;
    log->recovery_.checkpoint_lsn = newest_ckpt;
    log->recovery_.checkpoint_loaded = true;
  }
  for (const std::string& name : stale_ckpts) {
    fs->Remove(dir + "/" + name);  // best effort
  }

  // Replay the tail on top of the checkpoint.
  auto scan = ScanWal(
      fs, dir, /*min_lsn=*/newest_ckpt,
      [&](uint64_t lsn, WalRecordType type, std::string_view payload) {
        (void)lsn;
        switch (type) {
          case WalRecordType::kMutation: {
            GraphMutation mutation;
            ECRPQ_RETURN_IF_ERROR(DecodeMutationPayload(payload, &mutation));
            return replay_mutation(std::move(mutation));
          }
          case WalRecordType::kEdgeDelta: {
            std::vector<Edge> add, remove;
            ECRPQ_RETURN_IF_ERROR(
                DecodeEdgeDeltaPayload(payload, &add, &remove));
            return replay_edges(std::move(add), std::move(remove));
          }
          case WalRecordType::kNoop:
            return Status::OK();
        }
        return Status::InvalidArgument("unknown wal record type");
      });
  if (!scan.ok()) return scan.status();
  const WalScanStats& stats = scan.value();

  // Chop the torn tail so appends resume from a clean end of log. A
  // segment with no valid bytes is removed outright — resuming into it
  // would desynchronize its name from its first record's LSN.
  if (stats.truncated) {
    const std::string bad = dir + "/" + stats.truncate_segment;
    if (stats.truncate_offset == 0) {
      ECRPQ_RETURN_IF_ERROR(fs->Remove(bad));
    } else {
      ECRPQ_RETURN_IF_ERROR(fs->Truncate(bad, stats.truncate_offset));
    }
    for (const std::string& orphan : stats.orphan_segments) {
      if (orphan != stats.truncate_segment) {
        ECRPQ_RETURN_IF_ERROR(fs->Remove(dir + "/" + orphan));
      }
    }
  }

  log->recovery_.replayed = stats.delivered;
  log->recovery_.last_lsn = std::max(stats.last_lsn, newest_ckpt);
  log->recovery_.tail_truncated = stats.truncated;
  log->recovery_.truncate_reason = stats.truncate_reason;

  // Resume the writer after the last surviving record.
  auto segments = ListWalSegments(fs, dir);
  if (!segments.ok()) return segments.status();
  std::string tail_name;
  uint64_t tail_bytes = 0;
  if (!segments.value().empty()) {
    tail_name = segments.value().back().name;
    auto size = fs->FileSize(dir + "/" + tail_name);
    if (!size.ok()) return size.status();
    tail_bytes = size.value();
  }
  const uint64_t next_lsn = log->recovery_.last_lsn + 1;
  auto writer = WalWriter::Open(fs, dir, options.segment_bytes, next_lsn,
                                tail_name, tail_bytes);
  if (!writer.ok()) return writer.status();
  log->writer_ = std::move(writer).value();
  log->durable_lsn_ = log->recovery_.last_lsn;

  if (options.fsync == FsyncPolicy::kInterval) {
    log->flusher_ = std::thread([log = log.get()] { log->FlusherLoop(); });
  }
  if (info != nullptr) *info = log->recovery_;
  return log;
}

DurableLog::~DurableLog() {
  if (flusher_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(flusher_mutex_);
      stop_flusher_ = true;
    }
    flusher_cv_.notify_all();
    flusher_.join();
  }
  {
    // Best-effort final flush; a dying process can't act on failure.
    std::lock_guard<std::mutex> lock(mutex_);
    if (writer_ != nullptr && !degraded_.load(std::memory_order_relaxed)) {
      writer_->Sync();
    }
  }
  if (lock_fd_ >= 0) fs_->ReleaseLock(lock_fd_);
}

Status DurableLog::DegradedStatus() const {
  return Status::Unavailable("DEGRADED: " + degraded_reason_);
}

void DurableLog::EnterDegradedLocked(const Status& cause) {
  degraded_.store(true, std::memory_order_relaxed);
  degraded_reason_ = cause.ToString();
}

Status DurableLog::AppendLocked(WalRecordType type, std::string_view payload,
                                uint64_t* lsn) {
  if (degraded_.load(std::memory_order_relaxed) &&
      !ProbeLocked(/*force=*/false)) {
    return DegradedStatus();
  }
  ++appends_;
  Status st = writer_->Append(type, payload, lsn);
  if (!st.ok()) {
    ++append_failures_;
    EnterDegradedLocked(st);
    return DegradedStatus();
  }
  appended_bytes_ += kWalFrameHeader + kWalRecordHeader + payload.size();
  if (options_.fsync == FsyncPolicy::kAlways) {
    ++syncs_;
    st = writer_->Sync();
    if (!st.ok()) {
      ++sync_failures_;
      EnterDegradedLocked(st);
      return DegradedStatus();
    }
    durable_lsn_ = *lsn;
  }
  return Status::OK();
}

Status DurableLog::AppendMutation(const GraphMutation& mutation,
                                  uint64_t* lsn) {
  std::string payload = EncodeMutationPayload(mutation);
  std::lock_guard<std::mutex> lock(mutex_);
  return AppendLocked(WalRecordType::kMutation, payload, lsn);
}

Status DurableLog::AppendEdgeDelta(const std::vector<Edge>& add,
                                   const std::vector<Edge>& remove,
                                   uint64_t* lsn) {
  std::string payload = EncodeEdgeDeltaPayload(add, remove);
  std::lock_guard<std::mutex> lock(mutex_);
  return AppendLocked(WalRecordType::kEdgeDelta, payload, lsn);
}

Status DurableLog::WriteCheckpoint(const CheckpointWriteFn& write,
                                   uint64_t applied_lsn) {
  // Concurrent checkpoints of one graph share the .tmp name, so writers
  // take turns; mutex_ is held only to publish and prune, so appends,
  // the interval flusher and stats() never wait on encoding or fsync.
  std::lock_guard<std::mutex> checkpoint_lock(checkpoint_mutex_);
  const std::string final_path = dir_ + "/" + CheckpointName(applied_lsn);
  const std::string tmp_path = final_path + ".tmp";

  Status st = [&]() -> Status {
    auto file = fs_->NewWritableFile(tmp_path, /*truncate=*/true);
    if (!file.ok()) return file.status();
    ECRPQ_RETURN_IF_ERROR(write(file.value().get()));
    ECRPQ_RETURN_IF_ERROR(file.value()->Sync());
    ECRPQ_RETURN_IF_ERROR(file.value()->Close());
    // Atomic publish: the snapshot appears under its final name fully
    // written or not at all; the dir fsync makes the rename durable.
    ECRPQ_RETURN_IF_ERROR(fs_->Rename(tmp_path, final_path));
    ECRPQ_RETURN_IF_ERROR(fs_->SyncDir(dir_));
    return Status::OK();
  }();
  if (!st.ok()) fs_->Remove(tmp_path);  // best effort
  std::lock_guard<std::mutex> lock(mutex_);
  if (!st.ok()) {
    ++checkpoint_failures_;
    return st;
  }
  ++checkpoints_;
  const uint64_t old_checkpoint = checkpoint_lsn_;
  const bool had_checkpoint = has_checkpoint_;
  checkpoint_lsn_ = applied_lsn;
  has_checkpoint_ = true;

  // Prune (best effort; a failure leaves extra-but-consistent files
  // and the next checkpoint retries). Old checkpoints first, then
  // segments every record of which the new snapshot covers — oldest
  // first, stopping at the first failure so the surviving segment
  // suffix stays contiguous.
  if (had_checkpoint && old_checkpoint != applied_lsn) {
    fs_->Remove(dir_ + "/" + CheckpointName(old_checkpoint));
  }
  auto segments = ListWalSegments(fs_, dir_);
  if (segments.ok()) {
    const std::vector<WalSegmentInfo>& segs = segments.value();
    for (size_t i = 0; i + 1 < segs.size(); ++i) {
      if (segs[i + 1].first_lsn > applied_lsn + 1) break;
      if (segs[i].name == writer_->segment_name()) break;
      if (!fs_->Remove(dir_ + "/" + segs[i].name).ok()) break;
    }
  }
  return Status::OK();
}

Status DurableLog::Flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (degraded_.load(std::memory_order_relaxed)) return DegradedStatus();
  ++syncs_;
  Status st = writer_->Sync();
  if (!st.ok()) {
    ++sync_failures_;
    EnterDegradedLocked(st);
    return DegradedStatus();
  }
  durable_lsn_ = writer_->last_lsn();
  return Status::OK();
}

bool DurableLog::Probe(bool force) {
  std::lock_guard<std::mutex> lock(mutex_);
  return ProbeLocked(force);
}

bool DurableLog::ProbeLocked(bool force) {
  if (!degraded_.load(std::memory_order_relaxed)) return true;
  const auto now = std::chrono::steady_clock::now();
  if (!force && last_probe_.time_since_epoch().count() != 0 &&
      now - last_probe_ <
          std::chrono::milliseconds(options_.probe_interval_ms)) {
    return false;
  }
  last_probe_ = now;
  ++probes_;

  // Repair the (possibly torn) tail, then prove the disk accepts and
  // persists writes with a no-op record.
  if (!writer_->RepairTail().ok()) return false;
  uint64_t lsn;
  if (!writer_->Append(WalRecordType::kNoop, {}, &lsn).ok()) return false;
  if (!writer_->Sync().ok()) return false;
  durable_lsn_ = lsn;
  degraded_.store(false, std::memory_order_relaxed);
  degraded_reason_.clear();
  return true;
}

void DurableLog::FlusherLoop() {
  std::unique_lock<std::mutex> lock(flusher_mutex_);
  while (!stop_flusher_) {
    flusher_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.fsync_interval_ms));
    if (stop_flusher_) return;
    lock.unlock();
    {
      std::lock_guard<std::mutex> log_lock(mutex_);
      if (!degraded_.load(std::memory_order_relaxed) &&
          durable_lsn_ < writer_->last_lsn()) {
        ++syncs_;
        Status st = writer_->Sync();
        if (st.ok()) {
          durable_lsn_ = writer_->last_lsn();
        } else {
          ++sync_failures_;
          EnterDegradedLocked(st);
        }
      }
    }
    lock.lock();
  }
}

WalStats DurableLog::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  WalStats out;
  out.degraded = degraded_.load(std::memory_order_relaxed);
  out.degraded_reason = degraded_reason_;
  out.last_lsn = writer_->last_lsn();
  out.durable_lsn = durable_lsn_;
  out.checkpoint_lsn = checkpoint_lsn_;
  out.appends = appends_;
  out.append_failures = append_failures_;
  out.syncs = syncs_;
  out.sync_failures = sync_failures_;
  out.checkpoints = checkpoints_;
  out.checkpoint_failures = checkpoint_failures_;
  out.probes = probes_;
  out.appended_bytes = appended_bytes_;
  return out;
}

uint64_t DurableLog::last_lsn() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return writer_->last_lsn();
}

}  // namespace ecrpq
