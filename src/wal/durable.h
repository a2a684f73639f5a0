// DurableLog: the durability manager gluing the WAL (wal.h), payload
// codecs (wal_format.h), and checkpoint snapshots into one data dir.
//
// Lifecycle
// ---------
//   Open(dir)    flocks the dir, loads the newest checkpoint (via
//                callback — the caller parses and installs it), replays
//                the WAL tail through the replay callbacks, physically
//                truncates the first torn/corrupt record and everything
//                after it, and resumes appending at the next LSN.
//   Append*      serializes one committed batch and appends it; with
//                fsync=always the record is on disk when the call
//                returns. Called by Database under the exclusive graph
//                lock, BEFORE the batch is applied — write-ahead.
//   WriteCheckpoint  atomically publishes a snapshot covering lsn <= L
//                (stream into tmp → fsync → rename → fsync dir), then
//                prunes older checkpoints and fully-covered segments.
//   Flush        fsync now, whatever the policy (SIGTERM drain).
//
// Degraded mode
// -------------
// Any append/fsync failure (ENOSPC, EIO, injected fault) flips the log
// into degraded mode: writes fail fast with kUnavailable ("DEGRADED:
// ..."), reads are unaffected, and Probe() — called on each rejected
// write (throttled) and periodically by the server loop — repairs the
// possibly-torn tail, appends + fsyncs a no-op record, and clears the
// flag once the disk accepts writes again.
//
// Thread safety: all public methods are safe to call concurrently; one
// internal mutex serializes writer access (appends are additionally
// serialized by the caller's graph lock — lock order graph → log). A
// checkpoint streams and fsyncs its .tmp under a checkpoint mutex of
// its own and takes the writer mutex only to publish and prune, so
// appends and syncs proceed while an image is written.

#ifndef ECRPQ_WAL_DURABLE_H_
#define ECRPQ_WAL_DURABLE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph.h"
#include "util/io.h"
#include "util/status.h"
#include "wal/wal.h"

namespace ecrpq {

struct DurabilityOptions {
  FsyncPolicy fsync = FsyncPolicy::kAlways;
  /// Flusher period for FsyncPolicy::kInterval.
  int fsync_interval_ms = 25;
  /// Segment rotation threshold.
  uint64_t segment_bytes = 64ull << 20;
  /// Minimum spacing between degraded-mode recovery probes.
  int probe_interval_ms = 1000;
  /// Injection point for tests; null = PosixFileSystem().
  FileSystem* fs = nullptr;
};

/// What recovery found in the data dir.
struct WalRecoveryInfo {
  uint64_t checkpoint_lsn = 0;  ///< newest snapshot loaded (0 = none)
  bool checkpoint_loaded = false;
  uint64_t replayed = 0;        ///< records applied on top of it
  uint64_t last_lsn = 0;        ///< head of the recovered log
  bool tail_truncated = false;  ///< a torn/corrupt tail was chopped
  std::string truncate_reason;
};

/// Point-in-time counters for STATS / wal_dump.
struct WalStats {
  bool degraded = false;
  std::string degraded_reason;
  uint64_t last_lsn = 0;
  uint64_t durable_lsn = 0;  ///< highest fsync-confirmed LSN
  uint64_t checkpoint_lsn = 0;
  uint64_t appends = 0;
  uint64_t append_failures = 0;
  uint64_t syncs = 0;
  uint64_t sync_failures = 0;
  uint64_t checkpoints = 0;
  uint64_t checkpoint_failures = 0;
  uint64_t probes = 0;
  uint64_t appended_bytes = 0;  ///< record bytes appended since Open
};

class DurableLog {
 public:
  /// Replay callbacks apply one recovered record to the caller's graph
  /// state; a non-ok return aborts Open. The checkpoint loader owns the
  /// image it is handed, so it can free it as soon as it is decoded.
  using CheckpointLoadFn = std::function<Status(PageVector<char> image)>;
  using MutationReplayFn = std::function<Status(GraphMutation&&)>;
  using EdgeDeltaReplayFn =
      std::function<Status(std::vector<Edge>&&, std::vector<Edge>&&)>;

  static Result<std::unique_ptr<DurableLog>> Open(
      std::string dir, const DurabilityOptions& options,
      const CheckpointLoadFn& load_checkpoint,
      const MutationReplayFn& replay_mutation,
      const EdgeDeltaReplayFn& replay_edges, WalRecoveryInfo* info);

  ~DurableLog();
  DurableLog(const DurableLog&) = delete;
  DurableLog& operator=(const DurableLog&) = delete;

  /// Appends one batch record; on success `*lsn` is its LSN and the
  /// record is at the configured durability point. On failure the log
  /// is degraded and NOTHING must be applied to the graph.
  Status AppendMutation(const GraphMutation& mutation, uint64_t* lsn);
  Status AppendEdgeDelta(const std::vector<Edge>& add,
                         const std::vector<Edge>& remove, uint64_t* lsn);

  /// Writes one checkpoint image into the file it is handed.
  using CheckpointWriteFn = std::function<Status(WritableFile* file)>;

  /// Publishes the checkpoint `write` streams (the streaming
  /// EncodeCheckpoint, in chunks of kCheckpointChunkBytes) as the
  /// snapshot covering lsn <= applied_lsn, then prunes. The image goes
  /// into a .tmp file that is renamed into place only after a clean
  /// write and fsync; on any failure the .tmp is removed and nothing is
  /// published. The caller guarantees the image is of a graph with
  /// exactly that LSN applied. Concurrent calls take turns; appends,
  /// Flush and stats() wait only for the publish and prune, not for
  /// `write` or the fsync.
  Status WriteCheckpoint(const CheckpointWriteFn& write,
                         uint64_t applied_lsn);

  /// fsyncs outstanding records now, regardless of policy.
  Status Flush();

  /// Degraded-recovery attempt, throttled to probe_interval_ms (pass
  /// force=true to bypass). Returns true when the log is healthy after
  /// the call. No-op (true) when not degraded.
  bool Probe(bool force = false);

  bool degraded() const { return degraded_.load(std::memory_order_relaxed); }
  WalStats stats() const;
  const WalRecoveryInfo& recovery_info() const { return recovery_; }
  const std::string& dir() const { return dir_; }
  uint64_t last_lsn() const;

 private:
  DurableLog(std::string dir, const DurabilityOptions& options,
             FileSystem* fs)
      : dir_(std::move(dir)), options_(options), fs_(fs) {}

  Status AppendLocked(WalRecordType type, std::string_view payload,
                      uint64_t* lsn);
  bool ProbeLocked(bool force);
  void EnterDegradedLocked(const Status& cause);
  Status DegradedStatus() const;
  void FlusherLoop();

  const std::string dir_;
  const DurabilityOptions options_;
  FileSystem* const fs_;
  int lock_fd_ = -1;

  std::mutex checkpoint_mutex_;  // one checkpoint writer; before mutex_
  mutable std::mutex mutex_;
  std::unique_ptr<WalWriter> writer_;
  uint64_t durable_lsn_ = 0;
  uint64_t checkpoint_lsn_ = 0;
  bool has_checkpoint_ = false;
  std::atomic<bool> degraded_{false};
  std::string degraded_reason_;
  std::chrono::steady_clock::time_point last_probe_{};

  // counters (under mutex_)
  uint64_t appends_ = 0, append_failures_ = 0;
  uint64_t syncs_ = 0, sync_failures_ = 0;
  uint64_t checkpoints_ = 0, checkpoint_failures_ = 0;
  uint64_t probes_ = 0;
  uint64_t appended_bytes_ = 0;

  WalRecoveryInfo recovery_;

  // interval flusher
  std::thread flusher_;
  std::mutex flusher_mutex_;
  std::condition_variable flusher_cv_;
  bool stop_flusher_ = false;
};

}  // namespace ecrpq

#endif  // ECRPQ_WAL_DURABLE_H_
