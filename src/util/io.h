// File-system abstraction for the durable write path (src/wal/).
//
// The WAL and checkpoint writers never touch POSIX directly: every
// append, fsync, rename, and unlink goes through a FileSystem*. The
// production implementation (PosixFileSystem) is a thin syscall
// wrapper; tests swap in FaultInjectingFileSystem, which fails,
// short-writes, or tears exactly the Nth operation of a plan — the
// deterministic crash-point harness behind tests/durability_test.cc.
//
// Error model: Status (util/status.h). I/O failures map to
// StatusCode::kUnavailable with the errno text in the message, so the
// serving layer can distinguish "disk is sick" (degraded mode) from
// logical errors.

#ifndef ECRPQ_UTIL_IO_H_
#define ECRPQ_UTIL_IO_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/page_alloc.h"
#include "util/status.h"

namespace ecrpq {

/// An append-only file handle. Not thread-safe; callers serialize.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  /// Appends all of `data` or fails. A failure may leave a PARTIAL
  /// prefix of `data` on disk (torn write) — exactly what recovery
  /// must tolerate.
  virtual Status Append(const void* data, size_t n) = 0;

  /// fsync: blocks until everything appended so far is durable.
  virtual Status Sync() = 0;

  virtual Status Close() = 0;
};

/// Minimal file-system surface used by WAL + checkpoint code.
class FileSystem {
 public:
  virtual ~FileSystem() = default;

  /// Opens `path` for appending, creating it if missing. `truncate`
  /// discards existing content first.
  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) = 0;

  /// Reads the whole file into `out`, a page-mapped buffer from 1 MiB on
  /// (a checkpoint image or a log segment is freed back to the kernel).
  virtual Status ReadFile(const std::string& path, PageVector<char>* out) = 0;

  /// Atomic rename (the checkpoint publish step).
  virtual Status Rename(const std::string& from, const std::string& to) = 0;

  virtual Status Remove(const std::string& path) = 0;

  /// Truncates `path` to `size` bytes (recovery chops torn WAL tails).
  virtual Status Truncate(const std::string& path, uint64_t size) = 0;

  /// Names (not paths) of directory entries, unsorted; "." and ".."
  /// excluded.
  virtual Result<std::vector<std::string>> ListDir(const std::string& dir) = 0;

  /// mkdir -p for one level; ok if the directory already exists.
  virtual Status CreateDir(const std::string& dir) = 0;

  /// fsyncs the directory itself so renames/creates/unlinks in it are
  /// durable.
  virtual Status SyncDir(const std::string& dir) = 0;

  virtual bool FileExists(const std::string& path) = 0;

  virtual Result<uint64_t> FileSize(const std::string& path) = 0;

  /// Takes an exclusive advisory lock (flock LOCK_EX | LOCK_NB) on
  /// `path`, creating the file if needed. Fails with
  /// kFailedPrecondition when another process holds it. The returned
  /// fd stays locked until ReleaseLock.
  virtual Result<int> LockFile(const std::string& path) = 0;
  virtual void ReleaseLock(int fd) = 0;
};

/// The real thing. Stateless; use the shared instance.
FileSystem* PosixFileSystem();

/// Deterministic fault plan shared between a test and the
/// FaultInjectingFileSystem it injected. Counters tick down on each
/// matching operation; when one hits zero the operation fails — and
/// KEEPS failing (sticky, like a full disk) until Reset(). A torn
/// write persists `torn_bytes` of the failing append before erroring.
struct FaultPlan {
  std::mutex mutex;

  /// Fail the Nth append from now (1 = next). 0 = disabled.
  int fail_append_after = 0;
  /// Bytes of the failing append that still reach the file (torn
  /// write). Negative = persist all but one byte (short write).
  int torn_bytes = 0;

  int fail_sync_after = 0;    // Nth Sync (file or dir) from now
  int fail_rename_after = 0;  // Nth Rename from now
  int fail_remove_after = 0;  // Nth Remove from now

  /// Counts every append/sync/rename/remove that went through while
  /// the plan was attached (for building crash-point matrices: run
  /// once cleanly to count ops, then iterate failing each one).
  int ops_seen = 0;

  bool tripped = false;  // a fault fired and is now sticky

  void Reset() {
    std::lock_guard<std::mutex> lock(mutex);
    fail_append_after = 0;
    torn_bytes = 0;
    fail_sync_after = 0;
    fail_rename_after = 0;
    fail_remove_after = 0;
    tripped = false;
  }
};

/// Wraps a base FileSystem and injects failures per a shared
/// FaultPlan. Reads, listings, and locks pass through untouched —
/// faults model the write path of a sick disk.
class FaultInjectingFileSystem : public FileSystem {
 public:
  FaultInjectingFileSystem(FileSystem* base, std::shared_ptr<FaultPlan> plan)
      : base_(base), plan_(std::move(plan)) {}

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override;
  Status ReadFile(const std::string& path, PageVector<char>* out) override {
    return base_->ReadFile(path, out);
  }
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& path) override;
  Status Truncate(const std::string& path, uint64_t size) override {
    return base_->Truncate(path, size);
  }
  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    return base_->ListDir(dir);
  }
  Status CreateDir(const std::string& dir) override {
    return base_->CreateDir(dir);
  }
  Status SyncDir(const std::string& dir) override;
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Result<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  Result<int> LockFile(const std::string& path) override {
    return base_->LockFile(path);
  }
  void ReleaseLock(int fd) override { base_->ReleaseLock(fd); }

  /// Returns true when this operation should fail (decrements the
  /// matching countdown; sticky after tripping). `torn_out` receives
  /// the torn-bytes setting for appends. Public for the wrapped file
  /// handles (implementation detail, not an API).
  bool ShouldFail(int FaultPlan::* counter, int* torn_out);

 private:
  FileSystem* base_;
  std::shared_ptr<FaultPlan> plan_;
};

}  // namespace ecrpq

#endif  // ECRPQ_UTIL_IO_H_
