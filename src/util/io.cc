#include "util/io.h"

#include <dirent.h>
#include <fcntl.h>
#include <string.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

namespace ecrpq {

namespace {

Status ErrnoStatus(const std::string& op, const std::string& path) {
  return Status(StatusCode::kUnavailable,
                op + " " + path + ": " + strerror(errno));
}

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}
  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(const void* data, size_t n) override {
    const char* p = static_cast<const char*>(data);
    while (n > 0) {
      ssize_t w = ::write(fd_, p, n);
      if (w < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("write", path_);
      }
      p += w;
      n -= static_cast<size_t>(w);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) return ErrnoStatus("fsync", path_);
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) return ErrnoStatus("close", path_);
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

class PosixFileSystemImpl : public FileSystem {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    int flags = O_WRONLY | O_CREAT | O_CLOEXEC | (truncate ? O_TRUNC : 0);
    int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) return ErrnoStatus("open", path);
    if (!truncate && ::lseek(fd, 0, SEEK_END) < 0) {
      ::close(fd);
      return ErrnoStatus("lseek", path);
    }
    return std::unique_ptr<WritableFile>(new PosixWritableFile(fd, path));
  }

  Status ReadFile(const std::string& path, PageVector<char>* out) override {
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return ErrnoStatus("open", path);
    // Sized once from fstat, so the file is read in place with no growth
    // copies; a file that grew meanwhile is appended from a probe buffer.
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return ErrnoStatus("fstat", path);
    }
    out->resize(static_cast<size_t>(st.st_size));
    size_t have = 0;
    char probe[1 << 16];
    for (;;) {
      const bool in_place = have < out->size();
      ssize_t r = in_place ? ::read(fd, out->data() + have, out->size() - have)
                           : ::read(fd, probe, sizeof probe);
      if (r < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        return ErrnoStatus("read", path);
      }
      if (r == 0) break;
      if (!in_place) out->insert(out->end(), probe, probe + r);
      have += static_cast<size_t>(r);
    }
    out->resize(have);
    ::close(fd);
    return Status::OK();
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return ErrnoStatus("rename", from);
    }
    return Status::OK();
  }

  Status Remove(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) return ErrnoStatus("unlink", path);
    return Status::OK();
  }

  Status Truncate(const std::string& path, uint64_t size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      return ErrnoStatus("truncate", path);
    }
    return Status::OK();
  }

  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) return ErrnoStatus("opendir", dir);
    std::vector<std::string> names;
    while (struct dirent* entry = ::readdir(d)) {
      std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      names.push_back(std::move(name));
    }
    ::closedir(d);
    return names;
  }

  Status CreateDir(const std::string& dir) override {
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
      return ErrnoStatus("mkdir", dir);
    }
    return Status::OK();
  }

  Status SyncDir(const std::string& dir) override {
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) return ErrnoStatus("open", dir);
    Status st = Status::OK();
    if (::fsync(fd) != 0) st = ErrnoStatus("fsync", dir);
    ::close(fd);
    return st;
  }

  bool FileExists(const std::string& path) override {
    struct stat sb;
    return ::stat(path.c_str(), &sb) == 0;
  }

  Result<uint64_t> FileSize(const std::string& path) override {
    struct stat sb;
    if (::stat(path.c_str(), &sb) != 0) return ErrnoStatus("stat", path);
    return static_cast<uint64_t>(sb.st_size);
  }

  Result<int> LockFile(const std::string& path) override {
    int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) return ErrnoStatus("open", path);
    if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
      ::close(fd);
      return Status::FailedPrecondition(
          "data dir is locked by another process (flock " + path +
          "): " + strerror(errno));
    }
    return fd;
  }

  void ReleaseLock(int fd) override {
    if (fd >= 0) {
      ::flock(fd, LOCK_UN);
      ::close(fd);
    }
  }
};

Status InjectedFault(const std::string& op) {
  return Status(StatusCode::kUnavailable,
                op + ": injected fault (No space left on device)");
}

}  // namespace

FileSystem* PosixFileSystem() {
  static PosixFileSystemImpl* fs = new PosixFileSystemImpl();
  return fs;
}

// ---- fault injection ----

namespace {

class FaultInjectingFile : public WritableFile {
 public:
  FaultInjectingFile(std::unique_ptr<WritableFile> base,
                     FaultInjectingFileSystem* fs)
      : base_(std::move(base)), fs_(fs) {}

  Status Append(const void* data, size_t n) override {
    int torn = 0;
    if (fs_->ShouldFail(&FaultPlan::fail_append_after, &torn)) {
      // Model a torn write: part of the record reaches the disk, then
      // the write fails. torn < 0 = all but the last byte.
      size_t keep = torn < 0 ? (n > 0 ? n - 1 : 0)
                             : std::min(n, static_cast<size_t>(torn));
      if (keep > 0) base_->Append(data, keep);  // best effort
      return InjectedFault("write");
    }
    return base_->Append(data, n);
  }

  Status Sync() override {
    if (fs_->ShouldFail(&FaultPlan::fail_sync_after, nullptr)) {
      return InjectedFault("fsync");
    }
    return base_->Sync();
  }

  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  FaultInjectingFileSystem* fs_;
};

}  // namespace

bool FaultInjectingFileSystem::ShouldFail(int FaultPlan::* counter,
                                          int* torn_out) {
  std::lock_guard<std::mutex> lock(plan_->mutex);
  ++plan_->ops_seen;
  if (plan_->tripped) return true;  // sticky: the disk stays sick
  int& remaining = (*plan_).*counter;
  if (remaining <= 0) return false;
  if (--remaining == 0) {
    plan_->tripped = true;
    if (torn_out != nullptr) *torn_out = plan_->torn_bytes;
    return true;
  }
  return false;
}

Result<std::unique_ptr<WritableFile>>
FaultInjectingFileSystem::NewWritableFile(const std::string& path,
                                          bool truncate) {
  auto base = base_->NewWritableFile(path, truncate);
  if (!base.ok()) return base.status();
  return std::unique_ptr<WritableFile>(
      new FaultInjectingFile(std::move(base).value(), this));
}

Status FaultInjectingFileSystem::Rename(const std::string& from,
                                        const std::string& to) {
  if (ShouldFail(&FaultPlan::fail_rename_after, nullptr)) {
    return InjectedFault("rename");
  }
  return base_->Rename(from, to);
}

Status FaultInjectingFileSystem::Remove(const std::string& path) {
  if (ShouldFail(&FaultPlan::fail_remove_after, nullptr)) {
    return InjectedFault("unlink");
  }
  return base_->Remove(path);
}

Status FaultInjectingFileSystem::SyncDir(const std::string& dir) {
  if (ShouldFail(&FaultPlan::fail_sync_after, nullptr)) {
    return InjectedFault("fsync");
  }
  return base_->SyncDir(dir);
}

}  // namespace ecrpq
