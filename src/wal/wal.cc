#include "wal/wal.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "util/crc32c.h"

namespace ecrpq {

namespace {

constexpr char kSegmentPrefix[] = "wal-";
constexpr char kSegmentSuffix[] = ".log";
constexpr char kCheckpointPrefix[] = "checkpoint-";
constexpr char kCheckpointSuffix[] = ".ckpt";

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(buf, 8);
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  return v;
}

std::string NumberedName(const char* prefix, uint64_t n, const char* suffix) {
  char buf[21];
  std::snprintf(buf, sizeof buf, "%020llu", static_cast<unsigned long long>(n));
  return std::string(prefix) + buf + suffix;
}

bool ParseNumberedName(const std::string& name, const char* prefix,
                       const char* suffix, uint64_t* n) {
  size_t plen = std::strlen(prefix), slen = std::strlen(suffix);
  if (name.size() != plen + 20 + slen) return false;
  if (name.compare(0, plen, prefix) != 0) return false;
  if (name.compare(plen + 20, slen, suffix) != 0) return false;
  uint64_t v = 0;
  for (size_t i = plen; i < plen + 20; ++i) {
    char c = name[i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *n = v;
  return true;
}

}  // namespace

Result<FsyncPolicy> ParseFsyncPolicy(std::string_view text) {
  if (text == "always") return FsyncPolicy::kAlways;
  if (text == "interval") return FsyncPolicy::kInterval;
  if (text == "never" || text == "off") return FsyncPolicy::kNever;
  return Status::InvalidArgument("unknown fsync policy '" + std::string(text) +
                                 "' (want always|interval|never)");
}

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kInterval:
      return "interval";
    case FsyncPolicy::kNever:
      return "never";
  }
  return "?";
}

std::string WalSegmentName(uint64_t first_lsn) {
  return NumberedName(kSegmentPrefix, first_lsn, kSegmentSuffix);
}

std::string CheckpointName(uint64_t lsn) {
  return NumberedName(kCheckpointPrefix, lsn, kCheckpointSuffix);
}

bool ParseWalSegmentName(const std::string& name, uint64_t* first_lsn) {
  return ParseNumberedName(name, kSegmentPrefix, kSegmentSuffix, first_lsn);
}

bool ParseCheckpointName(const std::string& name, uint64_t* lsn) {
  return ParseNumberedName(name, kCheckpointPrefix, kCheckpointSuffix, lsn);
}

Result<std::vector<WalSegmentInfo>> ListWalSegments(FileSystem* fs,
                                                    const std::string& dir) {
  auto names = fs->ListDir(dir);
  if (!names.ok()) return names.status();
  std::vector<WalSegmentInfo> segments;
  for (const std::string& name : names.value()) {
    uint64_t first_lsn;
    if (ParseWalSegmentName(name, &first_lsn)) {
      segments.push_back({name, first_lsn});
    }
  }
  std::sort(segments.begin(), segments.end(),
            [](const WalSegmentInfo& a, const WalSegmentInfo& b) {
              return a.first_lsn < b.first_lsn;
            });
  return segments;
}

Result<WalScanStats> ScanWal(FileSystem* fs, const std::string& dir,
                             uint64_t min_lsn, const WalRecordFn& fn) {
  auto segments_or = ListWalSegments(fs, dir);
  if (!segments_or.ok()) return segments_or.status();
  const std::vector<WalSegmentInfo>& segments = segments_or.value();

  WalScanStats stats;

  // Start at the last segment that can contain min_lsn + 1; earlier
  // segments hold only records a checkpoint already covers (stale
  // leftovers of an interrupted prune).
  size_t start = 0;
  for (size_t i = 0; i < segments.size(); ++i) {
    if (segments[i].first_lsn <= min_lsn + 1) start = i;
  }

  // The first scanned segment must connect to the checkpoint: a start
  // beyond min_lsn + 1 means records were lost (prune bug, manual
  // deletion) and replaying across the hole would corrupt the graph.
  if (start < segments.size() && segments[start].first_lsn > min_lsn + 1) {
    stats.truncated = true;
    stats.truncate_segment = segments[start].name;
    stats.truncate_offset = 0;
    stats.truncate_reason = "lsn-gap";
    for (size_t i = start; i < segments.size(); ++i) {
      stats.orphan_segments.push_back(segments[i].name);
    }
    return stats;
  }

  uint64_t expected_lsn = 0;  // 0 = take the first segment's first_lsn
  for (size_t i = start; i < segments.size(); ++i) {
    const WalSegmentInfo& seg = segments[i];
    if (stats.truncated) {
      stats.orphan_segments.push_back(seg.name);
      continue;
    }
    if (expected_lsn != 0 && seg.first_lsn != expected_lsn) {
      // A whole segment is missing or misnumbered: the log ends at the
      // previous segment's tail.
      stats.truncated = true;
      stats.truncate_segment = seg.name;
      stats.truncate_offset = 0;
      stats.truncate_reason = "lsn-gap";
      stats.orphan_segments.push_back(seg.name);
      continue;
    }
    if (expected_lsn == 0) expected_lsn = seg.first_lsn;

    PageVector<char> data;
    Status st = fs->ReadFile(dir + "/" + seg.name, &data);
    if (!st.ok()) return st;
    ++stats.segments;

    size_t off = 0;
    while (off < data.size()) {
      const size_t remaining = data.size() - off;
      uint32_t len = 0;
      bool bad = false;
      const char* reason = nullptr;
      if (remaining < kWalFrameHeader) {
        bad = true;
        reason = "torn-record";
      } else {
        len = GetU32(data.data() + off);
        if (len < kWalRecordHeader || len > kMaxWalRecordLen) {
          bad = true;
          reason = "bad-length";
        } else if (remaining < kWalFrameHeader + len) {
          bad = true;
          reason = "torn-record";
        }
      }
      if (!bad) {
        const char* body = data.data() + off + kWalFrameHeader;
        uint32_t stored = GetU32(data.data() + off + 4);
        if (crc32c::Unmask(stored) != crc32c::Value(body, len)) {
          bad = true;
          reason = "bad-crc";
        } else {
          uint64_t lsn = GetU64(body);
          if (lsn != expected_lsn) {
            bad = true;
            reason = "lsn-gap";
          } else {
            WalRecordType type =
                static_cast<WalRecordType>(static_cast<uint8_t>(body[8]));
            if (lsn > min_lsn) {
              Status cb = fn(lsn, type,
                             std::string_view(body + kWalRecordHeader,
                                              len - kWalRecordHeader));
              if (!cb.ok()) return cb;
              ++stats.delivered;
            }
            stats.last_lsn = lsn;
            ++stats.records;
            stats.bytes += kWalFrameHeader + len;
            ++expected_lsn;
            off += kWalFrameHeader + len;
            continue;
          }
        }
      }
      stats.truncated = true;
      stats.truncate_segment = seg.name;
      stats.truncate_offset = off;
      stats.truncate_reason = reason;
      break;
    }
  }
  return stats;
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(
    FileSystem* fs, std::string dir, uint64_t segment_bytes,
    uint64_t next_lsn, const std::string& tail_segment, uint64_t tail_bytes) {
  std::unique_ptr<WalWriter> writer(
      new WalWriter(fs, std::move(dir), segment_bytes));
  writer->next_lsn_ = next_lsn == 0 ? 1 : next_lsn;
  if (!tail_segment.empty()) {
    auto file = fs->NewWritableFile(writer->SegmentPath(tail_segment),
                                    /*truncate=*/false);
    if (!file.ok()) return file.status();
    writer->file_ = std::move(file).value();
    writer->segment_name_ = tail_segment;
    writer->segment_offset_ = tail_bytes;
  }
  return writer;
}

Status WalWriter::EnsureSegment(size_t incoming) {
  const bool rotate = file_ != nullptr && segment_offset_ > 0 &&
                      segment_offset_ + incoming > segment_limit_;
  if (file_ != nullptr && !rotate) return Status::OK();
  if (file_ != nullptr) {
    // Seal the full segment: its bytes must be durable before records
    // continue in a successor (a sealed segment is never synced again).
    ECRPQ_RETURN_IF_ERROR(file_->Sync());
    ECRPQ_RETURN_IF_ERROR(file_->Close());
    file_.reset();
  }
  std::string name = WalSegmentName(next_lsn_);
  auto file = fs_->NewWritableFile(SegmentPath(name), /*truncate=*/true);
  if (!file.ok()) return file.status();
  file_ = std::move(file).value();
  segment_name_ = name;
  segment_offset_ = 0;
  dir_dirty_ = true;
  return Status::OK();
}

Status WalWriter::Append(WalRecordType type, std::string_view payload,
                         uint64_t* lsn) {
  if (needs_repair_) {
    return Status::Unavailable("wal tail needs repair after failed append");
  }
  if (payload.size() + kWalRecordHeader > kMaxWalRecordLen) {
    return Status::InvalidArgument("wal record too large: " +
                                   std::to_string(payload.size()) + " bytes");
  }
  std::string record;
  record.reserve(kWalFrameHeader + kWalRecordHeader + payload.size());
  const uint32_t len = static_cast<uint32_t>(kWalRecordHeader + payload.size());
  PutU32(&record, len);
  PutU32(&record, 0);  // crc patched below
  PutU64(&record, next_lsn_);
  record.push_back(static_cast<char>(type));
  record.append(payload.data(), payload.size());
  const uint32_t crc =
      crc32c::Value(record.data() + kWalFrameHeader, len);
  const uint32_t masked = crc32c::Mask(crc);
  for (int i = 0; i < 4; ++i) {
    record[4 + i] = static_cast<char>((masked >> (8 * i)) & 0xff);
  }

  Status st = EnsureSegment(record.size());
  if (!st.ok()) {
    // Rotation failures leave no torn bytes (either the old segment is
    // intact or the new file is empty) but the writer may have no open
    // file; RepairTail reopens.
    needs_repair_ = file_ == nullptr;
    return st;
  }
  st = file_->Append(record.data(), record.size());
  if (!st.ok()) {
    needs_repair_ = true;  // a prefix of the record may be on disk
    return st;
  }
  segment_offset_ += record.size();
  if (lsn != nullptr) *lsn = next_lsn_;
  ++next_lsn_;
  return Status::OK();
}

Status WalWriter::Sync() {
  if (file_ == nullptr) return Status::OK();
  ECRPQ_RETURN_IF_ERROR(file_->Sync());
  if (dir_dirty_) {
    ECRPQ_RETURN_IF_ERROR(fs_->SyncDir(dir_));
    dir_dirty_ = false;
  }
  return Status::OK();
}

Status WalWriter::RepairTail() {
  if (!needs_repair_) return Status::OK();
  if (!segment_name_.empty()) {
    if (file_ != nullptr) {
      file_->Close();  // best effort; the fd must go before truncate
      file_.reset();
    }
    const std::string path = SegmentPath(segment_name_);
    if (fs_->FileExists(path)) {
      ECRPQ_RETURN_IF_ERROR(fs_->Truncate(path, segment_offset_));
    }
    auto file = fs_->NewWritableFile(path, /*truncate=*/false);
    if (!file.ok()) return file.status();
    file_ = std::move(file).value();
  }
  needs_repair_ = false;
  return Status::OK();
}

}  // namespace ecrpq
