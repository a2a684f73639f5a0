// wal_dump: offline inspector for an ecrpq durable data directory.
//
//   $ wal_dump <data-dir> [--records]
//
// Prints the checkpoints, decodes the newest one (node, edge, label and
// named-node counts, and "crc ok" or "CORRUPT <reason>"), every WAL
// segment with its LSN range and record count, and whether the log
// tail is torn/corrupt (and where). Never writes — safe to run against
// a live server's dir (it does not take the LOCK). With --records,
// every record's lsn, type, and payload size is listed.
//
// Exit codes: 0 checkpoint and log intact, 1 corrupt newest checkpoint
// or truncated/corrupt log, 2 usage or I/O error.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "util/io.h"
#include "wal/wal.h"
#include "wal/wal_format.h"

using namespace ecrpq;

namespace {

const char* TypeName(WalRecordType type) {
  switch (type) {
    case WalRecordType::kMutation:
      return "mutation";
    case WalRecordType::kEdgeDelta:
      return "edge-delta";
    case WalRecordType::kNoop:
      return "noop";
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  bool dump_records = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--records") {
      dump_records = true;
    } else if (dir.empty()) {
      dir = arg;
    } else {
      dir.clear();
      break;
    }
  }
  if (dir.empty()) {
    std::fprintf(stderr, "usage: wal_dump <data-dir> [--records]\n");
    return 2;
  }

  FileSystem* fs = PosixFileSystem();

  // Checkpoints (normally exactly one; stale ones mean an interrupted
  // prune).
  auto entries = fs->ListDir(dir);
  if (!entries.ok()) {
    std::fprintf(stderr, "error: %s\n", entries.status().ToString().c_str());
    return 2;
  }
  uint64_t newest_ckpt = 0;
  bool have_ckpt = false;
  for (const auto& name : entries.value()) {
    uint64_t lsn = 0;
    if (ParseCheckpointName(name, &lsn)) {
      auto size = fs->FileSize(dir + "/" + name);
      std::printf("checkpoint  %s  lsn=%" PRIu64 "  %" PRIu64 " bytes\n",
                  name.c_str(), lsn,
                  size.ok() ? size.value() : uint64_t{0});
      if (!have_ckpt || lsn > newest_ckpt) newest_ckpt = lsn;
      have_ckpt = true;
    }
  }
  bool ckpt_corrupt = false;
  if (!have_ckpt) {
    std::printf("checkpoint  (none)\n");
  } else {
    PageVector<char> image;
    Status read = fs->ReadFile(dir + "/" + CheckpointName(newest_ckpt), &image);
    if (!read.ok()) {
      std::fprintf(stderr, "error: %s\n", read.ToString().c_str());
      return 2;
    }
    auto decoded =
        DecodeCheckpoint(std::string_view(image.data(), image.size()));
    if (decoded.ok()) {
      const GraphDb& g = decoded.value().catalog;
      int named = 0;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (!g.StoredName(v).empty()) ++named;
      }
      std::printf("newest      nodes=%d edges=%d labels=%d named=%d  crc ok\n",
                  g.num_nodes(), g.num_edges(), g.alphabet().size(), named);
    } else {
      ckpt_corrupt = true;
      std::printf("newest      CORRUPT %s\n",
                  decoded.status().message().c_str());
    }
  }

  auto segments = ListWalSegments(fs, dir);
  if (!segments.ok()) {
    std::fprintf(stderr, "error: %s\n", segments.status().ToString().c_str());
    return 2;
  }

  // Scan from lsn 0 so the full log is validated, not just the part a
  // recovery would replay; tally per-segment ranges from the records.
  struct SegmentTally {
    uint64_t first = 0, last = 0, records = 0;
  };
  std::map<std::string, SegmentTally> tallies;
  for (const auto& seg : segments.value()) tallies[seg.name];

  auto scanned = ScanWal(
      fs, dir, /*min_lsn=*/0,
      [&](uint64_t lsn, WalRecordType type, std::string_view payload) {
        // Records sort into segments by filename first-LSN.
        std::string owner;
        for (const auto& seg : segments.value()) {
          if (seg.first_lsn <= lsn) owner = seg.name;
        }
        if (!owner.empty()) {
          auto& tally = tallies[owner];
          if (tally.records == 0) tally.first = lsn;
          tally.last = lsn;
          ++tally.records;
        }
        if (dump_records) {
          std::printf("record      lsn=%" PRIu64 "  %-10s  %zu bytes\n", lsn,
                      TypeName(type), payload.size());
        }
        return Status::OK();
      });
  if (!scanned.ok()) {
    std::fprintf(stderr, "error: %s\n", scanned.status().ToString().c_str());
    return 2;
  }
  const WalScanStats& stats = scanned.value();

  for (const auto& seg : segments.value()) {
    const SegmentTally& tally = tallies[seg.name];
    auto size = fs->FileSize(dir + "/" + seg.name);
    if (tally.records > 0) {
      std::printf("segment     %s  lsn=[%" PRIu64 ", %" PRIu64 "]  %" PRIu64
                  " record(s)  %" PRIu64 " bytes\n",
                  seg.name.c_str(), tally.first, tally.last, tally.records,
                  size.ok() ? size.value() : uint64_t{0});
    } else {
      std::printf("segment     %s  (no valid records)  %" PRIu64 " bytes\n",
                  seg.name.c_str(), size.ok() ? size.value() : uint64_t{0});
    }
  }

  std::printf("log         %" PRIu64 " record(s), last lsn %" PRIu64 ", %" PRIu64
              " byte(s) valid\n",
              stats.records, stats.last_lsn, stats.bytes);
  if (have_ckpt) {
    std::printf("recovery    would replay lsn (%" PRIu64 ", %" PRIu64 "]\n",
                newest_ckpt,
                stats.last_lsn > newest_ckpt ? stats.last_lsn : newest_ckpt);
  }

  if (stats.truncated) {
    std::printf("TRUNCATED   %s at %s+%" PRIu64
                " — recovery will chop the tail here\n",
                stats.truncate_reason.c_str(), stats.truncate_segment.c_str(),
                stats.truncate_offset);
    for (const auto& orphan : stats.orphan_segments) {
      std::printf("ORPHAN      %s (unreachable past the truncation point)\n",
                  orphan.c_str());
    }
    return 1;
  }
  std::printf("intact      no torn or corrupt records\n");
  return ckpt_corrupt ? 1 : 0;
}
