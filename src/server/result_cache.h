// Snapshot-keyed result cache of the serving layer.
//
// Repeated anchored queries (hot prepared statements executed with the
// same parameters) dominate read-heavy serving traffic; their full
// answer sets are small and cheap to keep. The cache memoizes the
// *rendered* result — wire-encoded node-name rows, detached from the
// graph — keyed by
//
//   (query text, canonical parameter bindings, GraphIndex snapshot)
//
// The snapshot is held as a weak_ptr to the immutable CSR index the
// execution pinned. Database::MutateGraph swaps that snapshot (the old
// one dies with its last execution), so after any mutation every cached
// entry's weak_ptr no longer locks to the current index and the lookup
// treats it as a miss and evicts it: invalidation is a *consequence of
// the snapshot protocol*, not a separate bookkeeping channel that could
// miss a write path. Entries are LRU-evicted beyond `capacity`, and only
// complete, untruncated, OK results of bounded size are inserted.

#ifndef ECRPQ_SERVER_RESULT_CACHE_H_
#define ECRPQ_SERVER_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/index.h"

namespace ecrpq {

/// A memoized, rendered result, ready for the wire: the node names of
/// every row, each u32-length-prefixed as a ROWS frame carries them, back
/// to back in one buffer, with the byte offset where each row starts. A
/// ROWS page is a byte slice of it. Shared (immutable) between the cache
/// and in-flight replies.
struct CachedResult {
  uint16_t arity = 0;
  /// The server's max_result_rows ceiling stopped the execution early;
  /// the rows are a prefix of the full answer set. Never cached.
  bool truncated = false;
  std::vector<uint8_t> bytes;
  /// Row r is bytes [offsets[r], offsets[r + 1]).
  std::vector<size_t> offsets = {0};

  size_t num_rows() const { return offsets.size() - 1; }
};
using CachedResultPtr = std::shared_ptr<const CachedResult>;

class ResultCache {
 public:
  explicit ResultCache(size_t capacity = 1024, size_t max_rows = 4096)
      : capacity_(capacity), max_rows_(max_rows) {}

  /// Builds the canonical key for (text, sorted params).
  static std::string Key(
      const std::string& text,
      const std::vector<std::pair<std::string, std::string>>& params);

  /// Returns the cached result when `key` was inserted against exactly
  /// the snapshot `index`; a stale entry (any other / dead snapshot) is
  /// evicted and counted as a miss.
  CachedResultPtr Lookup(const std::string& key, const GraphIndexPtr& index);

  /// Inserts a result computed against `index`. Oversized results and
  /// null snapshots are ignored (the caller need not pre-filter).
  void Insert(const std::string& key, const GraphIndexPtr& index,
              CachedResultPtr result);

  /// Drops every entry (serving shutdown / tests).
  void Clear();

  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t insertions() const;
  uint64_t invalidations() const;  ///< stale-snapshot evictions
  size_t size() const;

 private:
  struct Entry {
    std::weak_ptr<const GraphIndex> snapshot;
    CachedResultPtr result;
    std::list<std::string>::iterator lru_it;
  };

  void Touch(Entry& entry, const std::string& key);

  const size_t capacity_;
  const size_t max_rows_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> map_;
  std::list<std::string> lru_;  // front = most recently used
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t insertions_ = 0;
  uint64_t invalidations_ = 0;
};

}  // namespace ecrpq

#endif  // ECRPQ_SERVER_RESULT_CACHE_H_
