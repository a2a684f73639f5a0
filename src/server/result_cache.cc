#include "server/result_cache.h"

#include <algorithm>

namespace ecrpq {

namespace {

/// Appends a u32 length prefix, then the bytes. Param values are
/// client-supplied node names that may contain ANY byte, so no joiner
/// character can delimit components unambiguously — only an explicit
/// length can.
void AppendLengthPrefixed(const std::string& s, std::string* out) {
  const uint32_t n = static_cast<uint32_t>(s.size());
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((n >> (8 * i)) & 0xff));
  }
  out->append(s);
}

}  // namespace

std::string ResultCache::Key(
    const std::string& text,
    const std::vector<std::pair<std::string, std::string>>& params) {
  // Canonical form: length-prefixed text, then length-prefixed
  // name/value pairs sorted by name. Two distinct (text, params)
  // bindings can never build the same key, so a shared cross-session
  // cache can never serve rows computed for a different binding.
  std::vector<std::pair<std::string, std::string>> sorted = params;
  std::sort(sorted.begin(), sorted.end());
  std::string key;
  key.reserve(text.size() + 4 * (1 + 2 * sorted.size()));
  AppendLengthPrefixed(text, &key);
  for (const auto& [name, value] : sorted) {
    AppendLengthPrefixed(name, &key);
    AppendLengthPrefixed(value, &key);
  }
  return key;
}

CachedResultPtr ResultCache::Lookup(const std::string& key,
                                    const GraphIndexPtr& index) {
  if (index == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  if (it->second.snapshot.lock() != index) {
    // The graph mutated since this entry was computed: the Database
    // swapped its index snapshot, so the weak_ptr no longer locks to the
    // current one. Evict; serving a stale answer is never an option.
    ++invalidations_;
    ++misses_;
    lru_.erase(it->second.lru_it);
    map_.erase(it);
    return nullptr;
  }
  ++hits_;
  Touch(it->second, key);
  return it->second.result;
}

void ResultCache::Insert(const std::string& key, const GraphIndexPtr& index,
                         CachedResultPtr result) {
  if (capacity_ == 0 || index == nullptr || result == nullptr ||
      result->truncated || result->num_rows() > max_rows_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    it->second.snapshot = index;
    it->second.result = std::move(result);
    Touch(it->second, key);
    ++insertions_;
    return;
  }
  while (map_.size() >= capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(key);
  map_.emplace(key, Entry{index, std::move(result), lru_.begin()});
  ++insertions_;
}

void ResultCache::Touch(Entry& entry, const std::string& key) {
  lru_.erase(entry.lru_it);
  lru_.push_front(key);
  entry.lru_it = lru_.begin();
}

void ResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
  lru_.clear();
}

uint64_t ResultCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}
uint64_t ResultCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}
uint64_t ResultCache::insertions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return insertions_;
}
uint64_t ResultCache::invalidations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return invalidations_;
}
size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

}  // namespace ecrpq
