// Packed rows of node ids: a fixed-arity row buffer (the row currency of
// the operator layer, from leaf to sink), the FNV-1a row hash, and an
// open-addressing set over such a buffer shared by the engines (head
// deduplication) and the operators (distinct projections).

#ifndef ECRPQ_CORE_ROW_SET_H_
#define ECRPQ_CORE_ROW_SET_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace ecrpq {

/// Rows of one fixed arity packed back to back in one vector: row r is
/// [r * arity, (r + 1) * arity). Arity-0 rows are counted, not stored.
class RowBuffer {
 public:
  explicit RowBuffer(size_t arity = 0) : arity_(arity) {}

  size_t arity() const { return arity_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  std::span<const NodeId> operator[](size_t r) const {
    return {data_.data() + r * arity_, arity_};
  }

  void push_back(std::span<const NodeId> row) {
    ECRPQ_DCHECK(row.size() == arity_);
    data_.insert(data_.end(), row.begin(), row.end());
    ++size_;
  }
  /// Appends one row and returns it for the caller to fill.
  std::span<NodeId> Append() {
    data_.resize(data_.size() + arity_);
    ++size_;
    return {data_.data() + data_.size() - arity_, arity_};
  }
  /// Appends every row of `other` (same arity).
  void Append(const RowBuffer& other) {
    ECRPQ_DCHECK(other.arity_ == arity_);
    data_.insert(data_.end(), other.data_.begin(), other.data_.end());
    size_ += other.size_;
  }

  /// True when every row is lexicographically >= (strict: >) the one
  /// before it.
  bool Ascending(bool strict) const;

  /// Sorts the rows lexicographically and drops duplicates: the order and
  /// content of a std::set of the rows. Rows already strictly ascending
  /// cost one comparison pass.
  void SortUnique();

  /// Row ids in ascending lexicographic row order.
  std::vector<uint32_t> SortedOrder() const;

  /// The rows as one heap vector each (the QueryResult form).
  std::vector<std::vector<NodeId>> ToVectors() const;

  bool operator==(const RowBuffer& other) const = default;

  struct Iterator {
    const RowBuffer* rows;
    size_t r;
    std::span<const NodeId> operator*() const { return (*rows)[r]; }
    Iterator& operator++() { return ++r, *this; }
    bool operator==(const Iterator& other) const = default;
  };
  Iterator begin() const { return {this, 0}; }
  Iterator end() const { return {this, size_}; }

 private:
  size_t arity_;
  size_t size_ = 0;
  std::vector<NodeId> data_;
};

/// FNV-1a over a row of node ids.
struct RowHash {
  size_t operator()(std::span<const NodeId> row) const {
    uint64_t h = 1469598103934665603ULL;
    for (NodeId v : row) {
      h ^= static_cast<uint32_t>(v);
      h *= 1099511628211ULL;
    }
    return h;
  }
};

/// A set of rows of one fixed width: the distinct rows in insertion
/// order in one RowBuffer, and an open-addressing table (linear probing,
/// doubled at half load) of row indices. A row is copied in only when it
/// is new.
class PackedRowSet {
 public:
  explicit PackedRowSet(size_t width) : rows_(width) {}

  /// Adds `row` (width values); false when an equal row is already in.
  bool Insert(std::span<const NodeId> row);
  bool Contains(std::span<const NodeId> row) const;

  /// The distinct rows, in first-insertion order.
  RowBuffer TakeRows() && { return std::move(rows_); }

 private:
  size_t Home(std::span<const NodeId> row) const {
    return static_cast<size_t>((RowHash()(row) * 0x9E3779B97F4A7C15ULL) >>
                               shift_);
  }
  // The slot holding `row`, or the empty slot ending its probe run.
  size_t Slot(std::span<const NodeId> row) const;
  void Grow();

  RowBuffer rows_;
  int shift_ = 64;
  std::vector<uint32_t> slots_;  // row index + 1; 0 = empty
};

}  // namespace ecrpq

#endif  // ECRPQ_CORE_ROW_SET_H_
