// Sets of fixed-width node-id rows: the FNV-1a row hash and a packed,
// open-addressing row set shared by the engines (head deduplication) and
// the operators (distinct projections).

#ifndef ECRPQ_CORE_ROW_SET_H_
#define ECRPQ_CORE_ROW_SET_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace ecrpq {

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

/// A set of rows of one fixed width: the rows packed back to back in one
/// arena, and an open-addressing table (linear probing, doubled at half
/// load) of row indices. A row is copied in only when it is new.
class PackedRowSet {
 public:
  explicit PackedRowSet(size_t width) : width_(width) {}

  /// Adds `row` (width values); false when an equal row is already in.
  bool Insert(std::span<const NodeId> row);

 private:
  std::span<const NodeId> Row(uint32_t index) const {
    return {arena_.data() + index * width_, width_};
  }
  size_t Home(std::span<const NodeId> row) const {
    return static_cast<size_t>((RowHash()(row) * 0x9E3779B97F4A7C15ULL) >>
                               shift_);
  }
  void Grow();

  size_t width_;
  uint32_t size_ = 0;
  int shift_ = 64;
  std::vector<NodeId> arena_;    // row i at [i * width_, (i + 1) * width_)
  std::vector<uint32_t> slots_;  // row index + 1; 0 = empty
};

}  // namespace ecrpq

#endif  // ECRPQ_CORE_ROW_SET_H_
