#include "core/row_set.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <numeric>

namespace ecrpq {

namespace {

// Sorts rows of arity K as fixed-width values and drops duplicates: each
// row is one std::array, compared and moved directly instead of through a
// row-id permutation and indirect comparisons. `data` is freed once copied,
// so at most two copies of the rows are live.
template <size_t K>
std::vector<NodeId> SortUniqueFixed(std::vector<NodeId> data) {
  using Row = std::array<NodeId, K>;
  static_assert(sizeof(Row) == K * sizeof(NodeId));
  std::vector<Row> rows(data.size() / K);
  std::memcpy(rows.data(), data.data(), data.size() * sizeof(NodeId));
  data = std::vector<NodeId>();  // frees; `= {}` would keep the capacity
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  data.resize(rows.size() * K);
  std::memcpy(data.data(), rows.data(), data.size() * sizeof(NodeId));
  return data;
}

}  // namespace

bool RowBuffer::Ascending(bool strict) const {
  for (size_t r = 1; r < size_; ++r) {
    std::span<const NodeId> a = (*this)[r - 1], b = (*this)[r];
    const bool ordered =
        strict ? std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                              b.end())
               : !std::lexicographical_compare(b.begin(), b.end(),
                                               a.begin(), a.end());
    if (!ordered) return false;
  }
  return true;
}

void RowBuffer::SortUnique() {
  if (arity_ == 0) {
    size_ = std::min<size_t>(size_, 1);
    return;
  }
  if (Ascending(/*strict=*/true)) return;
  std::vector<NodeId> out;
  if (arity_ == 2) {
    // Pairs sort as one order-preserving 64-bit key each.
    constexpr uint32_t kSign = 0x80000000u;
    std::vector<uint64_t> keys(size_);
    for (size_t r = 0; r < size_; ++r) {
      keys[r] = uint64_t{static_cast<uint32_t>(data_[2 * r]) ^ kSign} << 32 |
                (static_cast<uint32_t>(data_[2 * r + 1]) ^ kSign);
    }
    data_ = std::vector<NodeId>();  // freed: the keys hold the rows
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    out.reserve(2 * keys.size());
    for (uint64_t key : keys) {
      out.push_back(static_cast<NodeId>((key >> 32) ^ kSign));
      out.push_back(static_cast<NodeId>(static_cast<uint32_t>(key) ^ kSign));
    }
  } else if (arity_ == 3) {
    out = SortUniqueFixed<3>(std::move(data_));
  } else if (arity_ == 4) {
    out = SortUniqueFixed<4>(std::move(data_));
  } else {
    for (uint32_t r : SortedOrder()) {
      std::span<const NodeId> row = (*this)[r];
      if (out.empty() || !std::equal(row.begin(), row.end(), out.end() - arity_)) {
        out.insert(out.end(), row.begin(), row.end());
      }
    }
  }
  data_ = std::move(out);
  size_ = data_.size() / arity_;
}

std::vector<uint32_t> RowBuffer::SortedOrder() const {
  std::vector<uint32_t> order(size_);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    std::span<const NodeId> x = (*this)[a], y = (*this)[b];
    return std::lexicographical_compare(x.begin(), x.end(), y.begin(),
                                        y.end());
  });
  return order;
}

std::vector<std::vector<NodeId>> RowBuffer::ToVectors() const {
  std::vector<std::vector<NodeId>> out;
  out.reserve(size_);
  for (std::span<const NodeId> row : *this) {
    out.emplace_back(row.begin(), row.end());
  }
  return out;
}

size_t PackedRowSet::Slot(std::span<const NodeId> row) const {
  ECRPQ_DCHECK(row.size() == rows_.arity());
  const size_t mask = slots_.size() - 1;
  size_t i = Home(row);
  for (; slots_[i] != 0; i = (i + 1) & mask) {
    std::span<const NodeId> other = rows_[slots_[i] - 1];
    if (std::equal(other.begin(), other.end(), row.begin())) break;
  }
  return i;
}

bool PackedRowSet::Insert(std::span<const NodeId> row) {
  if (2 * (rows_.size() + 1) > slots_.size()) Grow();
  uint32_t& slot = slots_[Slot(row)];
  if (slot != 0) return false;
  rows_.push_back(row);
  slot = static_cast<uint32_t>(rows_.size());
  return true;
}

bool PackedRowSet::Contains(std::span<const NodeId> row) const {
  return !slots_.empty() && slots_[Slot(row)] != 0;
}

void PackedRowSet::Grow() {
  slots_.assign(slots_.empty() ? 64 : 2 * slots_.size(), 0);
  shift_ = 64 - std::countr_zero(slots_.size());
  const size_t mask = slots_.size() - 1;
  for (uint32_t r = 0; r < rows_.size(); ++r) {
    size_t i = Home(rows_[r]);
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = r + 1;
  }
}

}  // namespace ecrpq
