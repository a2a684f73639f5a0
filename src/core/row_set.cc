#include "core/row_set.h"

#include <algorithm>
#include <bit>

namespace ecrpq {

bool PackedRowSet::Insert(std::span<const NodeId> row) {
  ECRPQ_DCHECK(row.size() == width_);
  if (2 * (size_t{size_} + 1) > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(row);; i = (i + 1) & mask) {
    if (slots_[i] == 0) {
      arena_.insert(arena_.end(), row.begin(), row.end());
      slots_[i] = ++size_;
      return true;
    }
    std::span<const NodeId> other = Row(slots_[i] - 1);
    if (std::equal(other.begin(), other.end(), row.begin())) return false;
  }
}

void PackedRowSet::Grow() {
  slots_.assign(slots_.empty() ? 64 : 2 * slots_.size(), 0);
  shift_ = 64 - std::countr_zero(slots_.size());
  const size_t mask = slots_.size() - 1;
  for (uint32_t r = 0; r < size_; ++r) {
    size_t i = Home(Row(r));
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = r + 1;
  }
}

}  // namespace ecrpq
