#include "api/result_cursor.h"

#include <shared_mutex>

#include "api/database.h"
#include "util/deadline.h"

namespace ecrpq {

void ResultCursor::Run(uint64_t limit) {
  ran_ = true;
  sink_ = MaterializingSink(limit);
  if (query_ == nullptr) return;  // default-constructed: empty, exhausted
  if (static_empty_) {
    // The optimizer proved the query empty on every graph; skip the engine.
    stats_.engine = "static-empty";
    return;
  }
  // An expired deadline sheds the execution before it pins a snapshot or
  // touches the engine: a queued request that missed its deadline must
  // fail as Cancelled, not run to completion late (and must not hold the
  // read guard while doing stale work).
  if (deadline_.has_value() &&
      std::chrono::steady_clock::now() >= *deadline_) {
    status_ = Status::Cancelled("deadline exceeded before evaluation");
    return;
  }
  // Arm the deadline for the duration of the engine run: the shared
  // monitor trips the execution's token at the deadline and the engine
  // unwinds with Status::Cancelled mid-search. The guard disarms on every
  // exit path, so a finished execution can never trip a token late.
  DeadlineGuard deadline_guard;
  if (deadline_.has_value()) {
    if (options_.cancellation == nullptr) {
      options_.cancellation = std::make_shared<CancellationToken>();
    }
    deadline_guard = DeadlineGuard(options_.cancellation, *deadline_);
  }
  // Hold the session's read guard for the engine run: MutateGraph waits
  // for in-flight cursors, and the engine (including its worker lanes,
  // which run while this thread blocks on the lane barrier) reads a
  // stable graph. The snapshot is pinned again here, so a write between
  // Execute and the first Next() is picked up.
  std::shared_lock<std::shared_mutex> read_lock;
  if (db_ != nullptr) {
    read_lock = db_->ReadLock();
    index_ = db_->graph_index();
  }
  Evaluator evaluator(graph_, options_);
  evaluator.set_graph_index(index_);
  status_ = evaluator.Evaluate(*query_, sink_, stats_, compiled_,
                               plan_.get());
  // The engine may have emitted a complete result in the same instant the
  // deadline tripped the token; completing OK is correct then. But an
  // engine that returned OK on a tripped DEADLINE token without having
  // finished cannot happen: trips surface as Cancelled from the engines.
}

bool ResultCursor::Next() {
  if (!ran_) Run(limit_);
  if (!status_.ok()) return false;
  size_t next = (rows_returned_ == 0) ? 0 : pos_ + 1;
  if (next >= sink_.tuples.size()) return false;
  pos_ = next;
  ++rows_returned_;
  return true;
}

const std::vector<NodeId>& ResultCursor::tuple() const {
  if (rows_returned_ > 0 && tuple_pos_ != pos_) {
    const std::span<const NodeId> current = row();
    tuple_.assign(current.begin(), current.end());
    tuple_pos_ = pos_;
  }
  return tuple_;
}

bool ResultCursor::exists() {
  if (!ran_) Run(1);
  return status_.ok() && !sink_.tuples.empty();
}

}  // namespace ecrpq
