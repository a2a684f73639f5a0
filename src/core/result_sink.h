// Streaming result delivery for the evaluation engines.
//
// Engines emit each distinct answer tuple through a ResultSink as soon as
// it is discovered, instead of materializing the whole answer set. A sink
// can stop evaluation early by returning false from Emit — this is how
// cursor `limit` and `exists()` push termination down into the engines
// (the search stops, remaining path-answer automata are never built).
//
// Tuples arrive in discovery order, deduplicated. Callers that need the
// canonical sorted order (the QueryResult contract) sort after the run —
// see MaterializingSink::SortRows.
//
// Ordering contract under parallelism
// -----------------------------------
// Sinks are always driven from ONE thread: engines run their parallel
// work inside operator leaves, merge per-worker results at barrier
// points, and only then stream head tuples through the (serial) join into
// the sink. Sink implementations therefore need no internal locking.
// Those barrier merges fold worker outputs in canonical seed order, so the
// emission sequence — and hence which k tuples an early-terminating sink
// keeps — is independent of EvalOptions::num_threads.
//
// Early termination and cancellation: returning false from Emit stops the
// engine as before; when the execution carries a CancellationToken
// (EvalOptions::cancellation), the engine also trips it so that any
// workers still running unwind promptly.

#ifndef ECRPQ_CORE_RESULT_SINK_H_
#define ECRPQ_CORE_RESULT_SINK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/path_answers.h"
#include "core/row_set.h"
#include "graph/graph.h"

namespace ecrpq {

/// Consumer of answer tuples produced by an evaluation engine.
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// One distinct head-node binding. `paths` is the Prop 5.2 answer
  /// automaton for the tuple when the query head has path variables and
  /// path answers were requested, else null; the sink may move from it
  /// (the engine builds one per tuple and does not reuse it). Returns
  /// false to request early termination: the engine stops searching and
  /// returns OK.
  virtual bool Emit(std::span<const NodeId> tuple, PathAnswerSet* paths) = 0;
};

/// A sink that materializes rows into one packed buffer (its arity is
/// the first tuple's), optionally stopping after `limit` rows.
class MaterializingSink : public ResultSink {
 public:
  /// `limit` = 0 means unlimited.
  explicit MaterializingSink(uint64_t limit = 0) : limit_(limit) {}

  bool Emit(std::span<const NodeId> tuple, PathAnswerSet* paths) override;

  /// Restores the canonical sorted-by-tuple order (engines emit in
  /// discovery order); keeps path_answers parallel to tuples.
  void SortRows();

  RowBuffer tuples;
  /// Empty, or parallel to `tuples`.
  std::vector<PathAnswerSet> path_answers;

 private:
  uint64_t limit_;
};

}  // namespace ecrpq

#endif  // ECRPQ_CORE_RESULT_SINK_H_
