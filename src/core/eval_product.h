// The general ECRPQ engine: on-the-fly evaluation of the convolution
// product (Theorem 5.1, with the on-the-fly state handling of
// Theorems 6.1/6.3).
//
// The engine never materializes G^m or the joined relation automaton A_Q.
// A configuration is (one NFA state-subset per relation atom, one graph
// node per path variable, a pad mask); successors choose, per track, either
// a graph edge or ⊥ (monotone pads), and advance each relation on the
// projection of the chosen tuple letter. Node-variable equalities anchor
// start tuples (enumerated) and filter accepting configurations.
//
// EvaluateProduct runs the query's PhysicalPlan (core/planner.h): the
// leaves (ReachabilityScan / ProductExpand, sideways-seeded where marked)
// into BindingTables, the SemiJoinFilter fixpoint, the early projection
// steps, then one streamed final join (StreamJoinOp, core/ops.h) whose
// distinct head tuples go to the sink as they are found. A CRPQ's plan is
// the all-scan plan of Thm 6.5.

#ifndef ECRPQ_CORE_EVAL_PRODUCT_H_
#define ECRPQ_CORE_EVAL_PRODUCT_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "automata/operations.h"
#include "core/evaluator.h"
#include "core/reachability.h"
#include "core/row_set.h"
#include "query/analysis.h"

namespace ecrpq {

struct PhysicalPlan;  // core/planner.h

/// A node term resolved against a graph: constant node or variable index.
struct ResolvedTerm {
  bool is_const = false;
  int var = -1;      // index into Query::node_variables() when !is_const
  NodeId node = -1;  // bound node when is_const
};

/// A path atom with resolved terms; `path` indexes Query::path_variables().
struct ResolvedAtom {
  ResolvedTerm from;
  ResolvedTerm to;
  int path = -1;
};

/// A relation atom prepared for simulation: ε-free NFA with symbol-sorted
/// arc tables, and the path-variable indices it reads.
struct ResolvedRelation {
  const RegularRelation* relation = nullptr;
  Nfa nfa;  // ε-free
  /// nfa's arcs sorted by symbol per state: arcs.On(s, sym) lists the
  /// successors of `s` under `sym` in arc order.
  ArcsBySymbol arcs;
  std::vector<StateId> initial;
  std::vector<bool> accepting;
  std::vector<int> paths;  // indices into Query::path_variables()

  /// tape_masks[s][tape]: bitmask of base symbols some transition out of
  /// state `s` can read on `tape` (a non-pad tape component). The product
  /// search intersects these over a configuration's live state-sets to
  /// expand only label slices that can advance every relation — the
  /// restricted-edge access of Thm 6.1. All-ones when the base alphabet
  /// exceeds 64 letters (no pruning).
  std::vector<std::vector<uint64_t>> tape_masks;

  /// The reversed tape, compiled alongside the forward one so backward /
  /// bidirectional half-searches simulate Reverse(nfa) over the SAME
  /// state id space (meet detection intersects forward and backward
  /// state-subsets directly):
  ///   rev_arcs.On(s, sym) — predecessors of `s` under `sym` (the
  ///       reversed NFA's arcs, symbol-sorted; state ids coincide with
  ///       `nfa`'s);
  ///   rev_initial / rev_accepting — the forward accepting / initial
  ///       states (a backward simulation starts at acceptance and
  ///       succeeds on reaching an initial state);
  ///   rev_tape_masks[s][tape] — per-state *in*-letter masks: base
  ///       symbols some transition INTO `s` reads on `tape`. A backward
  ///       expansion intersects these the way the forward search uses
  ///       tape_masks, gating GraphIndex::In() slices by InLabelMask.
  ArcsBySymbol rev_arcs;
  std::vector<StateId> rev_initial;
  std::vector<bool> rev_accepting;
  std::vector<std::vector<uint64_t>> rev_tape_masks;

  ResolvedRelation() : nfa(0) {}
};

/// The graph-independent compiled form of a query: per-relation ε-free
/// NFAs with symbol-sorted arc tables, plus the structural analysis.
/// This is the query-dependent work the paper's complexity split charges
/// to compilation — PreparedQuery builds it once and shares it across
/// executions; ResolveQuery builds it on the fly when absent.
struct CompiledQuery {
  std::vector<ResolvedRelation> relations;
  /// Per path variable: the language of a ReachabilityScan leaf over it,
  /// built when the variable has one path atom and every relation
  /// reading it is unary (in relation order); empty otherwise.
  std::vector<std::optional<ScanLanguage>> scan_languages;
  QueryAnalysis analysis;
  int base_size = 0;  ///< alphabet size the relations were checked against
};

/// Compiles `query`'s relation atoms against a base alphabet of
/// `base_size` letters (InvalidArgument on mismatch) and analyzes it.
Result<CompiledQueryPtr> CompileQuery(const Query& query, int base_size);

/// Query resolved against a graph (constants bound, relations prepared).
struct ResolvedQuery {
  const GraphDb* graph = nullptr;
  const Query* query = nullptr;
  std::vector<ResolvedAtom> atoms;
  CompiledQueryPtr compiled;  ///< never null after ResolveQuery
  GraphIndexPtr index;        ///< CSR view of *graph; null until built

  const std::vector<ResolvedRelation>& relations() const {
    return compiled->relations;
  }
  const QueryAnalysis& analysis() const { return compiled->analysis; }
};

/// Resolves and checks (constants exist, no unbound parameters, relation
/// alphabets match). `compiled` reuses a prior CompileQuery result for
/// this query; when null it is built here. `index` (optional) is a
/// prebuilt CSR view of `graph`; when null, engines that read one build a
/// per-run index after resolving.
Result<ResolvedQuery> ResolveQuery(const GraphDb& graph, const Query& query,
                                   CompiledQueryPtr compiled = nullptr,
                                   GraphIndexPtr index = nullptr);

/// Shared streaming emission for engines that project head tuples during
/// a join: deduplicates, builds the Prop 5.2 path-answer automaton per
/// new tuple when the query requests it, and pushes into the sink.
/// Emit returns false when the engine should stop searching — either the
/// sink requested early termination or path-answer construction failed
/// (check status()). When the execution carries a CancellationToken
/// (EvalOptions::cancellation), a sink-requested stop trips it, so any
/// workers still running unwind promptly (limit / exists pushdown
/// reaching the whole execution, not just the join loop). A caller that
/// can never produce a head twice passes `heads_distinct` to skip the
/// duplicate check and its set.
class HeadTupleEmitter {
 public:
  HeadTupleEmitter(const ResolvedQuery& rq, const EvalOptions& options,
                   ResultSink& sink, bool heads_distinct = false);

  /// False = stop the search. Duplicate tuples are ignored (returns true).
  bool Emit(const std::vector<NodeId>& head);

  const Status& status() const { return status_; }

  /// True when the sink requested early termination (limit reached) —
  /// distinguishes a benign stop from an external cancellation.
  bool stopped_by_sink() const { return stopped_by_sink_; }

 private:
  const ResolvedQuery& rq_;
  const EvalOptions& options_;
  ResultSink& sink_;
  bool with_paths_;
  bool heads_distinct_;
  bool stopped_by_sink_ = false;
  PackedRowSet seen_;
  Status status_;
};

/// Evaluates with the product engine, streaming distinct tuples into
/// `sink`. Rejects linear atoms (FailedPrecondition) — those belong to
/// the counting engine. `plan` (optional) is a PhysicalPlan for this
/// query produced by PlanQuery (core/planner.h) — prepared executions
/// pass their cached plan; when null (or planned for another engine) the
/// engine plans on the fly against its index.
Status EvaluateProduct(const GraphDb& graph, const Query& query,
                       const EvalOptions& options, ResultSink& sink,
                       EvalStats& stats, CompiledQueryPtr compiled = nullptr,
                       GraphIndexPtr index = nullptr,
                       const PhysicalPlan* plan = nullptr);

/// Materializing convenience wrapper (sorted tuples).
Result<QueryResult> EvaluateProduct(const GraphDb& graph, const Query& query,
                                    const EvalOptions& options);

/// Builds the Prop 5.2 answer automaton for one head-node binding.
/// `head_nodes` is parallel to query.head_nodes(). All tracks of the query
/// participate; the automaton is projected onto the head path variables
/// (all-pad projections are ε-eliminated so counting stays exact).
Result<PathAnswerSet> BuildPathAnswerSet(
    const GraphDb& graph, const Query& query, const EvalOptions& options,
    const std::vector<NodeId>& head_nodes, CompiledQueryPtr compiled = nullptr,
    GraphIndexPtr index = nullptr);

/// The materialized product automaton of one synchronization component
/// under a full node assignment (used by the counting engine of Thm 8.5).
struct ComponentProductGraph {
  std::vector<int> tracks;  ///< global path-variable id per local track
  int num_states = 0;
  std::vector<bool> initial;
  std::vector<bool> accepting;
  /// (from, to, per-track letters with kPad for ⊥).
  std::vector<std::tuple<int, int, std::vector<Symbol>>> arcs;
};

/// Builds one product graph per synchronization component with every node
/// variable fixed by `assignment` (parallel to query.node_variables()).
Result<std::vector<ComponentProductGraph>> BuildComponentProducts(
    const GraphDb& graph, const Query& query, const EvalOptions& options,
    const std::vector<NodeId>& assignment, CompiledQueryPtr compiled = nullptr,
    GraphIndexPtr index = nullptr);

}  // namespace ecrpq

#endif  // ECRPQ_CORE_EVAL_PRODUCT_H_
