// Physical operator layer: the executable pieces a PhysicalPlan
// (core/planner.h) is made of.
//
// The paper's tractability results all hinge on *decomposing* the
// conjunction: Theorem 6.5 joins per-atom reachability relations, and the
// synchronization-component argument behind Prop 6.2 evaluates each
// component's product independently. This layer turns those two shapes
// into reusable operators over a common currency — the BindingTable, a
// materialized relation over node variables:
//
//   ReachabilityScan   one path atom, all-unary languages: the (u, v)
//                      pair relation via one intersected-NFA BFS
//                      (core/reachability.h)
//   ProductExpand      one synchronization component: the on-the-fly
//                      convolution product search (Thm 6.1)
//   HashJoin           projected natural join of two binding tables on
//                      shared vars (HashJoinOp), or the streamed
//                      multi-way final join (StreamJoinOp)
//   SemiJoinFilter     reduce a table to rows matched by another
//   Project            ProjectDistinct, the early-projection step
//   LinearConstraintCheck  the counting engine's per-assignment ILP
//                      (recorded as operator stats; see eval_counting.cc)
//
// One executor strings them together (ExecutePlan in eval_product.cc). A
// CRPQ's plan is the all-scan plan of Thm 6.5: every leaf is a
// ReachabilityScan.
//
// Leaves support *sideways information passing*: a seed table of bindings
// produced by earlier operators restricts the leaf's start-variable
// enumeration (ProductExpand runs once per seed row; ReachabilityScan
// BFSes only from seeded sources) instead of the full degree-ordered
// seeding over every node. The planner decides when seeding pays off.
//
// Leaves are *direction-aware* (core/planner.h picks per leaf): forward
// expands out-edges from start anchors; backward runs the mirror search
// over GraphIndex::In() slices through the compiled reversed automata
// (ResolvedRelation::rev_*), turning a bound-end/free-start leaf from
// |V| forward searches into one backward search; bidirectional runs both
// half-searches of a fully anchored leaf, always expanding the smaller
// frontier, and stops at the first meet — a forward and a backward
// configuration on the same nodes whose state-subsets intersect for
// every relation (meet-in-the-middle).
//
// Leaves are morsel-driven parallel (core/parallel.h) when the caller
// passes num_threads > 1: they partition their seed sets (scan sources,
// seed rows, start assignments) into morsels pulled by worker lanes. A
// leaf with a single anchor assignment is one product search (or one
// scan BFS) and runs on one lane. Workers accumulate into private stats
// and row buffers (a product lane's deduplicated as rows arrive); at the
// operator barrier the buffers are concatenated and one sort-unique pass
// gives the leaf its rows in lexicographic order, so results and
// counters are thread-count-independent; num_threads == 1 runs
// everything on the calling thread. Every row, from leaf to sink, lives
// in a packed fixed-arity RowBuffer (core/row_set.h). Joins and
// semi-joins run serially on the calling thread, each over one flat
// hash index of its build side (ops.cc).
//
// Every operator appends one OperatorStats entry (rows in/out, frontier
// expansions, visited-table occupancy, worker lanes) to
// EvalStats::operators.

#ifndef ECRPQ_CORE_OPS_H_
#define ECRPQ_CORE_OPS_H_

#include <functional>
#include <utility>
#include <vector>

#include "core/eval_product.h"
#include "core/evaluator.h"
#include "core/row_set.h"

namespace ecrpq {

/// A materialized relation over node variables: column i holds bindings
/// of global node-variable `vars[i]`; rows are distinct and packed in one
/// buffer of arity vars.size().
struct BindingTable {
  explicit BindingTable(std::vector<int> table_vars = {})
      : vars(std::move(table_vars)), rows(vars.size()) {}

  std::vector<int> vars;
  RowBuffer rows;

  /// Column index of `var`, or -1 when absent.
  int ColumnOf(int var) const {
    for (size_t i = 0; i < vars.size(); ++i) {
      if (vars[i] == var) return static_cast<int>(i);
    }
    return -1;
  }
};

/// Distinct projection of `table` onto `vars` (each must be a column);
/// rows keep the order of their first occurrence.
BindingTable ProjectDistinct(const BindingTable& table,
                             const std::vector<int>& vars);

/// A synchronization component prepared for execution: its atoms, local
/// track order, participating relations, and variable roles.
struct ComponentSpec {
  std::vector<int> atom_indices;   // into ResolvedQuery::atoms
  std::vector<int> tracks;         // global path-var ids, local order
  std::vector<int> track_of_path;  // global path id -> local track or -1
  std::vector<int> relation_indices;
  std::vector<int> vars;        // global node-var ids appearing here
  std::vector<int> start_vars;  // vars in from-positions
  std::vector<int> end_vars;    // vars in to-positions
};

ComponentSpec BuildComponentSpec(const ResolvedQuery& rq,
                                 const std::vector<int>& atom_indices);

/// True when the component is a single path atom whose relations are all
/// unary — evaluable by the CRPQ-style intersected-NFA reachability scan
/// instead of the subset-tracking product search.
bool IsReachabilityScanComponent(const ResolvedQuery& rq,
                                 const ComponentSpec& comp);

/// One recorded product configuration (per-track nodes + interned relation
/// state-subset ids); the product graph of a component search, used for
/// Prop 5.2 path answers and the counting engine's flow encodings.
struct ProductConfig {
  uint32_t padmask = 0;
  std::vector<NodeId> nodes;    // per local track
  std::vector<int> subset_ids;  // per component relation

  bool operator==(const ProductConfig& other) const = default;
};

struct ProductGraphSink {
  // state ids parallel to discovery order of configs
  std::vector<ProductConfig> configs;
  std::vector<std::vector<std::pair<std::vector<Symbol>, int>>> arcs;
  std::vector<bool> initial;
  std::vector<bool> accepting;
};

/// Executes one component leaf (ReachabilityScan or ProductExpand,
/// dispatched by shape). `fixed` pins global node variables (-1 = free).
/// When `seeds` is non-null (sideways information passing) the leaf is
/// restricted to assignments compatible with at least one seed row:
/// ProductExpand runs once per seed row with the row overlaid on `fixed`;
/// ReachabilityScan BFSes only from seeded source nodes and filters ends.
/// Satisfying component assignments (parallel to comp.vars) are added to
/// `results` (arity comp.vars.size()), which is left sorted and distinct.
/// The product graph is recorded into `graph_sink` when non-null (graph
/// recording forces the ProductExpand path, serial execution, and the
/// forward direction). `direction` is the planner's
/// per-leaf choice (kAuto = forward); EvalOptions::direction overrides
/// it, and infeasible requests degrade (bidirectional needs every
/// endpoint bound by fixed/seeds/constants, else it falls back to
/// backward when the end side is bound, else forward). `num_threads` is
/// the leaf's worker-lane budget (1 = serial execution on the calling
/// thread; callers resolve EvalOptions::num_threads via
/// ResolveNumThreads first); the leaf uses at most one lane per
/// independent search, and records the lanes it used as
/// OperatorStats::threads. Appends one OperatorStats entry with the
/// given planner estimate (`est_rows` < 0 when unplanned), the executed
/// direction, and — for bidirectional leaves — the meet-probe count.
Status ExecuteComponentOp(const ResolvedQuery& rq, const ComponentSpec& comp,
                          const EvalOptions& options,
                          const std::vector<NodeId>& fixed,
                          const BindingTable* seeds, double est_rows,
                          SearchDirection direction, int num_threads,
                          EvalStats& stats, RowBuffer* results,
                          ProductGraphSink* graph_sink);

/// Natural hash join on shared variables, projected: the output is the
/// distinct projection of the joined rows onto `project` (vars of either
/// input), built without materializing the joined rows (the
/// early-projection merge of the plan executor; its final join is
/// StreamJoinOp). The right side is indexed, the left side probes it,
/// and rows come in first-occurrence order of the joined rows: left-row
/// order, each row's matches by ascending right row id.
/// EvalStats::join_tuples counts every joined row. Appends a HashJoin
/// OperatorStats entry (build_rows: right rows; probe_rows: left rows).
BindingTable HashJoinOp(const BindingTable& left, const BindingTable& right,
                        const std::vector<int>& project, EvalStats& stats);

/// The plan executor's final join: the natural join of `tables`,
/// streamed depth-first without materializing it. Each table after the
/// first gets a hash index on the columns it shares with the tables
/// before it (the same index HashJoinOp builds). Each table-0 row is
/// then extended through tables 1, 2, ... by probing those indexes, and
/// `emit` receives every joined tuple as a binding indexed by node
/// variable (`num_vars` entries, -1 where no table binds the variable).
/// Tuples come in table-0 row order, each table's matches by ascending
/// row id: the nested-loop join's order. With no tables the
/// join is the unit: one all-unbound binding. `emit` returns false to
/// stop the join; it also stops once `cancel` (optional) trips. Appends
/// one HashJoin entry (build_rows: rows indexed; probe_rows: index
/// lookups; rows_out: emitted tuples); EvalStats::join_tuples counts the
/// emitted tuples.
void StreamJoinOp(const std::vector<BindingTable>& tables, size_t num_vars,
                  EvalStats& stats, const CancellationToken* cancel,
                  const std::function<bool(const std::vector<NodeId>&)>& emit);

/// Keeps rows of `target` matched by some row of `filter` on their shared
/// variables (no-op without shared variables). Appends a SemiJoinFilter
/// entry when rows were actually removed. Returns true when `target`
/// shrank. `filter` is indexed as in HashJoinOp (build_rows: filter
/// rows; probe_rows: target rows); kept rows keep their order.
bool SemiJoinFilterOp(BindingTable* target, const BindingTable& filter,
                      EvalStats& stats);

}  // namespace ecrpq

#endif  // ECRPQ_CORE_OPS_H_
