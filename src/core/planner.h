// Cost-based conjunct planner: the layer between the static optimizer and
// the evaluation engines.
//
// The paper evaluates an ECRPQ as one monolithic product over all relation
// atoms (Thm 5.1), but its own complexity analysis locates tractability in
// *decomposition*: acyclic CRPQs join per-atom reachability relations
// (Thm 6.5), and synchronization components can be evaluated independently
// and joined on node variables (the Prop 6.2-style argument the engines
// already exploit structurally). What no layer did before this one exists
// is *choose an order*: which component to evaluate first, and which later
// components should be seeded by the bindings earlier ones produced
// (sideways information passing) instead of enumerating every node.
//
// PlanQuery reads GraphIndex statistics — per-label edge counts, distinct
// source/target counts, automaton sizes — to estimate each component's
// result cardinality, orders components cheapest-first, and marks
// components whose start variables are bound by earlier components for
// seeded execution. The result is a PhysicalPlan: a small operator DAG
// over the operators of core/ops.h (ReachabilityScan / ProductExpand
// leaves, SemiJoinFilter reductions, early Project steps, HashJoin
// between tables, LinearConstraintCheck for counting queries). A CRPQ's
// components are single atoms, so its plan is the all-scan plan of
// Thm 6.5.
//
// The plan fixes what runs and in which order; joins always run serially
// (core/ops.h).
//
// Planning is a pure function of (query, compiled relations, index
// statistics, options): it never touches the graph's edges, so a plan can
// be cached per query text and re-costed only when the index snapshot
// changes (api::Database does exactly this through PreparedQuery).

#ifndef ECRPQ_CORE_PLANNER_H_
#define ECRPQ_CORE_PLANNER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/eval_product.h"
#include "core/evaluator.h"
#include "graph/index.h"

namespace ecrpq {

enum class OpKind {
  kReachabilityScan,
  kProductExpand,
  kHashJoin,
  kSemiJoinFilter,
  kLinearConstraintCheck,
};

const char* OpKindName(OpKind kind);

/// One planned component leaf plus how it connects to the components
/// executed before it.
struct PlannedComponent {
  std::vector<int> atom_indices;  ///< path-atom indices of this component
  OpKind leaf = OpKind::kProductExpand;
  std::vector<int> vars;         ///< node vars this component binds
  std::vector<int> start_vars;   ///< vars in from-positions
  std::vector<int> end_vars;     ///< vars in to-positions
  std::vector<int> shared_vars;  ///< vars bound by earlier components
  /// Seed this component's execution from the accumulated bindings
  /// (sideways information passing) instead of full node enumeration.
  bool sideways = false;
  double est_rows = -1.0;  ///< cardinality estimate (-1: not estimated)
  double est_cost = -1.0;  ///< full-seeding work estimate
  /// Worker lanes the planner chose for this leaf (morsel-driven
  /// execution, core/parallel.h): the plan's resolved num_threads, or 1
  /// when the cost estimate says the leaf is too small to amortize lane
  /// startup, or when the leaf is a single search — its anchor side in
  /// its direction holds only constants and it takes no sideways seed
  /// (lanes split independent searches, never one search's levels).
  /// 0 = unplanned (executor resolves EvalOptions::num_threads).
  int threads = 0;
  /// True when `threads == 1` is a cost-based demotion (est_cost too
  /// small to amortize lanes) rather than a serial session default — the
  /// executor keeps demoted leaves serial even under a larger
  /// per-execution num_threads override.
  bool demoted_serial = false;
  /// Search direction the leaf should run (Explain: `direction=`).
  /// Forward is the classical evaluation; the planner picks backward
  /// when the end side is better anchored / cheaper to expand (distinct
  /// live source/target counts, per-label edge counts, and average
  /// in/out degree along the first live letter sets), and bidirectional
  /// when both sides are fully anchored (constants or sideways seeds).
  /// The executor re-checks feasibility at runtime and degrades when the
  /// seeding assumption fell through; EvalOptions::direction overrides.
  SearchDirection direction = SearchDirection::kForward;
  /// Backward mirror of est_cost (end-side enumeration × reversed-tape
  /// expansion work); -1 until estimated.
  double est_cost_bwd = -1.0;
};

/// One step of early projection (the Yannakakis step that keeps acyclic
/// CRPQs polynomial, Thm 6.5), replayed by the executor over the list of
/// leaf tables between the SemiJoinFilter fixpoint and the final join.
/// Table indices refer to that list as it stands when the step runs: a
/// merge replaces `left` by its result and erases `right`.
struct ProjectionStep {
  int left = -1;
  /// -1: drop the columns of `left` that are neither head variables nor
  /// in any other table. Otherwise `left` and `right` share a non-head
  /// variable found in no other table: replace them by their joined,
  /// deduplicated projection onto `keep` (HashJoinOp).
  int right = -1;
  std::vector<int> keep;  ///< the columns of the result, in order
};

struct PhysicalPlan {
  Engine engine = Engine::kProduct;
  /// Components in execution order (cheapest-first). Size 1 with every
  /// atom = monolithic evaluation.
  std::vector<PlannedComponent> components;
  /// Whether the conjunction was decomposed at all.
  bool decomposed = false;
  /// A LinearConstraintCheck operator gates emission (counting engine).
  bool linear_check = false;
  /// The parallelism EvalOptions::num_threads resolved to at plan time
  /// (ECRPQ_THREADS / hardware concurrency); per-leaf choices are in
  /// PlannedComponent::threads and rendered by Describe/Explain.
  int num_threads = 1;
  /// Early projection, in execution order. Depends only on the query
  /// head and the components' variables in plan order.
  std::vector<ProjectionStep> projections;

  /// Multi-line operator-tree rendering (Explain output).
  std::string Describe(const Query& query) const;
};

using PhysicalPlanPtr = std::shared_ptr<const PhysicalPlan>;

/// Estimates the number of distinct node-variable assignments satisfying
/// one synchronization component (the atoms listed in `atom_indices`),
/// from the index's label statistics and the compiled relation automata.
/// Monotone in per-label edge counts. Exposed for tests.
double EstimateComponentCardinality(const Query& query,
                                    const CompiledQuery& compiled,
                                    const std::vector<int>& atom_indices,
                                    const GraphIndex& index);

/// Builds the physical plan for `query`: resolves kAuto, decomposes into
/// leaves (one per synchronization component, or one monolithic leaf when
/// options.use_components is off), costs and orders them, marks
/// sideways-seeded components from `index`'s statistics, and plans the
/// early projection (PlanProjections). kProduct plans run on the plan
/// executor (EvaluateProduct, core/eval_product.h); the other engines'
/// plans only describe their leaves.
PhysicalPlan PlanQuery(const Query& query, const CompiledQuery& compiled,
                       const GraphIndex& index, const EvalOptions& options);

/// Plans the early projection steps (PhysicalPlan::projections) from the
/// components in their current order. PlanQuery calls it; call it again
/// after reordering plan->components.
void PlanProjections(const Query& query, PhysicalPlan* plan);

}  // namespace ecrpq

#endif  // ECRPQ_CORE_PLANNER_H_
