// Evaluation statistics, exposed for benchmarks and ablations.

#ifndef ECRPQ_CORE_STATS_H_
#define ECRPQ_CORE_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ecrpq {

/// Counters of one executed physical operator (see core/ops.h). The
/// operator layer appends one entry per operator invocation, in execution
/// order, so a run's EvalStats reads like a profile of its plan:
///
///   ReachabilityScan(c0)  rows_out=12  frontier=340  visited=97
///   ProductExpand(c1)     rows_in=5 rows_out=3 frontier=88 visited=41
///   HashJoin              rows_in=15 rows_out=4
///
/// rows_in is the number of tuples the operator consumed (seed rows for
/// sideways-seeded leaves, probe+build rows for joins); rows_out the
/// number it produced. frontier_expansions counts product arcs generated;
/// visited_configs the occupancy of the visited/intern table.
struct OperatorStats {
  std::string op;      ///< operator kind ("ProductExpand", "HashJoin", ...)
  std::string detail;  ///< operand summary (component atoms, join vars)
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t frontier_expansions = 0;
  uint64_t visited_configs = 0;
  /// Meet probes of a bidirectional leaf: candidate configurations of the
  /// opposite half-search tested for a (node, state)-compatible meet.
  /// Zero for forward/backward leaves and non-leaf operators.
  uint64_t meet_checks = 0;
  /// Join-pipeline row counters: rows hashed into the build side's index
  /// and rows probed against it. Joins run serially, so they are
  /// identical at any thread count. Zero for operators that neither
  /// build nor probe (leaves).
  uint64_t build_rows = 0;
  uint64_t probe_rows = 0;
  double est_rows = -1.0;  ///< planner estimate, -1 when unplanned
  int threads = 1;  ///< worker lanes that executed this operator
  /// Search direction the leaf actually ran ("fwd", "bwd", "bidir");
  /// empty for operators without a direction (joins, filters).
  std::string direction;

  std::string Describe() const;
};

struct EvalStats {
  std::string engine;               ///< which engine produced the result
  uint64_t configs_explored = 0;    ///< product configurations visited
  uint64_t arcs_explored = 0;       ///< product transitions generated
  uint64_t start_assignments = 0;   ///< anchored start tuples enumerated
  uint64_t join_tuples = 0;         ///< intermediate join results
  uint64_t ilp_variables = 0;       ///< ILP size (counting engines)
  uint64_t ilp_constraints = 0;

  /// Per-operator profile in execution order, populated by the operator
  /// layer (core/ops.h). Empty for engines that bypass it (brute force).
  std::vector<OperatorStats> operators;
};

}  // namespace ecrpq

#endif  // ECRPQ_CORE_STATS_H_
