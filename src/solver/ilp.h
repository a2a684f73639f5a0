// Integer linear programming by branch & bound over the exact simplex.
//
// The ECRPQ extensions of Sections 6.3 and 8.2 reduce query evaluation to
// satisfiability of existential Presburger formulas; after guessing
// disjuncts those are integer programs. Variables carry finite bounds
// (completeness bounds come from the small-model lemmas cited in the paper,
// e.g. Lemma 8.6 / Papadimitriou); the solver is exact within those bounds.

#ifndef ECRPQ_SOLVER_ILP_H_
#define ECRPQ_SOLVER_ILP_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "solver/rational.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace ecrpq {

/// Comparison operator of a linear constraint.
enum class Cmp { kLe, kGe, kEq };

/// Σ coef_i · var_i  (cmp)  rhs.
struct LinearConstraint {
  std::vector<std::pair<int, int64_t>> terms;  // (variable index, coefficient)
  Cmp cmp = Cmp::kLe;
  int64_t rhs = 0;
};

/// An ILP feasibility/optimization problem over bounded integer variables.
class IlpProblem {
 public:
  /// Adds a variable with inclusive bounds [lower, upper]; returns its index.
  int AddVariable(int64_t lower, int64_t upper);

  void AddConstraint(LinearConstraint constraint);

  /// Convenience: single-term shortcuts.
  void AddLe(int var, int64_t bound);
  void AddGe(int var, int64_t bound);
  void AddEq(int var, int64_t value);

  int num_variables() const { return static_cast<int>(lower_.size()); }
  const std::vector<LinearConstraint>& constraints() const {
    return constraints_;
  }
  int64_t lower(int var) const { return lower_[var]; }
  int64_t upper(int var) const { return upper_[var]; }

 private:
  std::vector<int64_t> lower_;
  std::vector<int64_t> upper_;
  std::vector<LinearConstraint> constraints_;
};

struct IlpOptions {
  /// Branch & bound node budget; exceeding it returns ResourceExhausted.
  int64_t max_nodes = 200000;
};

struct IlpSolution {
  bool feasible = false;
  std::vector<int64_t> values;
};

/// Decides feasibility; returns a witness assignment when feasible.
/// Branch & bound polls `cancellation` (when non-null) before every node
/// and returns Status::Cancelled once it trips.
Result<IlpSolution> SolveIlp(const IlpProblem& problem,
                             const IlpOptions& options = {},
                             const CancellationToken* cancellation = nullptr);

/// Minimizes `objective`·x over the feasible set (empty objective = pure
/// feasibility). Returns infeasible solution when the program is empty.
/// Polls `cancellation` like SolveIlp.
Result<IlpSolution> MinimizeIlp(
    const IlpProblem& problem, const std::vector<int64_t>& objective,
    const IlpOptions& options = {},
    const CancellationToken* cancellation = nullptr);

}  // namespace ecrpq

#endif  // ECRPQ_SOLVER_ILP_H_
