#include "solver/ilp.h"

#include <algorithm>
#include <cmath>

#include "solver/simplex.h"

namespace ecrpq {

int IlpProblem::AddVariable(int64_t lower, int64_t upper) {
  ECRPQ_DCHECK(lower <= upper);
  lower_.push_back(lower);
  upper_.push_back(upper);
  return static_cast<int>(lower_.size() - 1);
}

void IlpProblem::AddConstraint(LinearConstraint constraint) {
  constraints_.push_back(std::move(constraint));
}

void IlpProblem::AddLe(int var, int64_t bound) {
  AddConstraint({{{var, 1}}, Cmp::kLe, bound});
}
void IlpProblem::AddGe(int var, int64_t bound) {
  AddConstraint({{{var, 1}}, Cmp::kGe, bound});
}
void IlpProblem::AddEq(int var, int64_t value) {
  AddConstraint({{{var, 1}}, Cmp::kEq, value});
}

namespace {

// Search node: per-variable bounds, refined by branching and propagation.
struct Node {
  std::vector<int64_t> lo;
  std::vector<int64_t> hi;
};

// Integer bound propagation to a fixpoint. Returns false on conflict.
// Exact (__int128 intermediates).
bool Propagate(const IlpProblem& problem, Node* node) {
  bool changed = true;
  int rounds = 0;
  while (changed && rounds < 64) {
    changed = false;
    ++rounds;
    for (const LinearConstraint& c : problem.constraints()) {
      for (int pass = 0; pass < 2; ++pass) {
        bool le_pass = (pass == 0);
        if (le_pass && c.cmp == Cmp::kGe) continue;
        if (!le_pass && c.cmp == Cmp::kLe) continue;
        // Canonical form: sum(coef * x) <= rhs  (flip for >=).
        int64_t rhs = le_pass ? c.rhs : -c.rhs;
        __int128 min_lhs = 0;
        for (const auto& [var, coef0] : c.terms) {
          int64_t coef = le_pass ? coef0 : -coef0;
          min_lhs += static_cast<__int128>(coef) *
                     (coef >= 0 ? node->lo[var] : node->hi[var]);
        }
        if (min_lhs > rhs) return false;  // conflict
        for (const auto& [var, coef0] : c.terms) {
          int64_t coef = le_pass ? coef0 : -coef0;
          if (coef == 0) continue;
          __int128 others =
              min_lhs - static_cast<__int128>(coef) *
                            (coef >= 0 ? node->lo[var] : node->hi[var]);
          __int128 budget = static_cast<__int128>(rhs) - others;
          if (coef > 0) {
            __int128 limit = budget >= 0 ? budget / coef
                                         : -((-budget + coef - 1) / coef);
            if (limit < node->hi[var]) {
              if (limit < node->lo[var]) return false;
              node->hi[var] = static_cast<int64_t>(limit);
              changed = true;
            }
          } else {
            __int128 pos = -coef;
            __int128 limit = budget >= 0 ? -(budget / pos)
                                         : ((-budget + pos - 1) / pos);
            if (limit > node->lo[var]) {
              if (limit > node->hi[var]) return false;
              node->lo[var] = static_cast<int64_t>(limit);
              changed = true;
            }
          }
        }
      }
    }
  }
  return true;
}

// LP relaxation in "A x' <= b, x' >= 0" form with x' = x - lo, solved in
// floating point. Integer candidates are verified exactly by the caller.
struct Relaxation {
  bool feasible = false;
  std::optional<int> branch_var;
  std::vector<double> values;  // in original variable space
};

Relaxation SolveRelaxation(const IlpProblem& problem, const Node& node,
                           const std::vector<int64_t>* objective) {
  const int n = problem.num_variables();
  std::vector<std::vector<double>> a;
  std::vector<double> b;
  for (int v = 0; v < n; ++v) {
    std::vector<double> row(n, 0.0);
    row[v] = 1.0;
    a.push_back(std::move(row));
    b.push_back(static_cast<double>(node.hi[v] - node.lo[v]));
  }
  for (const LinearConstraint& c : problem.constraints()) {
    __int128 shift = 0;
    std::vector<double> row(n, 0.0);
    for (const auto& [var, coef] : c.terms) {
      row[var] += static_cast<double>(coef);
      shift += static_cast<__int128>(coef) * node.lo[var];
    }
    double rhs = static_cast<double>(c.rhs) -
                 static_cast<double>(static_cast<int64_t>(shift));
    if (c.cmp == Cmp::kLe || c.cmp == Cmp::kEq) {
      a.push_back(row);
      b.push_back(rhs);
    }
    if (c.cmp == Cmp::kGe || c.cmp == Cmp::kEq) {
      std::vector<double> neg(n);
      for (int v = 0; v < n; ++v) neg[v] = -row[v];
      a.push_back(std::move(neg));
      b.push_back(-rhs);
    }
  }
  std::vector<double> c_vec(n, 0.0);
  if (objective != nullptr) {
    for (int v = 0; v < n; ++v) {
      c_vec[v] = -static_cast<double>((*objective)[v]);
    }
  } else {
    // Feasibility mode: steer the LP toward small values — vertices of
    // flow-like polytopes at minimal Σx are usually integral, so the first
    // relaxation already yields the (exactly verified) witness.
    for (int v = 0; v < n; ++v) c_vec[v] = -1.0;
  }
  LpResult lp = SolveLpMax(a, b, c_vec);
  Relaxation out;
  if (lp.status == LpStatus::kInfeasible) return out;
  out.feasible = true;
  out.values.resize(n);
  double worst_frac = 1e-6;
  for (int v = 0; v < n; ++v) {
    out.values[v] = lp.values[v] + static_cast<double>(node.lo[v]);
    double frac = std::fabs(out.values[v] - std::round(out.values[v]));
    if (frac > worst_frac) {
      worst_frac = frac;
      out.branch_var = v;
    }
  }
  return out;
}

// Exact feasibility check of a full assignment.
bool SatisfiesAll(const IlpProblem& problem,
                  const std::vector<int64_t>& values) {
  for (const LinearConstraint& c : problem.constraints()) {
    __int128 lhs = 0;
    for (const auto& [var, coef] : c.terms) {
      lhs += static_cast<__int128>(coef) * values[var];
    }
    switch (c.cmp) {
      case Cmp::kLe:
        if (lhs > c.rhs) return false;
        break;
      case Cmp::kGe:
        if (lhs < c.rhs) return false;
        break;
      case Cmp::kEq:
        if (lhs != c.rhs) return false;
        break;
    }
  }
  return true;
}

}  // namespace

Result<IlpSolution> MinimizeIlp(const IlpProblem& problem,
                                const std::vector<int64_t>& objective,
                                const IlpOptions& options,
                                const CancellationToken* cancellation) {
  const int n = problem.num_variables();
  const std::vector<int64_t>* obj = objective.empty() ? nullptr : &objective;
  ECRPQ_DCHECK(objective.empty() ||
               static_cast<int>(objective.size()) == n);

  Node root;
  root.lo.resize(n);
  root.hi.resize(n);
  for (int v = 0; v < n; ++v) {
    root.lo[v] = problem.lower(v);
    root.hi[v] = problem.upper(v);
  }

  IlpSolution best;
  __int128 best_obj = 0;
  std::vector<Node> stack = {std::move(root)};
  int64_t nodes = 0;
  while (!stack.empty()) {
    if (cancellation != nullptr && cancellation->cancelled()) {
      return Status::Cancelled("ILP branch & bound cancelled");
    }
    if (++nodes > options.max_nodes) {
      return Status::ResourceExhausted(
          "ILP branch & bound exceeded node budget (" +
          std::to_string(options.max_nodes) + ")");
    }
    Node node = std::move(stack.back());
    stack.pop_back();
    if (!Propagate(problem, &node)) continue;
    Relaxation relax = SolveRelaxation(problem, node, obj);
    if (!relax.feasible) continue;
    if (obj != nullptr && best.feasible) {
      double lp_obj = 0;
      for (int v = 0; v < n; ++v) {
        lp_obj += static_cast<double>((*obj)[v]) * relax.values[v];
      }
      // Integral objective: cannot strictly beat the incumbent.
      if (lp_obj >= static_cast<double>(best_obj) - 1e-6) continue;
    }
    if (!relax.branch_var.has_value()) {
      // LP solution is (numerically) integral: round, clamp, verify
      // exactly.
      std::vector<int64_t> values(n);
      for (int v = 0; v < n; ++v) {
        int64_t rounded =
            static_cast<int64_t>(std::llround(relax.values[v]));
        values[v] = std::clamp(rounded, node.lo[v], node.hi[v]);
      }
      if (SatisfiesAll(problem, values)) {
        if (obj == nullptr) {
          return IlpSolution{true, std::move(values)};
        }
        __int128 val = 0;
        for (int v = 0; v < n; ++v) {
          val += static_cast<__int128>((*obj)[v]) * values[v];
        }
        if (!best.feasible || val < best_obj) {
          best.feasible = true;
          best.values = std::move(values);
          best_obj = val;
        }
        continue;
      }
      // Numerically integral but exactly infeasible: branch on some
      // unfixed variable; a fully fixed node is exactly decided above.
      int split_var = -1;
      for (int v = 0; v < n; ++v) {
        if (node.lo[v] < node.hi[v]) {
          split_var = v;
          break;
        }
      }
      if (split_var < 0) continue;  // fully fixed and infeasible
      int64_t mid = node.lo[split_var] +
                    (node.hi[split_var] - node.lo[split_var]) / 2;
      Node left = node;
      left.hi[split_var] = mid;
      Node right = std::move(node);
      right.lo[split_var] = mid + 1;
      stack.push_back(std::move(right));
      stack.push_back(std::move(left));
      continue;
    }
    int bv = *relax.branch_var;
    int64_t split = static_cast<int64_t>(std::floor(relax.values[bv]));
    split = std::clamp(split, node.lo[bv], node.hi[bv] - 1);
    Node left = node;
    left.hi[bv] = split;
    Node right = std::move(node);
    right.lo[bv] = split + 1;
    // LIFO: push the upward branch first so small values (the small-model
    // witnesses) are explored first.
    stack.push_back(std::move(right));
    stack.push_back(std::move(left));
  }
  return best;
}

Result<IlpSolution> SolveIlp(const IlpProblem& problem,
                             const IlpOptions& options,
                             const CancellationToken* cancellation) {
  return MinimizeIlp(problem, {}, options, cancellation);
}

}  // namespace ecrpq
