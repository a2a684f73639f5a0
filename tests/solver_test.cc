// Exact rational arithmetic, simplex, and branch & bound ILP.

#include <gtest/gtest.h>

#include "solver/ilp.h"
#include "solver/rational.h"
#include "solver/simplex.h"

namespace ecrpq {
namespace {

TEST(Rational, Arithmetic) {
  Rational half(1, 2);
  Rational third(1, 3);
  EXPECT_EQ(half + third, Rational(5, 6));
  EXPECT_EQ(half - third, Rational(1, 6));
  EXPECT_EQ(half * third, Rational(1, 6));
  EXPECT_EQ(half / third, Rational(3, 2));
  EXPECT_EQ(Rational(2, 4), half);
  EXPECT_EQ(Rational(-1, -2), half);
  EXPECT_EQ(Rational(1, -2), -half);
  EXPECT_TRUE(third < half);
  EXPECT_EQ((-half).Floor(), -1);
  EXPECT_EQ((-half).Ceil(), 0);
  EXPECT_EQ(Rational(7, 2).Floor(), 3);
  EXPECT_EQ(Rational(7, 2).Ceil(), 4);
  EXPECT_TRUE(Rational(4, 2).IsInteger());
}

TEST(Simplex, SimpleMaximization) {
  // max x + y s.t. x + 2y <= 4, 3x + y <= 6  => optimum at (8/5, 6/5).
  std::vector<std::vector<double>> a = {{1, 2}, {3, 1}};
  std::vector<double> b = {4, 6};
  std::vector<double> c = {1, 1};
  LpResult result = SolveLpMax(a, b, c);
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_NEAR(result.objective, 14.0 / 5, 1e-9);
  EXPECT_NEAR(result.values[0], 8.0 / 5, 1e-9);
  EXPECT_NEAR(result.values[1], 6.0 / 5, 1e-9);
}

TEST(Simplex, Infeasible) {
  std::vector<std::vector<double>> a = {{1}};
  std::vector<double> b = {-1};
  EXPECT_FALSE(LpFeasible(a, b));
  LpResult result = SolveLpMax(a, b, {1.0});
  EXPECT_EQ(result.status, LpStatus::kInfeasible);
}

TEST(Simplex, Unbounded) {
  std::vector<std::vector<double>> a = {{1, -1}};
  std::vector<double> b = {0};
  LpResult result = SolveLpMax(a, b, {1.0, 0.0});
  EXPECT_EQ(result.status, LpStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsNeedsPhase1) {
  // x >= 2 encoded as -x <= -2; feasible, max -x is -2.
  std::vector<std::vector<double>> a = {{-1}};
  std::vector<double> b = {-2};
  LpResult result = SolveLpMax(a, b, {-1.0});
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_NEAR(result.objective, -2.0, 1e-9);
  EXPECT_NEAR(result.values[0], 2.0, 1e-9);
}

TEST(Ilp, FeasibilityWitness) {
  IlpProblem problem;
  int x = problem.AddVariable(0, 10);
  int y = problem.AddVariable(0, 10);
  problem.AddConstraint({{{x, 3}, {y, 5}}, Cmp::kEq, 14});
  auto solution = SolveIlp(problem);
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  ASSERT_TRUE(solution.value().feasible);
  EXPECT_EQ(3 * solution.value().values[x] + 5 * solution.value().values[y],
            14);
}

TEST(Ilp, InfeasibleParity) {
  // 2x = 7 has no integer solution though the LP relaxation is feasible.
  IlpProblem problem;
  int x = problem.AddVariable(0, 100);
  problem.AddConstraint({{{x, 2}}, Cmp::kEq, 7});
  auto solution = SolveIlp(problem);
  ASSERT_TRUE(solution.ok());
  EXPECT_FALSE(solution.value().feasible);
}

TEST(Ilp, ChineseRemainderStyle) {
  // x ≡ 2 mod 3, x ≡ 3 mod 5 => minimal x is 8.
  IlpProblem problem;
  int x = problem.AddVariable(0, 1000);
  int k3 = problem.AddVariable(0, 1000);
  int k5 = problem.AddVariable(0, 1000);
  problem.AddConstraint({{{x, 1}, {k3, -3}}, Cmp::kEq, 2});
  problem.AddConstraint({{{x, 1}, {k5, -5}}, Cmp::kEq, 3});
  auto solution = MinimizeIlp(problem, {1, 0, 0});
  ASSERT_TRUE(solution.ok());
  ASSERT_TRUE(solution.value().feasible);
  EXPECT_EQ(solution.value().values[x], 8);
}

TEST(Ilp, MinimizeObjective) {
  IlpProblem problem;
  int x = problem.AddVariable(0, 100);
  int y = problem.AddVariable(0, 100);
  problem.AddConstraint({{{x, 1}, {y, 1}}, Cmp::kGe, 7});
  problem.AddConstraint({{{x, 1}, {y, -1}}, Cmp::kLe, 1});
  problem.AddConstraint({{{y, 1}, {x, -1}}, Cmp::kLe, 1});
  auto solution = MinimizeIlp(problem, {1, 1});
  ASSERT_TRUE(solution.ok());
  ASSERT_TRUE(solution.value().feasible);
  EXPECT_EQ(solution.value().values[x] + solution.value().values[y], 7);
}

TEST(Ilp, PropagationPrunesWithoutLp) {
  IlpProblem problem;
  int x = problem.AddVariable(0, 4);
  int y = problem.AddVariable(0, 4);
  problem.AddConstraint({{{x, 1}, {y, 1}}, Cmp::kGe, 10});
  auto solution = SolveIlp(problem);
  ASSERT_TRUE(solution.ok());
  EXPECT_FALSE(solution.value().feasible);
}

TEST(Ilp, NodeBudgetExhaustion) {
  IlpProblem problem;
  std::vector<int> vars;
  for (int i = 0; i < 12; ++i) vars.push_back(problem.AddVariable(0, 1));
  LinearConstraint c;
  for (int i = 0; i < 12; ++i) c.terms.emplace_back(vars[i], 2 * i + 3);
  c.cmp = Cmp::kEq;
  c.rhs = 1;  // unsatisfiable (all coefficients >= 3)
  problem.AddConstraint(std::move(c));
  IlpOptions options;
  options.max_nodes = 1;
  auto solution = SolveIlp(problem, options);
  if (!solution.ok()) {
    EXPECT_EQ(solution.status().code(), StatusCode::kResourceExhausted);
  } else {
    EXPECT_FALSE(solution.value().feasible);
  }
}

TEST(Ilp, CancelledTokenStopsBranchAndBound) {
  IlpProblem problem;
  int x = problem.AddVariable(0, 10);
  problem.AddGe(x, 3);
  CancellationToken token;
  token.Cancel();
  auto solution = SolveIlp(problem, IlpOptions{}, &token);
  ASSERT_FALSE(solution.ok());
  EXPECT_EQ(solution.status().code(), StatusCode::kCancelled);
  // An untripped token changes nothing.
  CancellationToken idle;
  auto solved = SolveIlp(problem, IlpOptions{}, &idle);
  ASSERT_TRUE(solved.ok());
  EXPECT_TRUE(solved.value().feasible);
}

TEST(Ilp, NegativeCoefficientTightening) {
  // x - 2y >= 0, y >= 3  =>  min x is 6.
  IlpProblem problem;
  int x = problem.AddVariable(0, 100);
  int y = problem.AddVariable(0, 100);
  problem.AddConstraint({{{x, 1}, {y, -2}}, Cmp::kGe, 0});
  problem.AddGe(y, 3);
  auto solution = MinimizeIlp(problem, {1, 0});
  ASSERT_TRUE(solution.ok());
  ASSERT_TRUE(solution.value().feasible);
  EXPECT_EQ(solution.value().values[x], 6);
}

}  // namespace
}  // namespace ecrpq
