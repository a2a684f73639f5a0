// Linear constraints on occurrence counts and path lengths (Theorem 8.5).

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>

#include "core/eval_bruteforce.h"
#include "core/eval_counting.h"
#include "core/evaluator.h"
#include "graph/generators.h"
#include "query/parser.h"

namespace ecrpq {
namespace {

TEST(Counting, AirlineRatioExample) {
  // The Section 8.2 example: a route where Singapore Airlines (a) covers at
  // least 80% of the journey: occ(a) - 4*occ(b) >= 0.
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  GraphDb g(alphabet);
  NodeId london = g.AddNode("London");
  NodeId mid = g.AddNode("mid");
  NodeId sydney = g.AddNode("Sydney");
  // Route 1: 4 a-legs then 1 b-leg (80% a: satisfies).
  NodeId at = london;
  for (int i = 0; i < 3; ++i) {
    NodeId next = g.AddNode();
    g.AddEdge(at, Symbol{0}, next);
    at = next;
  }
  g.AddEdge(at, Symbol{0}, mid);
  g.AddEdge(mid, Symbol{1}, sydney);

  auto query = ParseQuery(
      R"(Ans() <- ("London", p, "Sydney"), occ(p, a) - 4*occ(p, b) >= 0)",
      g.alphabet());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto result = EvaluateCounting(g, query.value(), EvalOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().AsBool());

  // Stricter ratio (>= 90%): occ(a) - 9*occ(b) >= 0 fails on this route.
  auto strict = ParseQuery(
      R"(Ans() <- ("London", p, "Sydney"), occ(p, a) - 9*occ(p, b) >= 0)",
      g.alphabet());
  ASSERT_TRUE(strict.ok());
  auto strict_result = EvaluateCounting(g, strict.value(), EvalOptions{});
  ASSERT_TRUE(strict_result.ok()) << strict_result.status().ToString();
  EXPECT_FALSE(strict_result.value().AsBool());
}

TEST(Counting, LengthConstraints) {
  auto alphabet = Alphabet::FromLabels({"a"});
  GraphDb g = CycleGraph(alphabet, 3, "a");
  // A loop of length >= 5 exists (6 = two rounds); length = 4 does not.
  auto ge = ParseQuery(R"(Ans() <- ("c0", p, "c0"), len(p) >= 5)",
                       g.alphabet());
  ASSERT_TRUE(ge.ok());
  auto r1 = EvaluateCounting(g, ge.value(), EvalOptions{});
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_TRUE(r1.value().AsBool());

  auto eq4 = ParseQuery(R"(Ans() <- ("c0", p, "c0"), len(p) = 4)",
                        g.alphabet());
  ASSERT_TRUE(eq4.ok());
  auto r2 = EvaluateCounting(g, eq4.value(), EvalOptions{});
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2.value().AsBool());
}

TEST(Counting, CrossPathConstraint) {
  // |p| = 2|q|, p in the 3-cycle, q in the 2-cycle of a disjoint graph.
  auto alphabet = Alphabet::FromLabels({"a"});
  GraphDb g(alphabet);
  for (int i = 0; i < 3; ++i) g.AddNode("x" + std::to_string(i));
  for (int i = 0; i < 2; ++i) g.AddNode("y" + std::to_string(i));
  for (int i = 0; i < 3; ++i) {
    g.AddEdge(*g.FindNode("x" + std::to_string(i)), Symbol{0},
              *g.FindNode("x" + std::to_string((i + 1) % 3)));
  }
  for (int i = 0; i < 2; ++i) {
    g.AddEdge(*g.FindNode("y" + std::to_string(i)), Symbol{0},
              *g.FindNode("y" + std::to_string((i + 1) % 2)));
  }
  // Loop lengths: p in 3N, q in 2N; |p| = 2|q| and |p| >= 1: p = 6, q = 3?
  // q must be a y-loop: 2N. 2|q| ∈ 4N; need 3N ∩ 4N ∋ |p|: |p| = 12,
  // |q| = 6 works.
  auto query = ParseQuery(
      R"(Ans() <- ("x0", p, "x0"), ("y0", q, "y0"), )"
      R"(len(p) - 2*len(q) = 0, len(p) >= 1)",
      g.alphabet());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto result = EvaluateCounting(g, query.value(), EvalOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().AsBool());

  // |p| = 2|q|, |q| odd: |p| = 2·odd ≡ 2 mod 4, but p ∈ 3N ∩ (2 mod 4)
  // = {6, 18, ...}: 6 = 2*3, q = 3 odd — satisfiable! Tighten: |q| = 1:
  // impossible (q loops have even length).
  auto no = ParseQuery(
      R"(Ans() <- ("y0", q, "y0"), len(q) = 1)", g.alphabet());
  ASSERT_TRUE(no.ok());
  auto none = EvaluateCounting(g, no.value(), EvalOptions{});
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none.value().AsBool());
}

TEST(Counting, WithRegularRelationsToo) {
  // ECRPQ + counting: equal paths with at least two a's.
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  GraphDb g(alphabet);
  NodeId u = g.AddNode("u");
  g.AddEdge(u, Symbol{0}, u);
  g.AddEdge(u, Symbol{1}, u);
  auto query = ParseQuery(
      R"(Ans() <- ("u", p, "u"), ("u", q, "u"), eq(p, q), )"
      R"(occ(p, a) >= 2, len(q) <= 3)",
      g.alphabet());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto result = EvaluateCounting(g, query.value(), EvalOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().AsBool());
}

TEST(Counting, HeadVariablesEnumerated) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  GraphDb g = WordGraph(alphabet, {0, 0, 1});  // w0 -a- w1 -a- w2 -b- w3
  // Nodes reachable from somewhere with exactly two a's and no b.
  auto query = ParseQuery(
      "Ans(y) <- (x, p, y), occ(p, a) = 2, occ(p, b) = 0", g.alphabet());
  ASSERT_TRUE(query.ok());
  auto result = EvaluateCounting(g, query.value(), EvalOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().tuples().size(), 1u);
  EXPECT_EQ(result.value().tuples()[0][0], *g.FindNode("w2"));
}

// Property: counting engine agrees with brute force on small DAGs.
class CountingVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(CountingVsBruteForce, Agrees) {
  Rng rng(GetParam() + 31);
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  GraphDb g = LayeredGraph(alphabet, 4, 2, 2, &rng);
  for (const char* text :
       {"Ans(x) <- (x, p, y), occ(p, a) - occ(p, b) >= 1",
        "Ans(x, y) <- (x, p, y), len(p) = 2",
        "Ans() <- (x, p, y), (y, q, z), len(p) - len(q) = 1"}) {
    SCOPED_TRACE(text);
    auto query = ParseQuery(text, g.alphabet());
    ASSERT_TRUE(query.ok());
    EvalOptions options;
    options.bruteforce_max_len = 4;
    auto brute = EvaluateBruteForce(g, query.value(), options);
    ASSERT_TRUE(brute.ok());
    auto counting = EvaluateCounting(g, query.value(), options);
    ASSERT_TRUE(counting.ok()) << counting.status().ToString();
    EXPECT_EQ(brute.value().tuples(), counting.value().tuples());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CountingVsBruteForce, ::testing::Range(0, 4));

// A counting query whose one σ needs an ILP branch & bound that runs for
// over a minute before exhausting its node budget: city1 -> city1 on the
// seed-12 six-city flight network. Cancelling from another thread must
// stop it promptly with a typed error, not after the budget runs out.
TEST(Counting, CancelStopsSlowIlpPromptly) {
  Rng rng(12);
  GraphDb g = FlightNetwork(6, 12, 3, {"sq", "other"}, &rng);
  auto query = ParseQuery(
      R"(Ans() <- ("city1", p, "city1"), )"
      R"(occ(p, sq) - 4*occ(p, 'other') >= 0, len(p) >= 1)",
      g.alphabet());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EvalOptions options;
  options.cancellation = std::make_shared<CancellationToken>();
  auto run = std::async(std::launch::async, [&] {
    return EvaluateCounting(g, query.value(), options);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const auto cancelled_at = std::chrono::steady_clock::now();
  options.cancellation->Cancel();
  auto result = run.get();
  const auto latency = std::chrono::steady_clock::now() - cancelled_at;
  ASSERT_FALSE(result.ok()) << "the query finished within 200 ms";
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();
  // One branch & bound node is a small LP: milliseconds. The bound is
  // generous for sanitizer builds.
  EXPECT_LT(latency, std::chrono::seconds(5));
}

TEST(Counting, AutoDispatch) {
  auto alphabet = Alphabet::FromLabels({"a"});
  GraphDb g = CycleGraph(alphabet, 2, "a");
  auto query = ParseQuery(R"(Ans() <- ("c0", p, "c1"), len(p) >= 3)",
                          g.alphabet());
  ASSERT_TRUE(query.ok());
  Evaluator evaluator(&g);
  auto result = evaluator.Evaluate(query.value());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().stats().engine, "counting");
  EXPECT_TRUE(result.value().AsBool());  // length 3 = c0->c1 + full loop
}

}  // namespace
}  // namespace ecrpq
