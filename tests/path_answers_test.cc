// Prop 5.2 answer automata: representing (possibly infinite) path outputs.

#include <gtest/gtest.h>

#include "core/eval_product.h"
#include "core/evaluator.h"
#include "graph/generators.h"
#include "query/parser.h"

namespace ecrpq {
namespace {

QueryResult Eval(const GraphDb& g, std::string_view text) {
  auto query = ParseQuery(text, g.alphabet());
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  Evaluator evaluator(&g);
  auto result = evaluator.Evaluate(query.value());
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(PathAnswers, FinitePathOutput) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  GraphDb g = WordGraph(alphabet, {0, 1});  // w0 -a-> w1 -b-> w2
  QueryResult r = Eval(g, "Ans(x, y, p) <- (x, p, y), ab(p)");
  ASSERT_EQ(r.tuples().size(), 1u);
  ASSERT_TRUE(r.has_path_answers());
  const PathAnswerSet& answers = r.path_answers(0);
  EXPECT_FALSE(answers.IsEmpty());
  EXPECT_FALSE(answers.IsInfinite());
  EXPECT_EQ(answers.CountTuples(10), 1u);
  auto tuples = answers.Enumerate(10, 10);
  ASSERT_EQ(tuples.size(), 1u);
  ASSERT_EQ(tuples[0].size(), 1u);
  EXPECT_EQ(tuples[0][0].length(), 2);
  EXPECT_TRUE(answers.Contains(tuples[0]));
}

TEST(PathAnswers, InfinitePathOutputOnCycle) {
  auto alphabet = Alphabet::FromLabels({"a"});
  GraphDb g = CycleGraph(alphabet, 2, "a");
  QueryResult r = Eval(g, "Ans(x, p) <- (x, p, x), a+(p)");
  ASSERT_EQ(r.tuples().size(), 2u);
  for (size_t i = 0; i < r.tuples().size(); ++i) {
    const PathAnswerSet& answers = r.path_answers(i);
    EXPECT_FALSE(answers.IsEmpty());
    EXPECT_TRUE(answers.IsInfinite());
    // Loops of length 2, 4, 6, ... from each node.
    EXPECT_EQ(answers.CountTuples(6), 3u);
    auto tuples = answers.Enumerate(3, 6);
    ASSERT_EQ(tuples.size(), 3u);
    EXPECT_EQ(tuples[0][0].length(), 2);
  }
}

TEST(PathAnswers, TupleOutputsAreSynchronized) {
  // The alignment-style query: p and q must have equal labels; outputs are
  // pairs of paths.
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  GraphDb g(alphabet);
  NodeId u1 = g.AddNode("u1");
  NodeId u2 = g.AddNode("u2");
  NodeId v1 = g.AddNode("v1");
  NodeId v2 = g.AddNode("v2");
  g.AddEdge(u1, Symbol{0}, u2);  // a
  g.AddEdge(v1, Symbol{0}, v2);  // a
  g.AddEdge(v1, Symbol{1}, v2);  // b
  QueryResult r = Eval(
      g, R"(Ans(p, q) <- ("u1", p, x), ("v1", q, y), eq(p, q), a(p))");
  // Boolean-ish head with two path variables; one node tuple (empty).
  ASSERT_EQ(r.tuples().size(), 1u);
  const PathAnswerSet& answers = r.path_answers(0);
  EXPECT_EQ(answers.CountTuples(5), 1u);
  auto tuples = answers.Enumerate(5, 5);
  ASSERT_EQ(tuples.size(), 1u);
  ASSERT_EQ(tuples[0].size(), 2u);
  EXPECT_EQ(tuples[0][0].Label(), tuples[0][1].Label());
  EXPECT_EQ(tuples[0][0].start(), u1);
  EXPECT_EQ(tuples[0][1].start(), v1);
}

TEST(PathAnswers, ProjectionDropsAuxiliaryTracks) {
  // Head keeps p only; q ranges over an infinite set but the projection
  // is finite.
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  GraphDb g(alphabet);
  NodeId u = g.AddNode("u");
  NodeId v = g.AddNode("v");
  g.AddEdge(u, Symbol{0}, v);   // a edge u->v
  g.AddEdge(v, Symbol{1}, v);   // b loop at v
  QueryResult r = Eval(g, R"(Ans(p) <- ("u", p, x), (x, q, y), a(p), b*(q))");
  ASSERT_EQ(r.tuples().size(), 1u);
  const PathAnswerSet& answers = r.path_answers(0);
  EXPECT_FALSE(answers.IsEmpty());
  // q is infinite (b*), but p has exactly one binding: the a-edge.
  EXPECT_FALSE(answers.IsInfinite());
  EXPECT_EQ(answers.CountTuples(10), 1u);
}

TEST(PathAnswers, ContainsRejectsForeignPaths) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  GraphDb g = WordGraph(alphabet, {0, 1});
  QueryResult r = Eval(g, "Ans(p) <- (x, p, y), a(p)");
  ASSERT_EQ(r.tuples().size(), 1u);
  const PathAnswerSet& answers = r.path_answers(0);
  // The b-edge path is a valid path but not an answer.
  Path b_path(*g.FindNode("w1"), {{Symbol{1}, *g.FindNode("w2")}});
  EXPECT_FALSE(answers.Contains({b_path}));
  Path a_path(*g.FindNode("w0"), {{Symbol{0}, *g.FindNode("w1")}});
  EXPECT_TRUE(answers.Contains({a_path}));
}

TEST(PathAnswers, EmptyAnswerSet) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  GraphDb g = WordGraph(alphabet, {0});
  auto query = ParseQuery("Ans(p) <- (x, p, y), bb(p)", g.alphabet());
  ASSERT_TRUE(query.ok());
  Evaluator evaluator(&g);
  auto result = evaluator.Evaluate(query.value());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().tuples().empty());
  EXPECT_FALSE(result.value().AsBool());
}

// The two side components (atoms over q and r) are each satisfiable, at
// y = y1 and y = y2, but do not join on y: x is no answer, and its path
// answer set must be empty rather than the unconstrained head search.
TEST(PathAnswers, SideComponentsThatDoNotJoinGiveNoPaths) {
  auto alphabet = Alphabet::FromLabels({"a", "b", "c"});
  GraphDb g(alphabet);
  NodeId x = g.AddNode("x");
  NodeId y1 = g.AddNode("y1");
  NodeId z = g.AddNode("z");
  NodeId y2 = g.AddNode("y2");
  NodeId w = g.AddNode("w");
  g.AddEdge(x, Symbol{0}, y1);   // a
  g.AddEdge(y1, Symbol{1}, z);   // b
  g.AddEdge(y2, Symbol{2}, w);   // c
  auto query = ParseQuery(
      "Ans(x, p) <- (x, p, y), a(p), (y, q, z), b(q), (y, r, w), c(r)",
      g.alphabet());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto result = EvaluateProduct(g, query.value(), EvalOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().tuples().empty());
  auto answers = BuildPathAnswerSet(g, query.value(), EvalOptions{}, {x});
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_TRUE(answers.value().IsEmpty());
  EXPECT_EQ(answers.value().CountTuples(3), 0u);
}

TEST(PathAnswers, RepresentationMatchesPaperExampleShape) {
  // ρ-query style: return the two property sequences relating fixed nodes
  // (Section 4). Check the answer automaton produces synchronized pairs.
  Rng rng(5);
  std::vector<std::pair<std::string, std::string>> subs;
  GraphDb g = RdfPropertyGraph(6, 3, 2, &rng, &subs);
  std::string rho =
      "(['p0','p0']|['p0','p1']|['p1','p0']|['p1','p1']|['p2','p2'])+";
  auto query = ParseQuery(
      "Ans(x, y, pi1, pi2) <- (x, pi1, z1), (y, pi2, z2), " + rho +
          "(pi1, pi2)",
      g.alphabet());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EvalOptions options;
  options.max_configs = 500000;
  Evaluator evaluator(&g, options);
  auto result = evaluator.Evaluate(query.value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  if (!result.value().tuples().empty()) {
    const PathAnswerSet& answers = result.value().path_answers(0);
    auto tuples = answers.Enumerate(3, 4);
    for (const PathTuple& tuple : tuples) {
      ASSERT_EQ(tuple.size(), 2u);
      EXPECT_EQ(tuple[0].length(), tuple[1].length());  // ρ-iso implies el
    }
  }
}

}  // namespace
}  // namespace ecrpq
