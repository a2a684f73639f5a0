// The Database / PreparedQuery / ResultCursor facade: compile-once /
// stream-many behavior, $parameter binding, cursor early termination, and
// plan-cache hit/eviction behavior.

#include <gtest/gtest.h>

#include "api/api.h"
#include "relations/builtin.h"

namespace ecrpq {
namespace {

// The quickstart advisor graph.
GraphDb AdvisorGraph() {
  GraphDb g;
  NodeId ann = g.AddNode("ann");
  NodeId bob = g.AddNode("bob");
  NodeId eva = g.AddNode("eva");
  NodeId leo = g.AddNode("leo");
  g.AddEdge(ann, "advisor", eva);
  g.AddEdge(bob, "advisor", eva);
  g.AddEdge(eva, "advisor", leo);
  g.AddEdge(bob, "coauthor", ann);
  return g;
}

// A chain a-graph with many reachable pairs, for limit tests.
GraphDb ChainGraph(int n) {
  GraphDb g;
  for (int i = 0; i < n; ++i) g.AddNode("v" + std::to_string(i));
  for (int i = 0; i + 1 < n; ++i) g.AddEdge(i, "a", i + 1);
  return g;
}

std::vector<std::string> Names(const GraphDb& g,
                               const std::vector<NodeId>& tuple) {
  std::vector<std::string> out;
  for (NodeId v : tuple) out.push_back(g.NodeName(v));
  return out;
}

TEST(Database, PrepareOnceExecuteTwice) {
  Database db(AdvisorGraph());
  auto prepared = db.Prepare(R"(Ans(y) <- ("ann", p, y), 'advisor'+(p))");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  auto first = prepared.value().ExecuteAll();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = prepared.value().ExecuteAll();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first.value().tuples(), second.value().tuples());
  ASSERT_EQ(first.value().tuples().size(), 2u);  // eva, leo
  EXPECT_EQ(Names(db.graph(), first.value().tuples()[0]),
            (std::vector<std::string>{"eva"}));
  EXPECT_EQ(Names(db.graph(), first.value().tuples()[1]),
            (std::vector<std::string>{"leo"}));
}

TEST(Database, MatchesEvaluatorSemantics) {
  // The facade must agree with the engine-level Evaluator on a nontrivial
  // ECRPQ (equal-length paths to a common node).
  GraphDb g = AdvisorGraph();
  auto query = ParseQuery(
      R"(Ans(x, y) <- (x, p, "leo"), (y, q, "leo"), )"
      R"('advisor'+(p), 'advisor'+(q), el(p, q))",
      g.alphabet());
  ASSERT_TRUE(query.ok());
  auto direct = Evaluator(&g).Evaluate(query.value());
  ASSERT_TRUE(direct.ok());

  Database db(AdvisorGraph());
  auto via_facade = db.Execute(
      R"(Ans(x, y) <- (x, p, "leo"), (y, q, "leo"), )"
      R"('advisor'+(p), 'advisor'+(q), el(p, q))");
  ASSERT_TRUE(via_facade.ok()) << via_facade.status().ToString();
  EXPECT_EQ(via_facade.value().tuples(), direct.value().tuples());
}

TEST(PreparedQuery, ParameterBinding) {
  Database db(AdvisorGraph());
  auto prepared = db.Prepare("Ans(y) <- ($who, p, y), 'advisor'+(p)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared.value().parameter_names(),
            (std::vector<std::string>{"who"}));

  auto from_ann = prepared.value().ExecuteAll(Params().Set("who", "ann"));
  ASSERT_TRUE(from_ann.ok()) << from_ann.status().ToString();
  EXPECT_EQ(from_ann.value().tuples().size(), 2u);  // eva, leo

  auto from_eva = prepared.value().ExecuteAll(Params().Set("who", "eva"));
  ASSERT_TRUE(from_eva.ok()) << from_eva.status().ToString();
  ASSERT_EQ(from_eva.value().tuples().size(), 1u);  // leo
  EXPECT_EQ(Names(db.graph(), from_eva.value().tuples()[0]),
            (std::vector<std::string>{"leo"}));
}

TEST(PreparedQuery, ParameterErrors) {
  Database db(AdvisorGraph());
  auto prepared = db.Prepare("Ans(y) <- ($who, p, y), 'advisor'+(p)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  // Unbound parameter.
  auto unbound = prepared.value().ExecuteAll();
  ASSERT_FALSE(unbound.ok());
  EXPECT_EQ(unbound.status().code(), StatusCode::kFailedPrecondition);

  // Bound to a node that does not exist.
  auto unknown_node =
      prepared.value().ExecuteAll(Params().Set("who", "nobody"));
  ASSERT_FALSE(unknown_node.ok());
  EXPECT_EQ(unknown_node.status().code(), StatusCode::kNotFound);

  // Binding a parameter the query does not have.
  auto unknown_param = prepared.value().ExecuteAll(
      Params().Set("who", "ann").Set("other", "bob"));
  ASSERT_FALSE(unknown_param.ok());
  EXPECT_EQ(unknown_param.status().code(), StatusCode::kInvalidArgument);

  // Evaluating a parameterized query through the engine layer directly is
  // a FailedPrecondition, not a crash.
  Evaluator evaluator(&db.graph());
  evaluator.set_graph_index(db.graph_index());
  auto raw = evaluator.Evaluate(prepared.value().query());
  ASSERT_FALSE(raw.ok());
  EXPECT_EQ(raw.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ResultCursor, StreamsAndStops) {
  const int n = 12;
  Database db(ChainGraph(n));
  auto prepared = db.Prepare("Ans(x, y) <- (x, p, y), a+(p)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  // Full run: n*(n-1)/2 reachable ordered pairs.
  auto all = prepared.value().ExecuteAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().tuples().size(), static_cast<size_t>(n * (n - 1) / 2));

  // Limited cursor: exactly `limit` rows, then exhausted.
  ExecuteOptions limited;
  limited.limit = 3;
  auto cursor = prepared.value().Execute({}, limited);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  int rows = 0;
  while (cursor.value().Next()) {
    EXPECT_EQ(cursor.value().tuple().size(), 2u);
    ++rows;
  }
  EXPECT_EQ(rows, 3);
  EXPECT_TRUE(cursor.value().status().ok());
  // Early termination did less join work than the full run.
  EXPECT_LT(cursor.value().stats().join_tuples,
            all.value().stats().join_tuples);
}

TEST(ResultCursor, ExistsShortCircuits) {
  Database db(ChainGraph(16));
  auto prepared = db.Prepare("Ans(x, y) <- (x, p, y), a+(p)");
  ASSERT_TRUE(prepared.ok());

  auto cursor = prepared.value().Execute();
  ASSERT_TRUE(cursor.ok());
  EXPECT_TRUE(cursor.value().exists());
  // exists() ran with limit 1: at most one row was materialized.
  EXPECT_EQ(cursor.value().stats().join_tuples, 1u);

  auto yes = prepared.value().Exists();
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(yes.value());

  auto never = db.Exists("Ans() <- (x, p, x), a+(p)");  // no cycles in chain
  ASSERT_TRUE(never.ok());
  EXPECT_FALSE(never.value());
}

TEST(ResultCursor, DefaultConstructedIsExhausted) {
  ResultCursor cursor;
  EXPECT_FALSE(cursor.Next());
  EXPECT_FALSE(cursor.exists());
  EXPECT_TRUE(cursor.status().ok());
}

TEST(Database, ReRegisteringRelationDropsStaleState) {
  Database db(ChainGraph(4));
  // p is forced to length 1 and q to length 2, so equal-length is
  // unsatisfiable; after overriding 'el' with the universal relation the
  // SAME text must re-resolve (plan cache AND relation memoization) and
  // become satisfiable.
  const std::string text =
      R"(Ans() <- ("v0", p, "v1"), ("v0", q, "v2"), el(p, q))";
  auto before = db.Exists(text);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_FALSE(before.value());
  db.RegisterRelation(
      "el", std::make_shared<RegularRelation>(UniversalRelation(1, 2)));
  auto after = db.Exists(text);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(after.value());
  EXPECT_EQ(db.plan_cache_misses(), 2u);  // both runs compiled fresh
}

TEST(ResultCursor, PathAnswersStreamed) {
  Database db(AdvisorGraph());
  auto prepared = db.Prepare(R"(Ans(y, p) <- ("ann", p, y), 'advisor'+(p))");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto cursor = prepared.value().Execute();
  ASSERT_TRUE(cursor.ok());
  int rows = 0;
  while (cursor.value().Next()) {
    ASSERT_NE(cursor.value().path_answers(), nullptr);
    EXPECT_FALSE(cursor.value().path_answers()->IsEmpty());
    ++rows;
  }
  EXPECT_EQ(rows, 2);
}

TEST(Database, PlanCacheHits) {
  Database db(AdvisorGraph());
  const std::string text = R"(Ans(y) <- ("ann", p, y), 'advisor'+(p))";
  ASSERT_TRUE(db.Prepare(text).ok());
  EXPECT_EQ(db.plan_cache_misses(), 1u);
  EXPECT_EQ(db.plan_cache_hits(), 0u);

  ASSERT_TRUE(db.Prepare(text).ok());
  EXPECT_EQ(db.plan_cache_misses(), 1u);
  EXPECT_EQ(db.plan_cache_hits(), 1u);

  // One-shot Execute goes through the same cache.
  ASSERT_TRUE(db.Execute(text).ok());
  EXPECT_EQ(db.plan_cache_hits(), 2u);
  EXPECT_EQ(db.plan_cache_size(), 1u);
}

TEST(Database, PlanCacheEviction) {
  DatabaseOptions options;
  options.plan_cache_capacity = 2;
  Database db(AdvisorGraph(), options);
  const std::string a = "Ans(x) <- (x, p, y), 'advisor'(p)";
  const std::string b = "Ans(x) <- (x, p, y), 'advisor'+(p)";
  const std::string c = "Ans(x) <- (x, p, y), 'coauthor'(p)";
  ASSERT_TRUE(db.Prepare(a).ok());
  ASSERT_TRUE(db.Prepare(b).ok());
  ASSERT_TRUE(db.Prepare(c).ok());  // evicts a (LRU)
  EXPECT_EQ(db.plan_cache_size(), 2u);

  ASSERT_TRUE(db.Prepare(b).ok());  // still cached
  EXPECT_EQ(db.plan_cache_hits(), 1u);
  ASSERT_TRUE(db.Prepare(a).ok());  // recompiled
  EXPECT_EQ(db.plan_cache_misses(), 4u);
}

TEST(Database, CustomRelationsAndCountingEngine) {
  // The facade routes linear-atom queries to the counting engine and
  // supports per-session relation registration.
  Database db(ChainGraph(6));
  db.RegisterRelation("same_len", std::make_shared<RegularRelation>(
                                         EqualLengthRelation(1)));
  auto counting =
      db.Execute(R"(Ans() <- ("v0", p, "v3"), len(p) >= 3, len(p) <= 3)");
  ASSERT_TRUE(counting.ok()) << counting.status().ToString();
  EXPECT_TRUE(counting.value().AsBool());
  EXPECT_EQ(counting.value().stats().engine, "counting");

  auto prepared =
      db.Prepare("Ans(x, y) <- (x, p, z), (z, q, y), same_len(p, q)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
}

TEST(Database, StaticallyEmptyPlanSkipsEngine) {
  Database db(ChainGraph(4));
  // {a} ∩ {aa} is empty: the optimizer proves it statically.
  auto prepared = db.Prepare("Ans(x, y) <- (x, p, y), a(p), aa(p)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_TRUE(prepared.value().optimizer_report().proven_empty);
  auto result = prepared.value().ExecuteAll();
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().AsBool());
  EXPECT_EQ(result.value().stats().engine, "static-empty");
}

TEST(PreparedQuery, ExplainReportsPlanAndEstimates) {
  Database db(AdvisorGraph());
  auto prepared = db.Prepare(
      "Ans(x, u) <- (x, p, z), (z, q, y), (u, r, v), eq(p, q), "
      "'advisor'*(r)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  Explanation explanation = prepared.value().Explain();
  EXPECT_EQ(explanation.engine, prepared.value().engine());
  EXPECT_EQ(explanation.engine_name, "product");
  ASSERT_NE(explanation.plan, nullptr);
  ASSERT_EQ(explanation.plan->components.size(), 2u);
  for (const PlannedComponent& pc : explanation.plan->components) {
    EXPECT_GE(pc.est_rows, 0.0);
  }
  std::string text = explanation.ToString();
  EXPECT_NE(text.find("engine: product"), std::string::npos);
  EXPECT_NE(text.find("est_rows"), std::string::npos);
  EXPECT_NE(text.find("analysis:"), std::string::npos);
}

TEST(PreparedQuery, PhysicalPlanCachedAndRecostedOnIndexInvalidation) {
  Database db(AdvisorGraph());
  auto prepared = db.Prepare("Ans(x, y) <- (x, p, z), (z, q, y), eq(p, q)");
  ASSERT_TRUE(prepared.ok());

  PhysicalPlanPtr first = prepared.value().plan();
  PhysicalPlanPtr again = prepared.value().plan();
  EXPECT_EQ(first.get(), again.get());  // cached per query text

  // A second handle for the same text shares the costed plan.
  auto sibling = db.Prepare("Ans(x, y) <- (x, p, z), (z, q, y), eq(p, q)");
  ASSERT_TRUE(sibling.ok());
  EXPECT_EQ(sibling.value().plan().get(), first.get());

  // Graph mutation invalidates the index; the plan must be re-costed.
  // (MutateGraph clears the plan cache, but the outstanding handle keeps
  // its CompiledPlan — exactly the path the weak_ptr re-cost covers.)
  db.MutateGraph([](GraphDb& g) { g.AddEdge(0, "advisor", 3); });
  PhysicalPlanPtr recosted = prepared.value().plan();
  EXPECT_NE(recosted.get(), first.get());
}

TEST(ResultCursor, PerOperatorStatsExposed) {
  Database db(AdvisorGraph());
  auto prepared = db.Prepare("Ans(x, y) <- (x, p, z), (z, q, y), eq(p, q)");
  ASSERT_TRUE(prepared.ok());
  auto cursor = prepared.value().Execute();
  ASSERT_TRUE(cursor.ok());
  while (cursor.value().Next()) {
  }
  ASSERT_TRUE(cursor.value().status().ok());
  ASSERT_FALSE(cursor.value().stats().operators.empty());
  uint64_t total_rows_out = 0;
  for (const OperatorStats& op : cursor.value().stats().operators) {
    EXPECT_FALSE(op.op.empty());
    total_rows_out += op.rows_out;
  }
  EXPECT_GT(total_rows_out, 0u);
}

}  // namespace
}  // namespace ecrpq
