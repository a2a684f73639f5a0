// Planner correctness: the cost-based conjunct planner (core/planner.h)
// and the operator layer it drives (core/ops.h) must preserve reference
// semantics under every join order, and its cardinality estimates must be
// monotone in the index's label statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/eval_bruteforce.h"
#include "core/eval_product.h"
#include "core/evaluator.h"
#include "core/ops.h"
#include "core/planner.h"
#include "graph/generators.h"
#include "graph/index.h"
#include "query/parser.h"
#include "util/random.h"

namespace ecrpq {
namespace {

// Layered DAGs keep every path short, so brute force with a generous
// bound is exact (see property_test.cc for the same technique).
GraphDb SmallDag(uint64_t seed) {
  Rng rng(seed);
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  return LayeredGraph(alphabet, 4, 2, 2, &rng);
}

// ---- random multi-component query generation ------------------------------

// One component is either a single unary-language atom (a ReachabilityScan
// leaf) or an eq-synchronized pair of atoms (a ProductExpand leaf). Node
// variables are drawn from a small shared pool, so components frequently
// share variables — exercising the HashJoin and sideways-seeding paths.
// Total path atoms are capped at 3: the brute-force reference enumerates
// |paths|^atoms assignments, so the cap keeps the reference exact AND fast.
std::string RandomQuery(Rng* rng, int* num_components) {
  static const char* kLanguages[] = {"a*", "b*", "a+", "ab", "(ab)*",
                                     "(a|b)*", "a(a|b)*"};
  // Component shapes (atom counts): total atoms <= 3, >= 2 components.
  static const std::vector<std::vector<int>> kShapes = {
      {1, 1}, {2, 1}, {1, 2}, {1, 1, 1}};
  const std::vector<int>& shape = kShapes[rng->Next() % kShapes.size()];
  *num_components = static_cast<int>(shape.size());
  auto var = [&](int i) { return "x" + std::to_string(i % 4); };
  auto lang = [&]() { return kLanguages[rng->Next() % 7]; };

  std::string body;
  std::set<std::string> used_vars;
  int next_var = 0;
  int next_path = 0;
  for (size_t c = 0; c < shape.size(); ++c) {
    if (c > 0) body += ", ";
    // Bias toward fresh variables but reuse ~1 in 3 draws: reuse creates
    // cross-component joins and seeding opportunities.
    auto pick_var = [&]() {
      std::string v;
      if (!used_vars.empty() && rng->Next() % 3 == 0) {
        auto it = used_vars.begin();
        std::advance(it, rng->Next() % used_vars.size());
        v = *it;
      } else {
        v = var(next_var++);
      }
      used_vars.insert(v);
      return v;
    };
    if (shape[c] == 1) {
      // Single-atom component.
      std::string p = "p" + std::to_string(next_path++);
      body += "(" + pick_var() + ", " + p + ", " + pick_var() + "), ";
      body += std::string(lang()) + "(" + p + ")";
    } else {
      // eq-synchronized two-atom component.
      std::string p = "p" + std::to_string(next_path++);
      std::string q = "p" + std::to_string(next_path++);
      body += "(" + pick_var() + ", " + p + ", " + pick_var() + "), ";
      body += "(" + pick_var() + ", " + q + ", " + pick_var() + "), ";
      body += "eq(" + p + ", " + q + ")";
    }
  }
  // Head: up to two of the used variables (deterministic pick).
  std::vector<std::string> vars(used_vars.begin(), used_vars.end());
  std::string head;
  const size_t head_arity = std::min<size_t>(vars.size(), 2);
  for (size_t i = 0; i < head_arity; ++i) {
    if (i > 0) head += ", ";
    head += vars[(rng->Next() % vars.size())];
    // duplicates in the head are fine (projection repeats the column)
  }
  return "Ans(" + head + ") <- " + body;
}

// Recomputes the order-dependent plan annotations (shared variables, the
// sideways flag and the join pipeline) after an externally imposed
// component permutation.
void RecomputeSharing(const Query& query, PhysicalPlan* plan,
                      bool randomize_sideways, Rng* rng) {
  std::set<int> bound;
  for (PlannedComponent& pc : plan->components) {
    pc.shared_vars.clear();
    for (int v : pc.vars) {
      if (bound.count(v)) pc.shared_vars.push_back(v);
    }
    pc.sideways = !pc.shared_vars.empty() &&
                  (!randomize_sideways || rng->Next() % 2 == 0);
    for (int v : pc.vars) bound.insert(v);
  }
  PlanProjections(query, plan);
}

std::vector<std::vector<NodeId>> RunWithPlan(const GraphDb& g,
                                             const Query& query,
                                             const EvalOptions& options,
                                             const PhysicalPlan* plan) {
  auto result = MaterializeResult([&](ResultSink& sink, EvalStats& stats) {
    return EvaluateProduct(g, query, options, sink, stats, nullptr, nullptr,
                           plan);
  });
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result.value().tuples()
                     : std::vector<std::vector<NodeId>>{};
}

// 100 random multi-component queries: the planned product engine (default
// plan AND randomly permuted join orders with randomized seeding flags)
// must produce exactly the brute-force tuple set.
TEST(PlannerProperty, RandomQueriesMatchBruteForceUnderAnyJoinOrder) {
  int ran = 0;
  for (uint64_t seed = 0; ran < 100; ++seed) {
    Rng rng(seed * 7919 + 13);
    GraphDb g = SmallDag(seed % 10);
    int components = 0;
    std::string text = RandomQuery(&rng, &components);
    auto query = ParseQuery(text, g.alphabet());
    ASSERT_TRUE(query.ok()) << text << ": " << query.status().ToString();

    EvalOptions options;
    options.build_path_answers = false;
    options.bruteforce_max_len = 4;  // layered graph: max path length 3
    options.max_configs = 2000000;

    auto brute = EvaluateBruteForce(g, query.value(), options);
    ASSERT_TRUE(brute.ok()) << text;
    ++ran;
    SCOPED_TRACE(text + " (seed " + std::to_string(seed) + ")");

    // Default planned execution.
    auto planned = EvaluateProduct(g, query.value(), options);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    EXPECT_EQ(brute.value().tuples(), planned.value().tuples());

    // The join-pipeline determinism contract: tuples AND merged engine
    // counters are byte-identical at every worker-lane count, because
    // leaves merge their lanes in canonical order and every join runs
    // serially. The explicit serial run is the reference;
    // OperatorStats::threads legitimately reports the lane count and is
    // the only field allowed to differ.
    EvalOptions serial_opts = options;
    serial_opts.num_threads = 1;
    auto serial = EvaluateProduct(g, query.value(), serial_opts);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    EXPECT_EQ(brute.value().tuples(), serial.value().tuples());
    const EvalStats& ref = serial.value().stats();
    for (int threads : {2, 4, 8}) {
      EvalOptions thread_opts = options;
      thread_opts.num_threads = threads;
      auto run = EvaluateProduct(g, query.value(), thread_opts);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(serial.value().tuples(), run.value().tuples())
          << "threads=" << threads;
      const EvalStats& s = run.value().stats();
      EXPECT_EQ(s.configs_explored, ref.configs_explored)
          << "threads=" << threads;
      EXPECT_EQ(s.arcs_explored, ref.arcs_explored)
          << "threads=" << threads;
      EXPECT_EQ(s.start_assignments, ref.start_assignments)
          << "threads=" << threads;
      EXPECT_EQ(s.join_tuples, ref.join_tuples) << "threads=" << threads;
      ASSERT_EQ(s.operators.size(), ref.operators.size())
          << "threads=" << threads;
      for (size_t k = 0; k < s.operators.size(); ++k) {
        const OperatorStats& a = s.operators[k];
        const OperatorStats& b = ref.operators[k];
        SCOPED_TRACE("operator " + std::to_string(k) + " (" + b.op +
                     ") threads=" + std::to_string(threads));
        EXPECT_EQ(a.op, b.op);
        EXPECT_EQ(a.detail, b.detail);
        EXPECT_EQ(a.rows_in, b.rows_in);
        EXPECT_EQ(a.rows_out, b.rows_out);
        EXPECT_EQ(a.build_rows, b.build_rows);
        EXPECT_EQ(a.probe_rows, b.probe_rows);
      }
    }

    // Randomly permuted join order with randomized seeding decisions.
    auto compiled = CompileQuery(query.value(), g.alphabet().size());
    ASSERT_TRUE(compiled.ok());
    GraphIndexPtr index = GraphIndex::Build(g);
    EvalOptions planning = options;
    planning.engine = Engine::kProduct;
    PhysicalPlan plan =
        PlanQuery(query.value(), *compiled.value(), *index, planning);
    for (size_t i = plan.components.size(); i > 1; --i) {
      std::swap(plan.components[i - 1],
                plan.components[rng.Next() % i]);
    }
    RecomputeSharing(query.value(), &plan,
                     /*randomize_sideways=*/true, &rng);
    EXPECT_EQ(brute.value().tuples(),
              RunWithPlan(g, query.value(), options, &plan));
  }
}

// The forced monolithic product (decomposition forbidden) agrees with
// brute force too.
TEST(PlannerProperty, MonolithicPathMatchesBruteForce) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(seed * 104729 + 7);
    GraphDb g = SmallDag(seed % 6);
    int components = 0;
    std::string text = RandomQuery(&rng, &components);
    auto query = ParseQuery(text, g.alphabet());
    ASSERT_TRUE(query.ok()) << text;
    SCOPED_TRACE(text);

    EvalOptions options;
    options.build_path_answers = false;
    options.bruteforce_max_len = 4;
    options.max_configs = 2000000;
    auto brute = EvaluateBruteForce(g, query.value(), options);
    ASSERT_TRUE(brute.ok());

    EvalOptions monolithic = options;
    monolithic.use_components = false;
    auto mono = EvaluateProduct(g, query.value(), monolithic);
    ASSERT_TRUE(mono.ok()) << mono.status().ToString();
    EXPECT_EQ(brute.value().tuples(), mono.value().tuples());
  }
}

// Sideways seeding corner cases: shared start variables, shared end-only
// variables, constants anchoring one component.
TEST(PlannerProperty, SidewaysSeedingCornerShapes) {
  const char* kShapes[] = {
      // Shared start var across two scan components.
      "Ans(x, w) <- (x, p, y), (x, q, w), a*(p), b*(q)",
      // Shared end-only var.
      "Ans(y, z) <- (y, p, x), (z, q, x), a+(p), (a|b)*(q)",
      // Start var of one component is the end var of another.
      "Ans(x, z) <- (x, p, y), (y, q, z), ab(p), b*(q)",
      // A ProductExpand component seeded by a scan component.
      "Ans(x, u) <- (x, p, y), (x, q, z), (u, r, z), eq(p, q), a*(r)",
      // Loop atom plus independent component.
      "Ans(x, u) <- (x, p, x), (u, q, v), (a|b)*(p), a*(q)",
  };
  for (uint64_t seed = 0; seed < 8; ++seed) {
    GraphDb g = SmallDag(seed);
    for (const char* text : kShapes) {
      SCOPED_TRACE(std::string(text) + " seed " + std::to_string(seed));
      auto query = ParseQuery(text, g.alphabet());
      ASSERT_TRUE(query.ok());
      EvalOptions options;
      options.build_path_answers = false;
      options.bruteforce_max_len = 4;
      auto brute = EvaluateBruteForce(g, query.value(), options);
      ASSERT_TRUE(brute.ok());
      auto planned = EvaluateProduct(g, query.value(), options);
      ASSERT_TRUE(planned.ok()) << planned.status().ToString();
      EXPECT_EQ(brute.value().tuples(), planned.value().tuples());
    }
  }
}

// ---- cardinality estimation ------------------------------------------------

// Adding edges with a label must never lower the estimate of a component
// whose languages read that label.
TEST(PlannerEstimates, MonotoneInLabelCounts) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  const char* kTexts[] = {
      "Ans(x, y) <- (x, p, y), a+(p)",
      "Ans(x, y) <- (x, p, y), (a|b)*(p)",
      "Ans() <- (x, p, z), (z, q, y), eq(p, q)",
  };
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    for (const char* text : kTexts) {
      SCOPED_TRACE(text);
      Rng rng(seed);
      GraphDb grown = RandomGraph(alphabet, 12, 20, &rng);
      auto query = ParseQuery(text, grown.alphabet());
      ASSERT_TRUE(query.ok());
      auto compiled = CompileQuery(query.value(), grown.alphabet().size());
      ASSERT_TRUE(compiled.ok());
      std::vector<int> atoms(query.value().path_atoms().size());
      for (size_t i = 0; i < atoms.size(); ++i) atoms[i] = i;
      double prev = -1.0;
      for (int round = 0; round < 4; ++round) {
        auto index = GraphIndex::Build(grown);
        double est = EstimateComponentCardinality(query.value(),
                                                  *compiled.value(), atoms,
                                                  *index);
        if (prev >= 0.0) {
          EXPECT_GE(est, prev) << "round " << round;
        }
        prev = est;
        // Grow only label "a": estimates must not decrease.
        for (int e = 0; e < 6; ++e) {
          grown.AddEdge(static_cast<NodeId>((round * 6 + e) % 12), "a",
                        static_cast<NodeId>((round + e * 5 + 1) % 12));
        }
      }
    }
  }
}

// A selective label (few edges) must estimate below a pervasive one on
// the same graph — the ordering decision the planner exists to make.
TEST(PlannerEstimates, SelectiveLabelRanksCheaper) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  GraphDb g;
  for (int i = 0; i < 20; ++i) g.AddNode("n" + std::to_string(i));
  Rng rng(3);
  for (int e = 0; e < 60; ++e) {
    g.AddEdge(static_cast<NodeId>(rng.Next() % 20), "a",
              static_cast<NodeId>(rng.Next() % 20));
  }
  g.AddEdge(0, "b", 1);  // label b: a single edge
  auto index = GraphIndex::Build(g);

  auto estimate_for = [&](const char* text) {
    auto query = ParseQuery(text, g.alphabet());
    EXPECT_TRUE(query.ok());
    auto compiled = CompileQuery(query.value(), g.alphabet().size());
    EXPECT_TRUE(compiled.ok());
    return EstimateComponentCardinality(query.value(), *compiled.value(),
                                        {0}, *index);
  };
  EXPECT_LT(estimate_for("Ans(x, y) <- (x, p, y), b+(p)"),
            estimate_for("Ans(x, y) <- (x, p, y), a+(p)"));
}

// The planner puts the cheapest component first and marks later
// components that share variables for sideways seeding.
TEST(PlannerPlans, OrdersCheapestFirstAndMarksSeeding) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  GraphDb g;
  for (int i = 0; i < 20; ++i) g.AddNode("n" + std::to_string(i));
  Rng rng(5);
  for (int e = 0; e < 80; ++e) {
    g.AddEdge(static_cast<NodeId>(rng.Next() % 20), "a",
              static_cast<NodeId>(rng.Next() % 20));
  }
  g.AddEdge(2, "b", 3);
  auto index = GraphIndex::Build(g);

  // Atom 0 reads the pervasive label, atom 1 the selective one; both
  // start at x.
  auto query = ParseQuery("Ans(y, w) <- (x, p, y), (x, q, w), a+(p), b+(q)",
                          g.alphabet());
  ASSERT_TRUE(query.ok());
  auto compiled = CompileQuery(query.value(), g.alphabet().size());
  ASSERT_TRUE(compiled.ok());
  EvalOptions options;
  options.engine = Engine::kProduct;
  PhysicalPlan plan =
      PlanQuery(query.value(), *compiled.value(), *index, options);
  ASSERT_EQ(plan.components.size(), 2u);
  // The selective (b) component, atom index 1, must run first.
  EXPECT_EQ(plan.components[0].atom_indices, std::vector<int>{1});
  EXPECT_LT(plan.components[0].est_rows, plan.components[1].est_rows);
  // The second component shares start var x and must be marked sideways.
  EXPECT_TRUE(plan.components[1].sideways);
  ASSERT_EQ(plan.components[1].shared_vars.size(), 1u);
  const std::string& shared_name =
      query.value().node_variables()[plan.components[1].shared_vars[0]];
  EXPECT_EQ(shared_name, "x");
  // Describe renders the operator tree.
  std::string text = plan.Describe(query.value());
  EXPECT_NE(text.find("ReachabilityScan"), std::string::npos);
  EXPECT_NE(text.find("HashJoin"), std::string::npos);
  EXPECT_NE(text.find("est_rows"), std::string::npos);
}

// ---- engine-selection regression (compile-once fix) ------------------------

// Evaluator::Evaluate must select the same engine whether or not a
// CompiledQuery is supplied (it used to re-run Analyze in the unsupplied
// path; both paths now share one compiled analysis).
TEST(EvaluatorDispatch, EngineSelectionIdenticalWithAndWithoutCompiled) {
  GraphDb g = SmallDag(1);
  const char* kTexts[] = {
      "Ans(x, y) <- (x, p, y), a*(p)",                      // crpq
      "Ans(x, y) <- (x, p, z), (z, q, y), eq(p, q)",        // product
      "Ans() <- (x, p, y), len(p) >= 1",                    // counting
      "Ans(x, w) <- (x, p, y), (z, p, w), a*(p)",           // repetition
  };
  for (const char* text : kTexts) {
    SCOPED_TRACE(text);
    auto query = ParseQuery(text, g.alphabet());
    ASSERT_TRUE(query.ok());
    Evaluator evaluator(&g);

    MaterializingSink sink_without;
    EvalStats stats_without;
    ASSERT_TRUE(
        evaluator.Evaluate(query.value(), sink_without, stats_without).ok());

    auto compiled = CompileQuery(query.value(), g.alphabet().size());
    ASSERT_TRUE(compiled.ok());
    MaterializingSink sink_with;
    EvalStats stats_with;
    ASSERT_TRUE(evaluator
                    .Evaluate(query.value(), sink_with, stats_with,
                              compiled.value())
                    .ok());

    EXPECT_EQ(stats_without.engine, stats_with.engine);
    sink_without.SortRows();
    sink_with.SortRows();
    EXPECT_EQ(sink_without.tuples, sink_with.tuples);
  }
}

// ---- binding-table operators ------------------------------------------------

// A table over `vars` with the given (distinct) rows.
BindingTable Table(std::vector<int> vars,
                   const std::vector<std::vector<NodeId>>& rows) {
  BindingTable t(std::move(vars));
  for (const std::vector<NodeId>& row : rows) t.rows.push_back(row);
  return t;
}

TEST(BindingTableOps, HashJoinOnSharedVarsAndCross) {
  const BindingTable left = Table({0, 1}, {{10, 20}, {11, 21}, {12, 22}});
  const BindingTable right =
      Table({1, 2}, {{20, 30}, {20, 31}, {21, 32}, {99, 33}});
  EvalStats stats;
  BindingTable joined = HashJoinOp(left, right, {0, 1, 2}, stats);
  EXPECT_EQ(joined.vars, (std::vector<int>{0, 1, 2}));
  const std::vector<std::vector<NodeId>> joined_rows = joined.rows.ToVectors();
  std::set<std::vector<NodeId>> rows(joined_rows.begin(), joined_rows.end());
  EXPECT_EQ(rows, (std::set<std::vector<NodeId>>{
                      {10, 20, 30}, {10, 20, 31}, {11, 21, 32}}));
  ASSERT_EQ(stats.operators.size(), 1u);
  EXPECT_EQ(stats.operators[0].op, "HashJoin");
  EXPECT_EQ(stats.operators[0].rows_out, 3u);

  // No shared vars: Cartesian product.
  const BindingTable disjoint = Table({5}, {{1}, {2}});
  BindingTable cross = HashJoinOp(left, disjoint, {0, 1, 5}, stats);
  EXPECT_EQ(cross.rows.size(), 6u);

  // A projection keeps each distinct projected row once.
  BindingTable projected = HashJoinOp(left, right, {1}, stats);
  EXPECT_EQ(projected.vars, (std::vector<int>{1}));
  EXPECT_EQ(projected.rows.ToVectors(),
            (std::vector<std::vector<NodeId>>{{20}, {21}}));
  EXPECT_EQ(stats.operators.back().rows_out, 2u);
}

TEST(BindingTableOps, SemiJoinFilterAndProjectDistinct) {
  BindingTable target = Table({0, 1}, {{1, 5}, {2, 6}, {3, 7}});
  const BindingTable filter = Table({1}, {{5}, {7}});
  EvalStats stats;
  EXPECT_TRUE(SemiJoinFilterOp(&target, filter, stats));
  EXPECT_EQ(target.rows.ToVectors(),
            (std::vector<std::vector<NodeId>>{{1, 5}, {3, 7}}));
  ASSERT_EQ(stats.operators.size(), 1u);
  EXPECT_EQ(stats.operators[0].op, "SemiJoinFilter");
  // Second application is a no-op and records nothing.
  EXPECT_FALSE(SemiJoinFilterOp(&target, filter, stats));
  EXPECT_EQ(stats.operators.size(), 1u);
  // No shared variables: untouched.
  const BindingTable unrelated = Table({9}, {{1}});
  EXPECT_FALSE(SemiJoinFilterOp(&target, unrelated, stats));
  EXPECT_EQ(target.rows.size(), 2u);

  BindingTable projected = ProjectDistinct(target, {1});
  EXPECT_EQ(projected.vars, (std::vector<int>{1}));
  EXPECT_EQ(projected.rows.ToVectors(),
            (std::vector<std::vector<NodeId>>{{5}, {7}}));
}

// A CRPQ plans as the all-scan plan of Thm 6.5: kAuto picks kProduct,
// whose components are single atoms, so every leaf is a ReachabilityScan
// over one atom. Forbidding decomposition gives the one monolithic
// product leaf instead (the Thm 5.1 baseline).
TEST(PlannerPlans, CrpqPlansAsAllScanPlan) {
  const char* kTexts[] = {
      "Ans(x, z) <- (x, p, y), (y, q, z), (ab)*(p), b*(q)",
      "Ans(x) <- (x, p, y), (x, q, z), (x, r, w), a*(p), b+(q), ab(r)",
      "Ans(x, y) <- (x, p, y), (y, q, z), (z, r, x), a+(p), b*(q), a*(r)",
      R"(Ans(y) <- ("n0", p, y), (y, q, z), a*(p), b(q))",
      "Ans() <- (x, p, x), (x, q, y), a+(p), b*(q)",
  };
  for (uint64_t seed : {1u, 4u}) {
    GraphDb g = SmallDag(seed);
    auto index = GraphIndex::Build(g);
    for (const char* text : kTexts) {
      SCOPED_TRACE(text);
      auto query = ParseQuery(text, g.alphabet());
      ASSERT_TRUE(query.ok()) << query.status().ToString();
      auto compiled = CompileQuery(query.value(), g.alphabet().size());
      ASSERT_TRUE(compiled.ok());
      EvalOptions options;
      options.num_threads = 4;
      PhysicalPlan plan =
          PlanQuery(query.value(), *compiled.value(), *index, options);
      ASSERT_EQ(plan.engine, Engine::kProduct);
      ASSERT_EQ(plan.components.size(), query.value().path_atoms().size());
      std::set<int> atoms;
      for (const PlannedComponent& pc : plan.components) {
        EXPECT_EQ(pc.leaf, OpKind::kReachabilityScan);
        ASSERT_EQ(pc.atom_indices.size(), 1u);
        atoms.insert(pc.atom_indices[0]);
      }
      EXPECT_EQ(atoms.size(), plan.components.size());

      options.use_components = false;
      PhysicalPlan monolithic =
          PlanQuery(query.value(), *compiled.value(), *index, options);
      ASSERT_EQ(monolithic.components.size(), 1u);
      EXPECT_EQ(monolithic.components[0].atom_indices.size(),
                query.value().path_atoms().size());
    }
  }
}

// Per-operator counters are populated by the operator layer.
TEST(OperatorStatsTest, PopulatedByProductAndAllScanPlans) {
  GraphDb g = SmallDag(2);
  EvalOptions options;
  options.build_path_answers = false;

  auto product_query = ParseQuery(
      "Ans(x, u) <- (x, p, z), (z, q, y), (u, r, v), eq(p, q), a*(r)",
      g.alphabet());
  ASSERT_TRUE(product_query.ok());
  MaterializingSink sink;
  EvalStats stats;
  ASSERT_TRUE(EvaluateProduct(g, product_query.value(), options, sink, stats)
                  .ok());
  ASSERT_GE(stats.operators.size(), 2u);
  bool saw_expand = false, saw_join = false;
  for (const OperatorStats& op : stats.operators) {
    if (op.op == "ProductExpand") saw_expand = true;
    if (op.op == "HashJoin") saw_join = true;
    EXPECT_FALSE(op.Describe().empty());
  }
  EXPECT_TRUE(saw_expand);
  EXPECT_TRUE(saw_join);

  auto crpq_query =
      ParseQuery("Ans(x, z) <- (x, p, y), (y, q, z), a+(p), b*(q)",
                 g.alphabet());
  ASSERT_TRUE(crpq_query.ok());
  Evaluator evaluator(&g, options);
  MaterializingSink crpq_sink;
  EvalStats crpq_stats;
  ASSERT_TRUE(
      evaluator.Evaluate(crpq_query.value(), crpq_sink, crpq_stats).ok());
  EXPECT_EQ(crpq_stats.engine, "product");
  bool saw_scan = false;
  for (const OperatorStats& op : crpq_stats.operators) {
    if (op.op == "ReachabilityScan") saw_scan = true;
    EXPECT_NE(op.op, "ProductExpand");
  }
  EXPECT_TRUE(saw_scan);
}

}  // namespace
}  // namespace ecrpq
