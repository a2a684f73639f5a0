// CRPQ evaluation: per-atom reachability + join (Theorem 6.5). kAuto
// runs a CRPQ on the product engine, whose plan for it is the all-scan
// plan: one ReachabilityScan leaf per atom.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "automata/regex.h"
#include "core/eval_bruteforce.h"
#include "core/eval_product.h"
#include "core/planner.h"
#include "core/reachability.h"
#include "graph/generators.h"
#include "query/parser.h"
#include "reference_ops.h"

namespace ecrpq {
namespace {

// True when kAuto plans `query` as the all-scan plan: the product
// engine with one single-atom ReachabilityScan leaf per path atom.
bool AllScanPlan(const GraphDb& g, const Query& query) {
  auto compiled = CompileQuery(query, g.alphabet().size());
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  PhysicalPlan plan = PlanQuery(query, *compiled.value(),
                                *GraphIndex::Build(g), EvalOptions{});
  if (plan.engine != Engine::kProduct ||
      plan.components.size() != query.path_atoms().size()) {
    return false;
  }
  for (const PlannedComponent& pc : plan.components) {
    if (pc.leaf != OpKind::kReachabilityScan) return false;
  }
  return true;
}

TEST(CrpqFastPath, Applicability) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  GraphDb g = WordGraph(alphabet, {0, 1});
  auto crpq = ParseQuery("Ans(x) <- (x, p, y), a*(p)", *alphabet);
  ASSERT_TRUE(crpq.ok());
  EXPECT_TRUE(AllScanPlan(g, crpq.value()));
  auto ecrpq = ParseQuery(
      "Ans() <- (x, p, y), (x, q, y), el(p, q)", *alphabet);
  ASSERT_TRUE(ecrpq.ok());
  EXPECT_FALSE(AllScanPlan(g, ecrpq.value()));
  auto repeated = ParseQuery("Ans() <- (x, p, y), (y, p, z)", *alphabet);
  ASSERT_TRUE(repeated.ok());
  EXPECT_FALSE(AllScanPlan(g, repeated.value()));
  auto linear = ParseQuery("Ans() <- (x, p, y), len(p) >= 1", *alphabet);
  ASSERT_TRUE(linear.ok());
  EXPECT_FALSE(AllScanPlan(g, linear.value()));
}

// The all-pairs forward scan of the intersection of `languages`.
RowBuffer ReachabilityPairs(
    const GraphDb& g, const std::vector<const RegularRelation*>& languages,
    const GraphIndex& index) {
  return ReachabilityPairsDirected(
      g, BuildScanLanguage(g.alphabet().size(), languages), index,
      /*sources=*/nullptr, /*targets=*/nullptr, SearchDirection::kForward,
      /*scan_stats=*/nullptr, /*meet_checks=*/nullptr, /*num_threads=*/1,
      /*cancel=*/nullptr);
}

TEST(CrpqFastPath, ReachabilityPairs) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  GraphDb g = WordGraph(alphabet, {0, 0, 1});  // aab
  RegularRelation lang = RegularRelation::FromLanguage(
      2, ParseRegexStrict("a+", *alphabet).value()->ToNfa(2));
  const RowBuffer pairs = ReachabilityPairs(g, {&lang}, *GraphIndex::Build(g));
  // a+ paths: w0->w1, w0->w2, w1->w2.
  EXPECT_EQ(pairs.size(), 3u);
}

// Cross-check the all-scan plan against the monolithic product (one
// search over every atom, no joins).
class CrpqEngineAgreement : public ::testing::TestWithParam<int> {};

TEST_P(CrpqEngineAgreement, MatchesProductEngine) {
  Rng rng(GetParam());
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  GraphDb g = RandomGraph(alphabet, 6, 14, &rng);
  const char* queries[] = {
      "Ans(x, y) <- (x, p, y), a*b(p)",
      "Ans(x, z) <- (x, p, y), (y, q, z), a+(p), b+(q)",
      "Ans(y) <- (x, p, y), (y, q, z), (y, r, w), .*(p), a*(q), b*(r)",
      "Ans() <- (x, p, y), ab(p)",
      "Ans(x) <- (x, p, x), a+(p)",
  };
  for (const char* text : queries) {
    SCOPED_TRACE(text);
    auto query = ParseQuery(text, g.alphabet());
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    ASSERT_TRUE(AllScanPlan(g, query.value()));
    EvalOptions options;
    auto fast = EvaluateProduct(g, query.value(), options);
    options.use_components = false;
    auto slow = EvaluateProduct(g, query.value(), options);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    ASSERT_TRUE(slow.ok()) << slow.status().ToString();
    EXPECT_EQ(fast.value().tuples(), slow.value().tuples());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrpqEngineAgreement, ::testing::Range(0, 10));

TEST(CrpqFastPath, ConstantEndpoints) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  GraphDb g = WordGraph(alphabet, {0, 1, 0});
  auto query = ParseQuery(R"(Ans(y) <- ("w0", p, y), a.*(p))",
                          g.alphabet());
  ASSERT_TRUE(query.ok());
  auto result = EvaluateProduct(g, query.value(), EvalOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Paths from w0 starting with a: a (w1), ab (w2), aba (w3).
  EXPECT_EQ(result.value().tuples().size(), 3u);
}

TEST(CrpqFastPath, AutoDispatchPicksIt) {
  auto alphabet = Alphabet::FromLabels({"a"});
  GraphDb g = CycleGraph(alphabet, 3, "a");
  auto query = ParseQuery("Ans(x) <- (x, p, y), a+(p)", g.alphabet());
  ASSERT_TRUE(query.ok());
  Evaluator evaluator(&g);
  auto result = evaluator.Evaluate(query.value());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().stats().engine, "product");
  EXPECT_EQ(result.value().stats().operators.at(0).op, "ReachabilityScan");
  EXPECT_EQ(result.value().tuples().size(), 3u);
}

// ---- Theorem 6.5: polynomial join work, by counter ----------------------

// The bound asserted on join work: join_tuples <= this × rows × atoms.
constexpr uint64_t kWorkPerRowAndAtom = 4;

// Tuples and the engine's join work (EvalStats::join_tuples: rows the
// hash joins produce plus tuples the final join enumerates).
struct CrpqRun {
  std::vector<std::vector<NodeId>> tuples;
  uint64_t join_tuples = 0;
};

CrpqRun RunCrpq(const GraphDb& g, const std::string& text) {
  auto query = ParseQuery(text, g.alphabet());
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  EvalOptions options;
  options.build_path_answers = false;
  EXPECT_TRUE(AllScanPlan(g, query.value()));
  auto result = EvaluateProduct(g, query.value(), options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().stats().engine, "product");
  return {result.value().tuples(), result.value().stats().join_tuples};
}

// A 3-branch star: enumerating embeddings costs one join tuple per
// combination of branch ends (over a million here); the semijoin fixpoint
// plus early projection reduces each branch to its center column first,
// so the join does O(rows) work per atom.
TEST(CrpqPolynomialBound, StarJoinWorkIsRowsTimesAtoms) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  Rng rng(42);
  GraphDb g = RandomGraph(alphabet, 64, 192, &rng);
  CrpqRun run = RunCrpq(
      g,
      "Ans(x) <- (x, p0, y0), (x, p1, y1), (x, p2, y2), b*a(p0), a*b(p1), "
      "b*a(p2)");
  const uint64_t rows = run.tuples.size();
  EXPECT_EQ(rows, 61u);
  EXPECT_LE(run.join_tuples, kWorkPerRowAndAtom * rows * 3);
}

// Acyclic chain: each private inner variable is joined away and projected
// out as soon as its two atoms meet, so no intermediate table outgrows
// the projected (x_0, x_i) relation.
TEST(CrpqPolynomialBound, ChainJoinWorkIsRowsTimesAtoms) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  GraphDb g = UniversalWordGraph(alphabet);
  std::string body;
  std::string langs;
  const int atoms = 10;
  for (int i = 0; i < atoms; ++i) {
    if (i > 0) body += ", ";
    body += "(x" + std::to_string(i) + ", p" + std::to_string(i) + ", x" +
            std::to_string(i + 1) + ")";
    langs += std::string(", ") + (i % 2 == 0 ? "a*" : "b*") + "(p" +
             std::to_string(i) + ")";
  }
  CrpqRun run = RunCrpq(g, "Ans(x0, x10) <- " + body + langs);
  const uint64_t rows = run.tuples.size();
  ASSERT_GT(rows, 0u);
  EXPECT_LE(run.join_tuples, kWorkPerRowAndAtom * rows * atoms);
}

// ---- generated differential test ------------------------------------------

// Node names n0..: constants need named nodes.
GraphDb Named(const GraphDb& g) {
  GraphDb out(g.alphabet_ptr());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    out.AddNode("n" + std::to_string(v));
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const auto& [label, to] : g.Out(v)) out.AddEdge(v, label, to);
  }
  return out;
}

// Atom endpoints of each query shape over variables v0..v3.
const std::vector<std::vector<std::pair<int, int>>>& Shapes() {
  static const std::vector<std::vector<std::pair<int, int>>> kShapes = {
      {{0, 1}, {1, 2}},                  // chain
      {{0, 1}, {1, 2}, {2, 3}},          // longer chain
      {{0, 1}, {0, 2}},                  // star
      {{0, 1}, {0, 2}, {3, 0}},          // star with an in-branch
      {{0, 1}, {1, 2}, {2, 0}},          // triangle
      {{0, 1}, {1, 2}, {2, 3}, {3, 0}},  // square
      {{0, 0}, {0, 1}},                  // loop atom plus a branch
      {{0, 1}, {1, 1}, {1, 2}},          // loop atom inside a chain
  };
  return kShapes;
}

// A random CRPQ over `shape`: each variable becomes a constant with
// probability 1/5 (so an atom may have a constant on either or both
// ends), and the head keeps a random subset of the remaining variables
// (possibly none: a Boolean query).
std::string RandomCrpq(Rng* rng, const std::vector<std::pair<int, int>>& shape,
                       const std::vector<std::string>& languages,
                       int num_nodes) {
  std::vector<std::string> term(4);
  std::vector<std::string> vars;
  for (int v = 0; v < 4; ++v) {
    if (rng->Chance(0.2)) {
      term[v] = "\"n" + std::to_string(rng->Below(num_nodes)) + "\"";
    } else {
      term[v] = "v" + std::to_string(v);
    }
  }
  std::string body;
  for (size_t i = 0; i < shape.size(); ++i) {
    const auto& [from, to] = shape[i];
    if (i > 0) body += ", ";
    body += "(" + term[from] + ", p" + std::to_string(i) + ", " + term[to] +
            ")";
    for (int v : {from, to}) {
      if (term[v][0] == 'v' &&
          std::find(vars.begin(), vars.end(), term[v]) == vars.end()) {
        vars.push_back(term[v]);
      }
    }
  }
  for (size_t i = 0; i < shape.size(); ++i) {
    body += ", " + rng->Pick(languages) + "(p" + std::to_string(i) + ")";
  }
  std::string head;
  for (const std::string& v : vars) {
    if (!rng->Chance(0.5)) continue;
    head += (head.empty() ? "" : ", ") + v;
  }
  return "Ans(" + head + ") <- " + body;
}

// The all-scan plan and kBruteForce agree on generated CRPQs, and the
// plan's tuples and counters are identical at 1 and 4 threads. Brute force is
// exact because every path the languages accept is at most
// bruteforce_max_len long: the layered DAGs have no longer paths, and the
// cyclic random graphs are queried with finite languages only.
TEST(CrpqDifferential, GeneratedQueriesMatchProductAndBruteForce) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  const std::vector<std::string> kAnyLanguages = {
      "a*", "b+", "(a|b)*", "ab", "a(a|b)*", "(ab)*", "b*a"};
  const std::vector<std::string> kFiniteLanguages = {
      "a", "b", "ab", "(a|b)", "a?b", "ba?", "(a|b)(a|b)"};
  int ran = 0;
  for (uint64_t seed = 0; seed < 24; ++seed) {
    Rng rng(seed * 6151 + 3);
    const bool dag = seed % 2 == 0;
    GraphDb g = dag ? Named(LayeredGraph(alphabet, 3, 2, 2, &rng))
                    : Named(RandomGraph(alphabet, 5, 8, &rng));
    for (const auto& shape : Shapes()) {
      const std::string text = RandomCrpq(
          &rng, shape, dag ? kAnyLanguages : kFiniteLanguages,
          g.num_nodes());
      SCOPED_TRACE(text + " (seed " + std::to_string(seed) + ")");
      auto query = ParseQuery(text, g.alphabet());
      ASSERT_TRUE(query.ok()) << query.status().ToString();
      ASSERT_TRUE(AllScanPlan(g, query.value()));
      EvalOptions options;
      options.build_path_answers = false;
      options.bruteforce_max_len = 2;
      auto brute = EvaluateBruteForce(g, query.value(), options);
      ASSERT_TRUE(brute.ok()) << brute.status().ToString();
      auto product = EvaluateProduct(g, query.value(), options);
      ASSERT_TRUE(product.ok()) << product.status().ToString();
      EXPECT_EQ(product.value().tuples(), brute.value().tuples());

      QueryResult serial;
      for (int threads : {1, 4}) {
        options.num_threads = threads;
        auto crpq = EvaluateProduct(g, query.value(), options);
        ASSERT_TRUE(crpq.ok()) << crpq.status().ToString();
        EXPECT_EQ(crpq.value().tuples(), brute.value().tuples())
            << "threads=" << threads;
        if (threads == 1) {
          serial = crpq.value();
          continue;
        }
        const EvalStats& a = serial.stats();
        const EvalStats& b = crpq.value().stats();
        EXPECT_EQ(a.configs_explored, b.configs_explored);
        EXPECT_EQ(a.arcs_explored, b.arcs_explored);
        EXPECT_EQ(a.start_assignments, b.start_assignments);
        EXPECT_EQ(a.join_tuples, b.join_tuples);
        ASSERT_EQ(a.operators.size(), b.operators.size());
        for (size_t k = 0; k < a.operators.size(); ++k) {
          SCOPED_TRACE("operator " + std::to_string(k) + " " +
                       a.operators[k].op);
          EXPECT_EQ(a.operators[k].op, b.operators[k].op);
          EXPECT_EQ(a.operators[k].detail, b.operators[k].detail);
          EXPECT_EQ(a.operators[k].rows_in, b.operators[k].rows_in);
          EXPECT_EQ(a.operators[k].rows_out, b.operators[k].rows_out);
          EXPECT_EQ(a.operators[k].frontier_expansions,
                    b.operators[k].frontier_expansions);
          EXPECT_EQ(a.operators[k].visited_configs,
                    b.operators[k].visited_configs);
        }
      }
      ++ran;
    }
  }
  EXPECT_EQ(ran, 24 * static_cast<int>(Shapes().size()));
}

// The packed row path against the set-based one it replaced
// (reference::EvaluateScanPlan): on generated CRPQs over small and
// medium random graphs, in every search direction, at 1 and 4 lanes, the
// tuples come out in the same order with the same EvalStats, operator by
// operator. The medium graph makes tables large enough for seeding,
// backward scans whose rows need sorting, and many-end scans.
TEST(CrpqDifferential, PackedRowsMatchSetBasedReference) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  const std::vector<std::string> kLanguages = {
      "a*", "b+", "(a|b)*", "ab", "a(a|b)*", "(ab)*", "b*a", "(a|b)"};
  int ran = 0;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(seed * 7919 + 11);
    const bool medium = seed % 3 == 0;
    GraphDb g = medium ? Named(RandomGraph(alphabet, 40, 90, &rng))
                       : Named(RandomGraph(alphabet, 6, 10, &rng));
    for (const auto& shape : Shapes()) {
      const std::string text =
          RandomCrpq(&rng, shape, kLanguages, g.num_nodes());
      auto query = ParseQuery(text, g.alphabet());
      ASSERT_TRUE(query.ok()) << query.status().ToString();
      for (SearchDirection direction :
           {SearchDirection::kAuto, SearchDirection::kBackward,
            SearchDirection::kBidirectional}) {
        for (int threads : {1, 4}) {
          SCOPED_TRACE(text + " (seed " + std::to_string(seed) + ", " +
                       SearchDirectionName(direction) + ", threads " +
                       std::to_string(threads) + ")");
          EvalOptions options;
          options.build_path_answers = false;
          options.direction = direction;
          options.num_threads = threads;
          MaterializingSink want_sink, got_sink;
          EvalStats want, got;
          ASSERT_TRUE(reference::EvaluateScanPlan(g, query.value(), options,
                                                  want_sink, want)
                          .ok());
          ASSERT_TRUE(
              EvaluateProduct(g, query.value(), options, got_sink, got)
                  .ok());
          EXPECT_EQ(got_sink.tuples.ToVectors(),
                    want_sink.tuples.ToVectors());
          EXPECT_EQ(got.engine, want.engine);
          EXPECT_EQ(got.configs_explored, want.configs_explored);
          EXPECT_EQ(got.arcs_explored, want.arcs_explored);
          EXPECT_EQ(got.start_assignments, want.start_assignments);
          EXPECT_EQ(got.join_tuples, want.join_tuples);
          ASSERT_EQ(got.operators.size(), want.operators.size());
          for (size_t k = 0; k < got.operators.size(); ++k) {
            const OperatorStats& a = got.operators[k];
            const OperatorStats& b = want.operators[k];
            SCOPED_TRACE("operator " + std::to_string(k) + " " + b.op);
            EXPECT_EQ(a.op, b.op);
            EXPECT_EQ(a.detail, b.detail);
            EXPECT_EQ(a.rows_in, b.rows_in);
            EXPECT_EQ(a.rows_out, b.rows_out);
            EXPECT_EQ(a.frontier_expansions, b.frontier_expansions);
            EXPECT_EQ(a.visited_configs, b.visited_configs);
            EXPECT_EQ(a.meet_checks, b.meet_checks);
            EXPECT_EQ(a.build_rows, b.build_rows);
            EXPECT_EQ(a.probe_rows, b.probe_rows);
            EXPECT_EQ(a.est_rows, b.est_rows);
            EXPECT_EQ(a.threads, b.threads);
            EXPECT_EQ(a.direction, b.direction);
          }
          ++ran;
        }
      }
    }
  }
  EXPECT_EQ(ran, 12 * 3 * 2 * static_cast<int>(Shapes().size()));
}

}  // namespace
}  // namespace ecrpq
