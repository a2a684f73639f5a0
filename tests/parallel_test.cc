// Concurrency correctness: the morsel-driven parallel execution layer
// (core/parallel.h, util/thread_pool.h) must be invisible in results —
// identical answer sets and engine counters at every thread count — and
// the api layer must serve concurrent executions on one shared Database
// while the graph mutates through the snapshot protocol. Cancellation
// (external kill, limit/exists pushdown) must stop workers promptly.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "core/eval_product.h"
#include "core/evaluator.h"
#include "core/ops.h"
#include "graph/generators.h"
#include "query/parser.h"
#include "util/random.h"

namespace ecrpq {
namespace {

GraphDb SmallDag(uint64_t seed) {
  Rng rng(seed);
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  return LayeredGraph(alphabet, 4, 2, 2, &rng);
}

GraphDb MediumRandom(int nodes, uint64_t seed) {
  Rng rng(seed);
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  return RandomGraph(alphabet, nodes, 3 * nodes, &rng);
}

// Random multi-component queries over a small variable pool (the same
// family planner_test uses): single-atom ReachabilityScan components and
// eq-synchronized ProductExpand pairs, sharing variables 1 in 3 draws.
std::string RandomQuery(Rng* rng) {
  static const char* kLanguages[] = {"a*", "b*", "a+", "ab", "(ab)*",
                                     "(a|b)*", "a(a|b)*"};
  static const std::vector<std::vector<int>> kShapes = {
      {1, 1}, {2, 1}, {1, 2}, {1, 1, 1}};
  const std::vector<int>& shape = kShapes[rng->Next() % kShapes.size()];
  auto lang = [&]() { return kLanguages[rng->Next() % 7]; };

  std::string body;
  std::set<std::string> used_vars;
  int next_var = 0;
  int next_path = 0;
  auto pick_var = [&]() {
    std::string v;
    if (!used_vars.empty() && rng->Next() % 3 == 0) {
      auto it = used_vars.begin();
      std::advance(it, rng->Next() % used_vars.size());
      v = *it;
    } else {
      v = "x" + std::to_string(next_var++ % 4);
    }
    used_vars.insert(v);
    return v;
  };
  for (size_t c = 0; c < shape.size(); ++c) {
    if (c > 0) body += ", ";
    if (shape[c] == 1) {
      std::string p = "p" + std::to_string(next_path++);
      body += "(" + pick_var() + ", " + p + ", " + pick_var() + "), ";
      body += std::string(lang()) + "(" + p + ")";
    } else {
      std::string p = "p" + std::to_string(next_path++);
      std::string q = "p" + std::to_string(next_path++);
      body += "(" + pick_var() + ", " + p + ", " + pick_var() + "), ";
      body += "(" + pick_var() + ", " + q + ", " + pick_var() + "), ";
      body += "eq(" + p + ", " + q + ")";
    }
  }
  std::vector<std::string> vars(used_vars.begin(), used_vars.end());
  std::string head;
  const size_t head_arity = std::min<size_t>(vars.size(), 2);
  for (size_t i = 0; i < head_arity; ++i) {
    if (i > 0) head += ", ";
    head += vars[rng->Next() % vars.size()];
  }
  return "Ans(" + head + ") <- " + body;
}

Result<QueryResult> RunAtThreads(const GraphDb& g, const Query& query,
                                 int num_threads) {
  EvalOptions options;
  options.num_threads = num_threads;
  options.build_path_answers = false;
  Evaluator evaluator(&g, options);
  return evaluator.Evaluate(query);
}

constexpr int kGridRows = 224;
constexpr int kGridCols = 224;

// The 50k-node graph of the large-tier property test: a 224x224 labeled
// grid (50176 nodes, ~150k edges over {a, b, c, d}). Built once; every
// query against it is anchored, so each evaluation is ONE product search
// (or one bidirectional search) rather than 50k seeded searches.
const GraphDb& LargeGrid() {
  static const GraphDb* g = [] {
    auto alphabet = Alphabet::FromLabels({"a", "b", "c", "d"});
    Rng rng(2026);
    return new GraphDb(GridGraph(alphabet, kGridRows, kGridCols, &rng));
  }();
  return *g;
}

std::string GridNode(Rng* rng) {
  return "\"g" + std::to_string(rng->Below(kGridRows)) + "_" +
         std::to_string(rng->Below(kGridCols)) + "\"";
}

// `len` concatenated letter atoms: a bounded-length language, so the
// frontier grows geometrically (eq-product branching ~outdeg^2 / labels =
// 2.25 per level on this grid) and then dries up when the length
// automaton runs out — closures stay finite and tractable.
std::string LetterBound(Rng* rng, int len) {
  static const char* kAtoms[] = {"a",     "b",     "c",        "d",
                                 "(a|b)", "(c|d)", "(a|b|c|d)"};
  std::string s;
  for (int i = 0; i < len; ++i) s += kAtoms[rng->Next() % 7];
  return s;
}

// Random ANCHORED queries over the grid. Every family pins at least one
// endpoint to a named node, so each leaf is a single search that runs on
// one lane at any thread count: the anchored product search (families
// 0-2, 4), whose eq-product levels grow to hundreds-to-thousands of
// configurations in one visited table, and the bidirectional meet
// (family 3, both endpoints anchored).
std::string RandomLargeGridQuery(Rng* rng) {
  switch (rng->Next() % 5) {
    case 0:  // anchored bounded reachability scan
      return "Ans(y) <- (" + GridNode(rng) + ", p, y), " +
             LetterBound(rng, 2 + static_cast<int>(rng->Below(6))) + "(p)";
    case 1: {  // eq-product, shared anchored start: the big-frontier family
      std::string a = GridNode(rng);
      return "Ans(y, z) <- (" + a + ", p, y), (" + a + ", q, z), eq(p, q), " +
             LetterBound(rng, 4 + static_cast<int>(rng->Below(8))) + "(p)";
    }
    case 2:  // single-letter star: unbounded language, subcritical growth
      return "Ans(y) <- (" + GridNode(rng) + ", p, y), " +
             std::string(1, static_cast<char>('a' + rng->Below(4))) + "*(p)";
    case 3:  // doubly anchored boolean: bidirectional meet-in-the-middle
      return "Ans() <- (" + GridNode(rng) + ", p, " + GridNode(rng) + "), " +
             LetterBound(rng, 4 + static_cast<int>(rng->Below(5))) + "(p)";
    default:  // eq-product with two distinct anchors
      return "Ans(y, z) <- (" + GridNode(rng) + ", p, y), (" + GridNode(rng) +
             ", q, z), eq(p, q), " +
             LetterBound(rng, 4 + static_cast<int>(rng->Below(6))) + "(p)";
  }
}

// Sanitizer builds (CI's TSan/ASan jobs) run a subset of the query
// budget: same families, same per-query cost, ~10x instrumentation
// overhead. The full 100 run in every uninstrumented build.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr uint64_t kLargeGridQueries = 20;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr uint64_t kLargeGridQueries = 20;
#else
constexpr uint64_t kLargeGridQueries = 100;
#endif
#else
constexpr uint64_t kLargeGridQueries = 100;
#endif

// (a) 100 random queries: identical result sets AND identical engine
// counters at num_threads ∈ {1, 2, 8}. The counters are the stronger
// check: parallel lanes explore exactly the configurations the serial
// search does, merged at barriers — nothing double-counted or skipped.
TEST(ParallelExecution, ResultsIdenticalAcrossThreadCounts) {
  for (uint64_t seed = 0; seed < 100; ++seed) {
    Rng rng(7000 + seed);
    GraphDb g = SmallDag(seed % 7);
    std::string text = RandomQuery(&rng);
    auto query = ParseQuery(text, g.alphabet());
    ASSERT_TRUE(query.ok()) << text;

    auto serial = RunAtThreads(g, query.value(), 1);
    ASSERT_TRUE(serial.ok()) << text << ": " << serial.status().ToString();
    for (int threads : {2, 8}) {
      auto parallel = RunAtThreads(g, query.value(), threads);
      ASSERT_TRUE(parallel.ok())
          << text << " @" << threads << ": " << parallel.status().ToString();
      EXPECT_EQ(serial.value().tuples(), parallel.value().tuples())
          << text << " @" << threads;
      EXPECT_EQ(serial.value().stats().configs_explored,
                parallel.value().stats().configs_explored)
          << text << " @" << threads;
      EXPECT_EQ(serial.value().stats().arcs_explored,
                parallel.value().stats().arcs_explored)
          << text << " @" << threads;
      EXPECT_EQ(serial.value().stats().start_assignments,
                parallel.value().stats().start_assignments)
          << text << " @" << threads;
    }
  }
}

// The large-graph determinism contract: random anchored queries on the
// 50k-node grid must produce byte-identical answer sets AND engine
// counters at num_threads ∈ {1, 2, 4, 8}. Each query's leaves are single
// searches, so a larger session thread count must leave them on one lane
// and change nothing — neither the answers nor any counter — while the
// planner and executor still see the larger lane budget.
TEST(ParallelExecution, LargeGraphResultsIdenticalAcrossThreadCounts) {
  const GraphDb& g = LargeGrid();
  for (uint64_t seed = 0; seed < kLargeGridQueries; ++seed) {
    Rng rng(40000 + seed);
    std::string text = RandomLargeGridQuery(&rng);
    auto query = ParseQuery(text, g.alphabet());
    ASSERT_TRUE(query.ok()) << text;

    auto serial = RunAtThreads(g, query.value(), 1);
    ASSERT_TRUE(serial.ok()) << text << ": " << serial.status().ToString();
    for (int threads : {2, 4, 8}) {
      auto parallel = RunAtThreads(g, query.value(), threads);
      ASSERT_TRUE(parallel.ok())
          << text << " @" << threads << ": " << parallel.status().ToString();
      EXPECT_EQ(serial.value().tuples(), parallel.value().tuples())
          << text << " @" << threads;
      EXPECT_EQ(serial.value().stats().configs_explored,
                parallel.value().stats().configs_explored)
          << text << " @" << threads;
      EXPECT_EQ(serial.value().stats().arcs_explored,
                parallel.value().stats().arcs_explored)
          << text << " @" << threads;
      EXPECT_EQ(serial.value().stats().start_assignments,
                parallel.value().stats().start_assignments)
          << text << " @" << threads;
    }
  }
}

// (b) One shared Database: 8 client threads × 50 executions each while a
// writer thread mutates the graph (MutateGraph) and invalidates the
// snapshot. Every execution must succeed against SOME consistent
// snapshot; the plan cache serves all clients. Run under TSan in CI.
TEST(ParallelServing, ConcurrentExecuteWithGraphMutation) {
  DatabaseOptions options;
  options.eval.num_threads = 2;  // intra-query lanes under inter-query load
  options.eval.build_path_answers = false;
  Rng rng(11);
  Database db(
      LayeredGraph(Alphabet::FromLabels({"a", "b"}), 8, 4, 2, &rng),
      options);

  const std::vector<std::string> texts = {
      "Ans(x, y) <- (x, p, y), a*(p)",
      "Ans(x, z) <- (x, p, y), (y, q, z), a*(p), b*(q)",
      "Ans(y, z) <- (x, p, y), (x, q, z), eq(p, q)",
  };

  constexpr int kClients = 8;
  constexpr int kPerClient = 50;
  std::atomic<int> failures{0};
  std::atomic<bool> writer_done{false};

  std::thread writer([&] {
    for (int i = 0; i < 25; ++i) {
      db.MutateGraph([&](GraphDb& g) {
        NodeId u = static_cast<NodeId>(i % g.num_nodes());
        NodeId v = static_cast<NodeId>((i * 7 + 3) % g.num_nodes());
        g.AddEdge(u, i % 2 == 0 ? "a" : "b", v);
      });
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    writer_done.store(true);
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const std::string& text = texts[(c + i) % texts.size()];
        auto prepared = db.Prepare(text);
        if (!prepared.ok()) {
          ++failures;
          continue;
        }
        if (i % 3 == 0) {
          // Cursor path (lazy Run under the read guard).
          ExecuteOptions exec;
          exec.limit = 5;
          auto cursor = prepared.value().Execute({}, exec);
          if (!cursor.ok()) {
            ++failures;
            continue;
          }
          while (cursor.value().Next()) {
          }
          if (!cursor.value().status().ok()) ++failures;
        } else {
          auto result = prepared.value().ExecuteAll();
          if (!result.ok()) ++failures;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  writer.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(writer_done.load());
  EXPECT_GT(db.plan_cache_hits(), 0u);
  // The mutated graph is visible to post-drain executions.
  auto after = db.Execute(texts[0]);
  ASSERT_TRUE(after.ok());
}

// MutateGraph invalidates the index snapshot and cached plans: answers
// reflect the new edges on the next execution.
TEST(ParallelServing, MutateGraphRefreshesSnapshot) {
  GraphDb g;
  NodeId a = g.AddNode("a0");
  NodeId b = g.AddNode("b0");
  g.AddNode("c0");
  g.AddEdge(a, "a", b);
  Database db(std::move(g));
  auto prepared = db.Prepare("Ans(x, y) <- (x, p, y), a+(p)");
  ASSERT_TRUE(prepared.ok());
  auto before = prepared.value().ExecuteAll();
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().tuples().size(), 1u);

  db.MutateGraph([](GraphDb& graph) {
    graph.AddEdge(*graph.FindNode("b0"), "a", *graph.FindNode("c0"));
  });
  auto after = prepared.value().ExecuteAll();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().tuples().size(), 3u);  // a→b, b→c, a→c
}

// (c) Cancellation. A token tripped before execution stops the engine at
// its first poll — deterministically Cancelled, with workers never
// ramping up.
TEST(ParallelCancellation, PreCancelledTokenStopsImmediately) {
  // Big enough that the planner does NOT cost-demote the eq component to
  // serial: the morsel driver itself must report Cancelled, not just the
  // serial path.
  GraphDb g = MediumRandom(120, 3);
  DatabaseOptions options;
  options.eval.num_threads = 4;
  options.eval.build_path_answers = false;
  Database db(std::move(g), options);
  auto prepared = db.Prepare("Ans(y, z) <- (x, p, y), (x, q, z), eq(p, q)");
  ASSERT_TRUE(prepared.ok());

  ExecuteOptions exec;
  exec.cancellation = std::make_shared<CancellationToken>();
  exec.cancellation->Cancel();
  auto cursor = prepared.value().Execute({}, exec);
  ASSERT_TRUE(cursor.ok());
  EXPECT_FALSE(cursor.value().Next());
  EXPECT_EQ(cursor.value().status().code(), StatusCode::kCancelled);
}

// Cancelling mid-flight unwinds all lanes promptly: the execution thread
// joins shortly after Cancel() even though the full search would run far
// longer (the workload is an eq-synchronized product over a dense graph).
TEST(ParallelCancellation, MidRunCancelUnwindsPromptly) {
  GraphDb g = MediumRandom(120, 5);
  DatabaseOptions options;
  options.eval.num_threads = 4;
  options.eval.max_configs = 500000000;  // never the stopping reason
  options.eval.build_path_answers = false;
  Database db(std::move(g), options);
  auto prepared = db.Prepare(
      "Ans(y, z) <- (x, p, y), (x, q, z), (y, r, z), eq(p, q), eq(q, r)");
  ASSERT_TRUE(prepared.ok());

  ExecuteOptions exec;
  exec.cancellation = std::make_shared<CancellationToken>();
  std::atomic<bool> done{false};
  Status status;
  std::thread runner([&] {
    auto cursor = prepared.value().Execute({}, exec);
    ASSERT_TRUE(cursor.ok());
    cursor.value().Next();
    status = cursor.value().status();
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  exec.cancellation->Cancel();
  auto cancel_time = std::chrono::steady_clock::now();
  runner.join();
  auto unwind = std::chrono::steady_clock::now() - cancel_time;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(unwind).count(),
            30);
  // Cancelled when the kill landed mid-run; OK only if the query finished
  // inside the 30ms head start (possible on a fast machine).
  if (done.load() && !status.ok()) {
    EXPECT_EQ(status.code(), StatusCode::kCancelled);
  }
}

// limit/exists pushdown still terminates early under parallel execution
// (the emitter trips the shared token so lanes do not keep expanding).
TEST(ParallelCancellation, LimitAndExistsUnderParallelism) {
  GraphDb g = MediumRandom(50, 9);
  DatabaseOptions options;
  options.eval.num_threads = 8;
  options.eval.build_path_answers = false;
  Database db(std::move(g), options);

  auto prepared = db.Prepare("Ans(x, y) <- (x, p, y), a*(p)");
  ASSERT_TRUE(prepared.ok());
  EXPECT_TRUE(prepared.value().Exists().value());

  ExecuteOptions exec;
  exec.limit = 3;
  auto cursor = prepared.value().Execute({}, exec);
  ASSERT_TRUE(cursor.ok());
  int rows = 0;
  while (cursor.value().Next()) ++rows;
  EXPECT_EQ(rows, 3);
  EXPECT_TRUE(cursor.value().status().ok());
}

// The streamed final join emits in one order at any lane count, so a
// limit keeps the same tuples: the unsorted emission sequence is
// identical at 1 and 4 threads, and `limit k` returns exactly its first
// k tuples. The shapes leave two to four tables for the final join
// (chains, a star, a triangle, a cross join), whose leaves run on
// worker lanes at 4 threads.
TEST(ParallelExecution, StreamedJoinOrderAndLimitCutIdenticalAcrossLanes) {
  Rng rng(7);
  GraphDb g = RandomGraph(Alphabet::FromLabels({"a", "b", "c", "d"}), 1500,
                          4500, &rng);
  const char* kQueries[] = {
      "Ans(x, y, z) <- (x, p, y), (y, q, z), a*(p), b*(q)",
      "Ans(x, y, z, w) <- (x, p, y), (y, q, z), (z, r, w), a(p), b*(q), "
      "c(r)",
      "Ans(x, y, z, w) <- (x, p, y), (x, q, z), (x, r, w), a(p), b(q), "
      "c*(r)",
      "Ans(x, y, z) <- (x, p, y), (y, q, z), (z, r, x), a*(p), b*(q), "
      "c*(r)",
      "Ans(x, y) <- (x, p, u), (y, q, v), abcd(p), dcba(q)",
  };
  auto run = [&](const Query& query, int threads, uint64_t limit) {
    EvalOptions options;
    options.build_path_answers = false;
    options.num_threads = threads;
    MaterializingSink sink(limit);
    EvalStats stats;
    Status st = EvaluateProduct(g, query, options, sink, stats);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return sink.tuples.ToVectors();  // emission order: never sorted
  };
  for (const char* text : kQueries) {
    SCOPED_TRACE(text);
    auto query = ParseQuery(text, g.alphabet());
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    const std::vector<std::vector<NodeId>> serial = run(query.value(), 1, 0);
    ASSERT_GE(serial.size(), 3u);
    EXPECT_EQ(run(query.value(), 4, 0), serial);
    for (uint64_t k : {uint64_t{1}, serial.size() / 3, serial.size() - 1}) {
      const std::vector<std::vector<NodeId>> first(serial.begin(),
                                                   serial.begin() + k);
      for (int threads : {1, 4}) {
        EXPECT_EQ(run(query.value(), threads, k), first)
            << "limit " << k << " threads=" << threads;
      }
    }
  }
}

// An operator's profile line names the lanes it ran on.
TEST(ParallelStats, DescribeShowsLanes) {
  OperatorStats op;
  op.op = "ProductExpand";
  op.threads = 4;
  EXPECT_NE(op.Describe().find("threads=4"), std::string::npos);
  op.threads = 1;
  EXPECT_EQ(op.Describe().find("threads="), std::string::npos);
}

// The planner records its chosen per-operator parallelism in Explain.
TEST(ParallelPlanning, ExplainRecordsParallelism) {
  DatabaseOptions options;
  options.eval.num_threads = 4;
  Database db(MediumRandom(40, 2), options);
  auto prepared =
      db.Prepare("Ans(x, z) <- (x, p, y), (y, q, z), a*(p), b*(q)");
  ASSERT_TRUE(prepared.ok());
  Explanation explanation = prepared.value().Explain();
  ASSERT_NE(explanation.plan, nullptr);
  EXPECT_EQ(explanation.plan->num_threads, 4);
  for (const PlannedComponent& pc : explanation.plan->components) {
    EXPECT_GE(pc.threads, 1);
    EXPECT_LE(pc.threads, 4);
  }
  EXPECT_NE(explanation.plan_text.find("parallelism="), std::string::npos);

  // A leaf anchored at a constant, with no sideways seed, is one search:
  // the plan and the executed operator both report one lane, although
  // the leaf is large enough that the planner does not demote it.
  Rng rng(5);
  Database grid(GridGraph(Alphabet::FromLabels({"a", "b", "c", "d"}), 60, 60,
                          &rng),
                options);
  for (const char* text :
       {"Ans(y) <- (\"g0_0\", p, y), (a|b|c|d)(a|b|c|d)(a|b|c|d)(p)",
        "Ans(y, z) <- (\"g0_0\", p, y), (\"g0_0\", q, z), eq(p, q), "
        "(a|b|c|d)(a|b|c|d)(a|b|c|d)(p)"}) {
    SCOPED_TRACE(text);
    auto anchored = grid.Prepare(text);
    ASSERT_TRUE(anchored.ok()) << anchored.status().ToString();
    Explanation plan = anchored.value().Explain();
    ASSERT_NE(plan.plan, nullptr);
    ASSERT_EQ(plan.plan->components.size(), 1u);
    EXPECT_FALSE(plan.plan->components[0].demoted_serial);
    EXPECT_EQ(plan.plan->components[0].threads, 1);
    EXPECT_NE(plan.plan_text.find("parallelism=1"), std::string::npos);

    auto cursor = anchored.value().Execute();
    ASSERT_TRUE(cursor.ok());
    while (cursor.value().Next()) {
    }
    ASSERT_TRUE(cursor.value().status().ok());
    ASSERT_FALSE(cursor.value().stats().operators.empty());
    EXPECT_EQ(cursor.value().stats().operators[0].threads, 1);
  }
}

// A seeded ProductExpand with fewer seed rows than lanes, every anchor of
// its direction bound by the seeds: lanes split the rows (one search per
// row), so tuples and every counter are identical at 1 and 4 threads, in
// each direction.
TEST(ParallelExecution, FewSeedRowsMatchSerial) {
  GraphDb g = MediumRandom(60, 8);
  auto query = ParseQuery("Ans(y, z) <- (x, p, y), (x, q, z), eq(p, q)",
                          g.alphabet());
  ASSERT_TRUE(query.ok());
  auto resolved = ResolveQuery(g, query.value());
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  ResolvedQuery& rq = resolved.value();
  rq.index = GraphIndex::Build(g);
  const ComponentSpec comp = BuildComponentSpec(rq, {0, 1});
  const std::vector<NodeId> fixed(query.value().node_variables().size(), -1);
  EvalOptions options;
  options.build_path_answers = false;

  // Three answers with distinct x values: seed rows that bind every
  // anchor of the direction (x forward, y and z backward, all three
  // bidirectionally) and lead to answers.
  RowBuffer all(comp.vars.size());
  EvalStats unseeded;
  ASSERT_TRUE(ExecuteComponentOp(rq, comp, options, fixed, nullptr, -1.0,
                                 SearchDirection::kForward, 1, unseeded, &all,
                                 nullptr)
                  .ok());
  BindingTable answers(comp.vars);
  std::set<NodeId> xs;
  for (std::span<const NodeId> row : all) {
    if (answers.rows.size() < 3 && xs.insert(row[0]).second) {
      answers.rows.push_back(row);
    }
  }
  ASSERT_EQ(answers.rows.size(), 3u);

  const struct {
    SearchDirection direction;
    std::vector<int> seed_vars;
  } kCases[] = {
      {SearchDirection::kForward, comp.start_vars},
      {SearchDirection::kBackward, comp.end_vars},
      {SearchDirection::kBidirectional, comp.vars},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(SearchDirectionName(c.direction));
    const BindingTable seeds = ProjectDistinct(answers, c.seed_vars);
    ASSERT_GE(seeds.rows.size(), 2u);
    ASSERT_LT(seeds.rows.size(), 4u);
    RowBuffer serial_rows(comp.vars.size()), parallel_rows(comp.vars.size());
    EvalStats serial, parallel;
    ASSERT_TRUE(ExecuteComponentOp(rq, comp, options, fixed, &seeds, -1.0,
                                   c.direction, 1, serial, &serial_rows,
                                   nullptr)
                    .ok());
    ASSERT_TRUE(ExecuteComponentOp(rq, comp, options, fixed, &seeds, -1.0,
                                   c.direction, 4, parallel, &parallel_rows,
                                   nullptr)
                    .ok());
    EXPECT_FALSE(serial_rows.empty());
    EXPECT_EQ(serial_rows, parallel_rows);
    EXPECT_EQ(serial.configs_explored, parallel.configs_explored);
    EXPECT_EQ(serial.arcs_explored, parallel.arcs_explored);
    EXPECT_EQ(serial.start_assignments, parallel.start_assignments);
    ASSERT_EQ(serial.operators.size(), 1u);
    ASSERT_EQ(parallel.operators.size(), 1u);
    const OperatorStats& s = serial.operators[0];
    const OperatorStats& p = parallel.operators[0];
    EXPECT_EQ(s.direction, p.direction);
    EXPECT_EQ(s.visited_configs, p.visited_configs);
    EXPECT_EQ(s.frontier_expansions, p.frontier_expansions);
    EXPECT_EQ(s.meet_checks, p.meet_checks);
    EXPECT_EQ(s.threads, 1);
    EXPECT_EQ(p.threads, static_cast<int>(seeds.rows.size()));
  }
}

}  // namespace
}  // namespace ecrpq
