// Morsel-driven parallel execution: thread-count scaling on the hottest
// engine paths, measured by the bench itself (BENCH json + twin-speedup
// lines at exit; CI greps the 1→4 speedup).
//
// Two tiers, mostly at num_threads ∈ {1, 2, 4, 8}:
//
// tiny/ — the original 72/40-node cases. They double as
// SERIAL-REGRESSION GUARDS: their threads/1 medians are diffed against
// the committed baselines to prove the parallel machinery costs the
// legacy path nothing.
//
//   tiny/ProductSearch  an eq-synchronized two-track component with one
//                       free start variable — V independent product
//                       searches, morsel-partitioned over the seeds
//   tiny/PlannerJoin    the cross-component planner workload of
//                       bench_planner_join (selective scan seeding an
//                       expensive eq component)
//
// large/ — 10^5–10^6 nodes, >10^6 edges:
//
//   large/GridProduct   ONE anchored product search on a 1000x1000
//                       labeled grid (10^6 nodes, ~3M edges): two
//                       eq-synchronized tracks from the corner under a
//                       24-step length bound, growing to tens of
//                       thousands of configurations per level in one
//                       visited table. A single search runs on one lane
//                       at any thread count, so only threads/1 is
//                       recorded: the serial product search's
//                       time-and-memory guard
//   large/PowerLawScan  reachability scan over a 2^17-node / 1.3M-edge
//                       preferential-attachment graph (one bounded BFS
//                       per source node, morsel-partitioned)
//
// num_threads=1 is the exact legacy serial path, so the t1 cases double
// as the regression guard against prior-PR medians.
//
// ConcurrentClients is tier-free: 16 client threads sharing ONE Database
// and ONE prepared query (plan-cache + snapshot protocol), measuring the
// api layer's inter-query parallelism.

#include <benchmark/benchmark.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "bench_util.h"
#include "graph/generators.h"

namespace {

using namespace ecrpq;
using namespace ecrpq_bench;

// Dense {a, b} random graph with `rare` additional c-edges (the planner
// workload of bench_planner_join).
GraphDb CrossComponentGraph(int nodes, int rare, uint64_t seed = 42) {
  auto alphabet = Alphabet::FromLabels({"a", "b", "c"});
  Rng rng(seed);
  GraphDb g(alphabet);
  for (int i = 0; i < nodes; ++i) g.AddNode("n" + std::to_string(i));
  for (int e = 0; e < 3 * nodes; ++e) {
    g.AddEdge(static_cast<NodeId>(rng.Below(nodes)),
              rng.Chance(0.5) ? "a" : "b",
              static_cast<NodeId>(rng.Below(nodes)));
  }
  for (int i = 0; i < rare; ++i) {
    g.AddEdge(static_cast<NodeId>(rng.Below(nodes)), "c",
              static_cast<NodeId>(rng.Below(nodes)));
  }
  return g;
}

// One shared start variable, two synchronized tracks: V start
// assignments, each an independent product search (Thm 6.1 machinery).
const char* kProductQuery =
    "Ans(y, z) <- (x, p, y), (x, q, z), eq(p, q)";

// Selective scan component + expensive eq component joined on x.
const char* kPlannerJoinQuery =
    "Ans(x, w) <- (x, p, u), c(p), (x, q, v), (v, r, w), eq(q, r)";

void RunScaling(benchmark::State& state, const char* case_name,
                const GraphDb& g, const std::string& query_text) {
  const int threads = static_cast<int>(state.range(0));
  Query query = MustParse(g, query_text);
  EvalOptions options;
  options.engine = Engine::kProduct;
  options.build_path_answers = false;
  options.max_configs = 500000000;
  options.num_threads = threads;
  Evaluator evaluator(&g, options);
  size_t answers = 0;
  MedianTimer timer;
  for (auto _ : state) {
    timer.Begin();
    auto result = evaluator.Evaluate(query);
    timer.End();
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    answers = result.value().tuples().size();
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
  RecordBenchCase(std::string(case_name) + "/threads/" +
                      std::to_string(threads),
                  timer,
                  {{"nodes", static_cast<double>(g.num_nodes())},
                   {"edges", static_cast<double>(g.num_edges())},
                   {"threads", static_cast<double>(threads)},
                   {"answers", static_cast<double>(answers)}});
}

void TinyProductSearch(benchmark::State& state) {
  GraphDb g = MakeRandomGraph(72);
  RunScaling(state, "tiny/ProductSearch", g, kProductQuery);
}
BENCHMARK(TinyProductSearch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void TinyPlannerJoin(benchmark::State& state) {
  GraphDb g = CrossComponentGraph(40, /*rare=*/3);
  RunScaling(state, "tiny/PlannerJoin", g, kPlannerJoinQuery);
}
BENCHMARK(TinyPlannerJoin)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// 1000x1000 labeled grid (right/down/diagonal edges, 4 labels): one
// anchored two-track eq search from the corner. The 24-fold letter group
// bounds the word length, so the branching factor (~outdeg^2 / labels =
// 2.25 per level) grows the frontier to the distinct-pair cap of
// each level (~10^5 configurations) and the search cuts off at level 24
// when the length automaton runs dry — a single large product search,
// run on one lane (more threads would run the same serial search).
void LargeGridProduct(benchmark::State& state) {
  static const GraphDb& g = *[] {
    auto alphabet = Alphabet::FromLabels({"a", "b", "c", "d"});
    Rng rng(42);
    return new GraphDb(GridGraph(alphabet, 1000, 1000, &rng));
  }();
  std::string letter = "(a|b|c|d)";
  std::string bounded;
  for (int i = 0; i < 24; ++i) bounded += letter;
  RunScaling(state, "large/GridProduct", g,
             "Ans(y, z) <- (\"g0_0\", p, y), (\"g0_0\", q, z), eq(p, q), " +
                 bounded + "(p)");
}
BENCHMARK(LargeGridProduct)->Arg(1)->Unit(benchmark::kMillisecond);

// 2^17-node preferential-attachment graph, 10 edges per node: one
// bounded reachability BFS per source node (aaaa = exactly four a-steps),
// morsel-partitioned over the sources.
void LargePowerLawScan(benchmark::State& state) {
  static const GraphDb& g = *[] {
    auto alphabet = Alphabet::FromLabels({"a", "b", "c", "d"});
    Rng rng(42);
    return new GraphDb(
        PowerLawGraph(alphabet, 1 << 17, 10 * (1 << 17), &rng));
  }();
  RunScaling(state, "large/PowerLawScan", g,
             "Ans(x) <- (x, p, y), aaaa(p)");
}
BENCHMARK(LargePowerLawScan)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// 16 clients × one shared Database: each iteration runs every client
// through `kPerClient` prepared executions (serial engines — this case
// measures the api layer's inter-query parallelism, not intra-query
// lanes). threads = OS client threads.
void ConcurrentClients(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  constexpr int kPerClient = 4;
  DatabaseOptions options;
  options.eval.num_threads = 1;
  options.eval.build_path_answers = false;
  Database db(MakeRandomGraph(56), options);
  auto prepared = db.Prepare("Ans(x, y) <- (x, p, y), (a|b)*(p)");
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  MedianTimer timer;
  std::atomic<int> failures{0};
  for (auto _ : state) {
    timer.Begin();
    std::vector<std::thread> workers;
    for (int c = 0; c < clients; ++c) {
      workers.emplace_back([&] {
        for (int i = 0; i < kPerClient; ++i) {
          auto result = prepared.value().ExecuteAll();
          if (!result.ok()) failures.fetch_add(1);
        }
      });
    }
    for (std::thread& t : workers) t.join();
    timer.End();
  }
  if (failures.load() > 0) {
    state.SkipWithError("concurrent execution failed");
    return;
  }
  RecordBenchCase("ConcurrentClients/clients/" + std::to_string(clients),
                  timer,
                  {{"clients", static_cast<double>(clients)},
                   {"per_client", static_cast<double>(kPerClient)}});
}
BENCHMARK(ConcurrentClients)
    ->Arg(1)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

}  // namespace
