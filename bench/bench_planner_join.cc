// Cost-based planner vs. the monolithic product (Thm 5.1 evaluated
// literally) on cross-component workloads.
//
// The query joins a highly selective single-atom component (a rare label)
// with an expensive eq-synchronized component through a shared start
// variable. Two execution modes over the same query and graph:
//
//   planned     decomposed + cost-ordered + sideways-seeded (default):
//               the selective component runs first and its bindings seed
//               the expensive component's start enumeration
//   monolithic  ONE product over all tracks (EvalOptions::use_components
//               off) — the paper's Theorem 5.1 evaluation
//
// BENCH_bench_planner_join.json records each case; the writer prints the
// planned-vs-monolithic speedups at exit, so CI measures the planner's
// win instead of asserting it.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace {

using namespace ecrpq;
using namespace ecrpq_bench;

// A dense {a, b} random graph with `rare` additional c-edges: label
// statistics make the c-component obviously cheapest. Built by hand —
// RandomGraph would draw c uniformly, defeating its selectivity.
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

// Selective scan component + expensive eq component, joined on the shared
// start variable x.
const char* kCrossQuery =
    "Ans(x, w) <- (x, p, u), c(p), (x, q, v), (v, r, w), eq(q, r)";

enum class Mode { kPlanned, kMonolithic };

void CrossComponent(benchmark::State& state, Mode mode) {
  const int nodes = static_cast<int>(state.range(0));
  GraphDb g = CrossComponentGraph(nodes, /*rare=*/3);
  Query query = MustParse(g, kCrossQuery);
  EvalOptions options;
  options.engine = Engine::kProduct;
  options.build_path_answers = false;
  options.max_configs = 500000000;
  options.use_components = (mode != Mode::kMonolithic);
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
  const char* mode_name =
      mode == Mode::kPlanned ? "planned" : "monolithic";
  RecordBenchCase("PlannerJoin_Cross/" + std::string(mode_name) + "/" +
                      std::to_string(nodes),
                  timer,
                  {{"nodes", static_cast<double>(g.num_nodes())},
                   {"edges", static_cast<double>(g.num_edges())},
                   {"answers", static_cast<double>(answers)}});
}
BENCHMARK_CAPTURE(CrossComponent, planned, Mode::kPlanned)
    ->Arg(24)
    ->Arg(36)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(CrossComponent, monolithic, Mode::kMonolithic)
    ->Arg(24)
    ->Arg(36)
    ->Unit(benchmark::kMillisecond);

// Three scan components chained by shared variables (x seeds y, y seeds
// z): pure ReachabilityScan pipeline, where sideways seeding prunes each
// successive scan to the frontier of the previous one.
void ScanPipeline(benchmark::State& state, Mode mode) {
  const int nodes = static_cast<int>(state.range(0));
  GraphDb g = CrossComponentGraph(nodes, /*rare=*/3);
  Query query = MustParse(
      g, "Ans(x, z) <- (x, p, y), (y, q, z), (z, r, w), c(p), ab(q), ba(r)");
  EvalOptions options;
  options.engine = Engine::kProduct;
  options.build_path_answers = false;
  options.use_components = (mode != Mode::kMonolithic);
  options.max_configs = 500000000;
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
  const char* mode_name =
      mode == Mode::kPlanned ? "planned" : "monolithic";
  RecordBenchCase("PlannerJoin_ScanPipeline/" + std::string(mode_name) + "/" +
                      std::to_string(nodes),
                  timer,
                  {{"nodes", static_cast<double>(g.num_nodes())},
                   {"edges", static_cast<double>(g.num_edges())},
                   {"answers", static_cast<double>(answers)}});
}
BENCHMARK_CAPTURE(ScanPipeline, planned, Mode::kPlanned)
    ->Arg(64)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);
// The monolithic 3-track product at 128 nodes takes tens of seconds —
// measured once at 64; the planned case still scales to 128.
BENCHMARK_CAPTURE(ScanPipeline, monolithic, Mode::kMonolithic)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

// ---- worker-lane tiers ----------------------------------------------------
//
// The planned pipeline at num_threads ∈ {1, 2, 4, 8}. threads/1 is the
// exact serial path — CI diffs its fresh median against the committed
// baseline as the serial-regression guard. Only the leaves take lanes
// (joins and semi-joins run serially at every tier), so the
// [parallel-1toN] twin-speedup lines printed at exit measure the leaves.

void RunPlannedThreads(benchmark::State& state, const std::string& case_name,
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
  RecordBenchCase(case_name + "/threads/" + std::to_string(threads), timer,
                  {{"nodes", static_cast<double>(g.num_nodes())},
                   {"edges", static_cast<double>(g.num_edges())},
                   {"threads", static_cast<double>(threads)},
                   {"answers", static_cast<double>(answers)}});
}

// cross/ — the 36-node cross-component workload: the seeded eq
// component's product searches split over lanes (one search per seed
// row), and its joins are small and serial.
void CrossThreads(benchmark::State& state) {
  GraphDb g = CrossComponentGraph(36, /*rare=*/3);
  RunPlannedThreads(state, "cross/Planned", g, kCrossQuery);
}
BENCHMARK(CrossThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// large/JoinPipeline — two single-letter scan components over the
// preferential-attachment graph of bench_parallel_scaling (2^17 nodes,
// ~1.3M edges), both binding (x, y). Each component materializes a
// ~10^5-row table (one label class of the edge set); sideways seeding is
// declined (the seed projection overflows the seed-row cap), the
// SemiJoinFilter fixpoint reduces both tables, and the streamed final
// join probes a hash index of the second table — the join pipeline end
// to end on large tables. The joins run serially; at threads/N only the
// two scans split their sources over lanes.
void LargeJoinPipeline(benchmark::State& state) {
  static const GraphDb& g = *[] {
    auto alphabet = Alphabet::FromLabels({"a", "b", "c", "d"});
    Rng rng(42);
    return new GraphDb(
        PowerLawGraph(alphabet, 1 << 17, 10 * (1 << 17), &rng));
  }();
  RunPlannedThreads(state, "large/JoinPipeline", g,
                    "Ans(x, y) <- (x, p, y), (x, q, y), a(p), b(q)");
}
BENCHMARK(LargeJoinPipeline)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// streamed/ChainJoin — a small two-table final join (1844 x 2897 scan
// rows, 7593 answers).
void StreamedChainJoin(benchmark::State& state) {
  static const GraphDb& g = *[] {
    Rng rng(7);
    return new GraphDb(RandomGraph(
        Alphabet::FromLabels({"a", "b", "c", "d"}), 700, 2100, &rng));
  }();
  RunPlannedThreads(state, "streamed/ChainJoin", g,
                    "Ans(x, y, z) <- (x, p, y), (y, q, z), a*(p), b*(q)");
}
BENCHMARK(StreamedChainJoin)->Arg(1)->Unit(benchmark::kMillisecond);

// large/FinalJoin — a two-table final join over a power-law graph (2^15
// nodes, 327,680 edges) with 196,785 answers: one large serial index
// build and probe; at threads/4 only the scans take lanes.
void LargeFinalJoin(benchmark::State& state) {
  static const GraphDb& g = *[] {
    Rng rng(42);
    return new GraphDb(PowerLawGraph(
        Alphabet::FromLabels({"a", "b", "c", "d"}), 1 << 15, 327680, &rng));
  }();
  RunPlannedThreads(state, "large/FinalJoin", g,
                    "Ans(x, y, z) <- (x, p, y), (y, q, z), a(p), b(q)");
}
BENCHMARK(LargeFinalJoin)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// repeated-heads/StarJoin — a 3-branch star over a power-law graph (2^14
// nodes, 163,840 edges, 249,886 answers) whose centre w is no head
// variable. w joins all three tables, so early projection cannot drop
// it; the final join binds it and projects it away, so a head can repeat
// and every streamed head goes through the emitter's duplicate check.
void RepeatedHeadStarJoin(benchmark::State& state) {
  static const GraphDb& g = *[] {
    Rng rng(42);
    return new GraphDb(PowerLawGraph(
        Alphabet::FromLabels({"a", "b", "c", "d"}), 1 << 14, 163840, &rng));
  }();
  RunPlannedThreads(
      state, "repeated-heads/StarJoin", g,
      "Ans(x, y, z) <- (w, p, x), (w, q, y), (w, r, z), a(p), b(q), c(r)");
}
BENCHMARK(RepeatedHeadStarJoin)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
