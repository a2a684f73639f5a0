// Figure 1(b), linear-constraint column (Theorem 8.5): CRPQs with linear
// constraints on occurrence counts have PTIME data complexity and NP
// combined complexity. Measured shapes: polynomial growth in the graph for
// a fixed constrained query, and moderate growth in the number of
// constraint rows (the NP certificate is the ILP witness). The σ-product
// family times the counting engine's data-dependent kernel alone: the
// per-assignment product construction (BuildComponentProducts) over the
// CSR GraphIndex — the end-to-end families are ILP-solve-dominated.
// Medians are written to BENCH_bench_fig1b_linear.json at exit.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/eval_product.h"
#include "graph/index.h"

namespace {

using namespace ecrpq;
using namespace ecrpq_bench;

// Fixed airline-ratio query over growing flight networks (data
// complexity).
void BM_Fig1bLinear_DataComplexity(benchmark::State& state) {
  Rng rng(17);
  int cities = static_cast<int>(state.range(0));
  GraphDb g = FlightNetwork(cities, 3 * cities, 3, {"sq", "other"}, &rng);
  Query query = MustParse(
      g,
      R"(Ans() <- ("city0", p, "city1"), occ(p, sq) - 4*occ(p, 'other') >= 0,)"
      R"( len(p) >= 1)");
  Evaluator evaluator(&g);
  uint64_t ilp_vars = 0;
  MedianTimer timer;
  for (auto _ : state) {
    timer.Begin();
    auto result = evaluator.Evaluate(query);
    timer.End();
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    ilp_vars = result.value().stats().ilp_variables;
  }
  state.counters["nodes"] = g.num_nodes();
  state.counters["ilp_vars"] = static_cast<double>(ilp_vars);
  RecordBenchCase("Fig1bLinear_DataComplexity/" + std::to_string(cities),
                  timer,
                  {{"nodes", static_cast<double>(g.num_nodes())},
                   {"edges", static_cast<double>(g.num_edges())},
                   {"ilp_vars", static_cast<double>(ilp_vars)}});
}
BENCHMARK(BM_Fig1bLinear_DataComplexity)
    ->Arg(4)
    ->Arg(8)
    ->Arg(12)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

// The counting engine's data-dependent kernel in isolation: one component
// product per node assignment σ (Thm 8.5 builds |V|^k of these). A routed
// query ('sq'-only paths) makes the relation state-set restrict the live
// letters, so the search pulls only the matching label slices. The
// "/indexed/" case-name segment is kept for trajectory continuity.
void BM_SigmaProducts(benchmark::State& state) {
  Rng rng(17);
  int cities = static_cast<int>(state.range(0));
  GraphDb g = FlightNetwork(cities, 3 * cities, 3, {"sq", "other"}, &rng);
  Query query =
      MustParse(g, R"(Ans(x, y) <- (x, p, y), 'sq'*(p), occ(p, sq) >= 1)");
  auto compiled = CompileQuery(query, g.alphabet().size());
  if (!compiled.ok()) {
    state.SkipWithError(compiled.status().ToString().c_str());
    return;
  }
  auto index = GraphIndex::Build(g);
  EvalOptions options;
  MedianTimer timer;
  int64_t states = 0;
  for (auto _ : state) {
    timer.Begin();
    states = 0;
    for (NodeId v = 0; v + 1 < g.num_nodes(); v += 3) {
      std::vector<NodeId> assignment = {v, static_cast<NodeId>(v + 1)};
      auto products = BuildComponentProducts(
          g, query, options, assignment, compiled.value(), index);
      if (!products.ok()) {
        state.SkipWithError(products.status().ToString().c_str());
        return;
      }
      for (const ComponentProductGraph& cpg : products.value()) {
        states += cpg.num_states;
      }
    }
    timer.End();
  }
  state.counters["nodes"] = g.num_nodes();
  state.counters["product_states"] = static_cast<double>(states);
  RecordBenchCase("Fig1bLinear_SigmaProducts/indexed/" + std::to_string(cities),
                  timer,
                  {{"nodes", static_cast<double>(g.num_nodes())},
                   {"edges", static_cast<double>(g.num_edges())},
                   {"product_states", static_cast<double>(states)}});
}
BENCHMARK(BM_SigmaProducts)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

// Fixed graph, growing number of linear rows (combined complexity).
void BM_Fig1bLinear_CombinedRows(benchmark::State& state) {
  Rng rng(17);
  GraphDb g = FlightNetwork(8, 24, 3, {"sq", "other"}, &rng);
  int rows = static_cast<int>(state.range(0));
  std::string text = R"(Ans() <- ("city0", p, "city1"), len(p) >= 1)";
  for (int r = 0; r < rows; ++r) {
    // Stack of compatible ratio constraints.
    text += ", occ(p, sq) - " + std::to_string(r) + "*occ(p, 'other') >= 0";
  }
  Query query = MustParse(g, text);
  Evaluator evaluator(&g);
  MedianTimer timer;
  for (auto _ : state) {
    timer.Begin();
    auto result = evaluator.Evaluate(query);
    timer.End();
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result.value().AsBool());
  }
  state.counters["rows"] = static_cast<double>(rows);
  RecordBenchCase("Fig1bLinear_CombinedRows/" + std::to_string(rows), timer,
                  {{"rows", static_cast<double>(rows)},
                   {"nodes", static_cast<double>(g.num_nodes())},
                   {"edges", static_cast<double>(g.num_edges())}});
}
BENCHMARK(BM_Fig1bLinear_CombinedRows)
    ->DenseRange(1, 4)
    ->Unit(benchmark::kMillisecond);

// Path-length constraints (the restriction closing Section 8.2): cycle
// lengths solved via flows. Growing cycle sizes.
void BM_Fig1bLinear_LengthOnCycles(benchmark::State& state) {
  auto alphabet = Alphabet::FromLabels({"a"});
  GraphDb g = CycleGraph(alphabet, static_cast<int>(state.range(0)), "a");
  Query query = MustParse(
      g, R"(Ans() <- ("c0", p, "c0"), ("c0", q, "c0"), )"
         R"(len(p) - 2*len(q) = 0, len(q) >= 1)");
  Evaluator evaluator(&g);
  MedianTimer timer;
  for (auto _ : state) {
    timer.Begin();
    auto result = evaluator.Evaluate(query);
    timer.End();
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result.value().AsBool());
  }
  state.counters["cycle"] = static_cast<double>(state.range(0));
  RecordBenchCase("Fig1bLinear_LengthOnCycles/" +
                      std::to_string(state.range(0)),
                  timer,
                  {{"cycle", static_cast<double>(state.range(0))},
                   {"nodes", static_cast<double>(g.num_nodes())},
                   {"edges", static_cast<double>(g.num_edges())}});
}
BENCHMARK(BM_Fig1bLinear_LengthOnCycles)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
