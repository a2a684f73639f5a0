// Figure 1(a), combined-complexity row: evaluation time as the QUERY grows
// on a fixed graph. The paper's separations to reproduce:
//   * CRPQs: NP-complete, but chain-shaped instances scale polynomially
//   * ECRPQs: PSPACE-complete — the Theorem 6.3 REI family grows
//     exponentially with the number of intersected expressions.
// Medians are written to BENCH_bench_fig1a_combined.json at exit. The
// "/indexed/" segment of the CrpqChain and EcrpqRei case names is kept so
// the recorded trajectory stays comparable; every engine reads the CSR
// GraphIndex now.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace {

using namespace ecrpq;
using namespace ecrpq_bench;

// Chain CRPQs of growing length on a fixed graph (tractable shape). A
// layered DAG keeps the per-atom reachability relations sparse — on dense
// graphs the enumeration-join's intermediate results explode, which is the
// NP-hardness (join width) shape, shown separately below.
void BM_CrpqChain(benchmark::State& state) {
  GraphDb g = MakeLayeredGraph(48, 5);
  Query query = MustParse(g, ChainCrpq(static_cast<int>(state.range(0))));
  EvalOptions options;
  options.build_path_answers = false;
  Evaluator evaluator(&g, options);
  MedianTimer timer;
  for (auto _ : state) {
    timer.Begin();
    auto result = evaluator.Evaluate(query);
    timer.End();
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result.value().tuples().size());
  }
  state.counters["atoms"] = static_cast<double>(state.range(0));
  RecordBenchCase(
      "Fig1aCombined_CrpqChain/indexed/" + std::to_string(state.range(0)),
      timer,
      {{"atoms", static_cast<double>(state.range(0))},
       {"nodes", static_cast<double>(g.num_nodes())},
       {"edges", static_cast<double>(g.num_edges())}});
}
BENCHMARK(BM_CrpqChain)->DenseRange(1, 8)->Unit(benchmark::kMillisecond);

// The REI family (Theorem 6.3's PSPACE-hardness): intersections of m
// periodic languages via equality relations, evaluated on the universal
// word graph. Time grows exponentially with m (the joint period is
// lcm(2,3,5,...)).
void BM_EcrpqRei(benchmark::State& state) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  GraphDb g = UniversalWordGraph(alphabet);
  Query query = MustParse(g, ReiQuery(static_cast<int>(state.range(0))));
  EvalOptions options;
  options.build_path_answers = false;
  options.max_configs = 100000000;
  options.engine = Engine::kProduct;
  Evaluator evaluator(&g, options);
  uint64_t configs = 0;
  MedianTimer timer;
  for (auto _ : state) {
    timer.Begin();
    auto result = evaluator.Evaluate(query);
    timer.End();
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    configs = result.value().stats().configs_explored;
  }
  state.counters["expressions"] = static_cast<double>(state.range(0));
  state.counters["configs"] = static_cast<double>(configs);
  RecordBenchCase(
      "Fig1aCombined_EcrpqRei/indexed/" + std::to_string(state.range(0)),
      timer,
      {{"expressions", static_cast<double>(state.range(0))},
       {"nodes", static_cast<double>(g.num_nodes())},
       {"edges", static_cast<double>(g.num_edges())},
       {"configs", static_cast<double>(configs)}});
}
BENCHMARK(BM_EcrpqRei)->DenseRange(1, 4)->Unit(benchmark::kMillisecond);

// NP-hardness shape for CRPQs: clique-style join (variables fully
// connected) vs chain on the same graph — join width drives the cost.
void BM_Fig1aCombined_CrpqCliqueJoin(benchmark::State& state) {
  GraphDb g = MakeRandomGraph(14, 11);
  const int k = static_cast<int>(state.range(0));
  std::string body;
  int atom = 0;
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) {
      if (atom > 0) body += ", ";
      body += "(v" + std::to_string(i) + ", e" + std::to_string(atom) +
              ", v" + std::to_string(j) + ")";
      ++atom;
    }
  }
  for (int t = 0; t < atom; ++t) {
    body += ", .(e" + std::to_string(t) + ")";  // single-edge atoms
  }
  Query query = MustParse(g, "Ans() <- " + body);
  EvalOptions options;
  options.build_path_answers = false;
  Evaluator evaluator(&g, options);
  MedianTimer timer;
  for (auto _ : state) {
    timer.Begin();
    auto result = evaluator.Evaluate(query);
    timer.End();
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result.value().AsBool());
  }
  state.counters["clique"] = static_cast<double>(k);
  RecordBenchCase("Fig1aCombined_CrpqCliqueJoin/" + std::to_string(k), timer,
                  {{"clique", static_cast<double>(k)},
                   {"nodes", static_cast<double>(g.num_nodes())},
                   {"edges", static_cast<double>(g.num_edges())}});
}
BENCHMARK(BM_Fig1aCombined_CrpqCliqueJoin)
    ->DenseRange(2, 5)
    ->Unit(benchmark::kMillisecond);

}  // namespace
