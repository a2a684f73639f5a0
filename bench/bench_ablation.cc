// Engine ablations for the design choices DESIGN.md calls out:
//   1. synchronization-component decomposition on vs off (E-ablate);
//   2. the CRPQ fast path (the all-scan plan) on a 2-atom CRPQ;
//   3. on-the-fly product (never materializing A_Q) vs materializing the
//      joined relation automaton first (Lemma 6.4's exponential object).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/eval_product.h"
#include "relations/builtin.h"

namespace {

using namespace ecrpq;
using namespace ecrpq_bench;

// An el-pair + a free atom: decomposition evaluates two small products
// instead of one three-track product.
void BM_Ablation_ComponentDecomposition(benchmark::State& state) {
  GraphDb g = MakeRandomGraph(4, 3);
  Query query = MustParse(
      g, "Ans() <- (a, p, b), (c, q, d), el(p, q), (e, r, f), a*b(r)");
  EvalOptions options;
  options.build_path_answers = false;
  options.max_configs = 100000000;
  options.use_components = (state.range(0) == 1);
  uint64_t configs = 0;
  MedianTimer timer;
  for (auto _ : state) {
    timer.Begin();
    auto result = EvaluateProduct(g, query, options);
    timer.End();
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    configs = result.value().stats().configs_explored;
  }
  state.SetLabel(state.range(0) == 1 ? "components-on" : "components-off");
  state.counters["configs"] = static_cast<double>(configs);
  RecordBenchCase(std::string("Ablation_ComponentDecomposition/") +
                      (state.range(0) == 1 ? "on" : "off"),
                  timer,
                  {{"configs", static_cast<double>(configs)},
                   {"nodes", static_cast<double>(g.num_nodes())}});
}
BENCHMARK(BM_Ablation_ComponentDecomposition)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

// The CRPQ fast path on a 2-atom CRPQ: kAuto plans it as the all-scan
// plan (one ReachabilityScan per atom). The case name keeps its history
// in BENCH_bench_ablation.json.
void BM_Ablation_CrpqFastPath(benchmark::State& state) {
  GraphDb g = MakeRandomGraph(static_cast<int>(state.range(0)), 5);
  Query query = MustParse(
      g, "Ans(x, z) <- (x, p, y), (y, q, z), a*b(p), b*a(q)");
  EvalOptions options;
  options.build_path_answers = false;
  options.max_configs = 100000000;
  Evaluator evaluator(&g, options);
  MedianTimer timer;
  for (auto _ : state) {
    timer.Begin();
    auto result = evaluator.Evaluate(query);
    timer.End();
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result.value().tuples().size());
  }
  state.counters["nodes"] = static_cast<double>(state.range(0));
  RecordBenchCase("Ablation_CrpqVsProduct/crpq/" +
                      std::to_string(state.range(0)),
                  timer,
                  {{"nodes", static_cast<double>(state.range(0))},
                   {"edges", static_cast<double>(g.num_edges())}});
}
BENCHMARK(BM_Ablation_CrpqFastPath)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

// Materializing the joined relation automaton A_Q (Lemma 6.4: exponential
// in the number of relations) vs the on-the-fly search that never builds
// it. We materialize by explicitly joining the relations via
// cylindrification and count the states.
void BM_Ablation_MaterializedJoinedRelation(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  int states = 0;
  int transitions = 0;
  MedianTimer timer;
  for (auto _ : state) {
    timer.Begin();
    RegularRelation joined = UniversalRelation(2, m);
    for (int i = 0; i + 1 < m; ++i) {
      auto lifted =
          EqualLengthRelation(2).Cylindrify(m, {i, i + 1}).ValueOrDie();
      joined = RegularRelation::Intersect(joined, lifted).ValueOrDie();
    }
    states = joined.nfa().num_states();
    transitions = joined.nfa().num_transitions();
    timer.End();
    benchmark::DoNotOptimize(transitions);
  }
  state.counters["tracks"] = static_cast<double>(m);
  state.counters["A_Q_states"] = static_cast<double>(states);
  // The blowup (Lemma 6.4) lives in the tuple alphabet: transitions grow
  // as |Σ|^m even when the state count stays small.
  state.counters["A_Q_transitions"] = static_cast<double>(transitions);
  RecordBenchCase("Ablation_MaterializedAQ/" + std::to_string(m), timer,
                  {{"tracks", static_cast<double>(m)},
                   {"states", static_cast<double>(states)},
                   {"transitions", static_cast<double>(transitions)}});
}
BENCHMARK(BM_Ablation_MaterializedJoinedRelation)
    ->DenseRange(2, 5)
    ->Unit(benchmark::kMillisecond);

}  // namespace
