// Theorem 6.5: acyclicity makes CRPQ combined complexity PTIME, but does
// NOT help ECRPQs (the REI family is acyclic yet PSPACE-hard). Measured
// shape: acyclic CRPQ chains scale polynomially in query size; the acyclic
// REI ECRPQ grows exponentially on the same graph.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace {

using namespace ecrpq;
using namespace ecrpq_bench;

void BM_Thm65_AcyclicCrpqChains(benchmark::State& state) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  GraphDb g = UniversalWordGraph(alphabet);
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
  RecordBenchCase("Thm65_AcyclicCrpqChains/" + std::to_string(state.range(0)),
                  timer, {{"atoms", static_cast<double>(state.range(0))}});
}
BENCHMARK(BM_Thm65_AcyclicCrpqChains)
    ->DenseRange(2, 10, 2)
    ->Unit(benchmark::kMillisecond);

// The REI ECRPQ is acyclic (its relational part is a matching), yet
// exponential: acyclicity does not rescue ECRPQs (2nd bullet of Thm 6.5).
void BM_Thm65_AcyclicEcrpqRei(benchmark::State& state) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  GraphDb g = UniversalWordGraph(alphabet);
  Query query = MustParse(g, ReiQuery(static_cast<int>(state.range(0))));
  EvalOptions options;
  options.build_path_answers = false;
  options.max_configs = 100000000;
  options.engine = Engine::kProduct;
  Evaluator evaluator(&g, options);
  MedianTimer timer;
  for (auto _ : state) {
    timer.Begin();
    auto result = evaluator.Evaluate(query);
    timer.End();
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result.value().AsBool());
  }
  state.counters["expressions"] = static_cast<double>(state.range(0));
  RecordBenchCase("Thm65_AcyclicEcrpqRei/" + std::to_string(state.range(0)),
                  timer,
                  {{"expressions", static_cast<double>(state.range(0))}});
}
BENCHMARK(BM_Thm65_AcyclicEcrpqRei)
    ->DenseRange(1, 4)
    ->Unit(benchmark::kMillisecond);

// The PTIME side on a wide acyclic star: the semijoin fixpoint and early
// projection keep the join at one row per center node x instead of one
// per combination of the five branch ends.
void BM_Thm65_AcyclicCrpqStar(benchmark::State& state) {
  GraphDb g = MakeRandomGraph(64, 3);
  const int branches = 5;
  std::string body;
  for (int i = 0; i < branches; ++i) {
    if (i > 0) body += ", ";
    body += "(x, p" + std::to_string(i) + ", y" + std::to_string(i) + ")";
  }
  for (int i = 0; i < branches; ++i) {
    body += std::string(", ") + (i % 2 ? "a*b" : "b*a") + "(p" +
            std::to_string(i) + ")";
  }
  Query query = MustParse(g, "Ans(x) <- " + body);
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
  RecordBenchCase("Thm65_AcyclicCrpqStar/" + std::to_string(branches), timer,
                  {{"branches", static_cast<double>(branches)}});
}
BENCHMARK(BM_Thm65_AcyclicCrpqStar)->Unit(benchmark::kMillisecond);

}  // namespace
