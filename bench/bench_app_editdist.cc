// Section 4 application: approximate matching / sequence alignment.
// Measures (a) the size of the D≤k edit-distance relation automaton as k
// grows (composition construction) and (b) alignment query time over
// growing sequence pairs.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "relations/builtin.h"

namespace {

using namespace ecrpq;
using namespace ecrpq_bench;

// Args: {base size, k}. Base 4 is the DNA alphabet of the alignment cases
// below; base 16 is the alphabet of the 16-label grid workloads, where the
// tuple alphabet of the k = 2 composition has 17^3 letters.
void BM_EditDist_RelationConstruction(benchmark::State& state) {
  const int base = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  int states = 0;
  MedianTimer timer;
  for (auto _ : state) {
    timer.Begin();
    RegularRelation rel = EditDistanceAtMostRelation(base, k);
    timer.End();
    states = rel.nfa().num_states();
    benchmark::DoNotOptimize(states);
  }
  state.counters["k"] = static_cast<double>(k);
  state.counters["automaton_states"] = static_cast<double>(states);
  // Base-4 cases keep their unprefixed names from earlier baselines.
  const std::string prefix =
      base == 4 ? "" : "base" + std::to_string(base) + "/";
  RecordBenchCase("EditDist_RelationConstruction/" + prefix + std::to_string(k),
                  timer,
                  {{"base", static_cast<double>(base)},
                   {"k", static_cast<double>(k)},
                   {"states", static_cast<double>(states)}});
}
BENCHMARK(BM_EditDist_RelationConstruction)
    ->Args({4, 1})
    ->Args({4, 2})
    ->Args({4, 3})
    ->Args({16, 1})
    ->Args({16, 2})
    ->Unit(benchmark::kMillisecond);

void BM_EditDist_AlignmentQuery(benchmark::State& state) {
  auto alphabet = Alphabet::FromLabels({"a", "c", "g", "t"});
  Rng rng(31);
  const int n = static_cast<int>(state.range(0));
  Word x = RandomDna(alphabet, n, &rng);
  Word y = MutateWord(alphabet, x, 2, &rng);
  GraphDb g = TwoWordGraph(alphabet, x, y);
  RelationRegistry registry = RelationRegistry::Default();
  Query query = [&] {
    auto q = ParseQuery(
        R"(Ans() <- ("x0", p, "x)" + std::to_string(x.size()) +
            R"("), ("y0", q, "y)" + std::to_string(y.size()) +
            R"("), edit2(p, q))",
        g.alphabet(), registry);
    if (!q.ok()) std::abort();
    return std::move(q).value();
  }();
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
    benchmark::DoNotOptimize(result.value().AsBool());
  }
  state.counters["sequence_len"] = static_cast<double>(n);
  RecordBenchCase("EditDist_AlignmentQuery/" + std::to_string(n), timer,
                  {{"sequence_len", static_cast<double>(n)},
                   {"nodes", static_cast<double>(g.num_nodes())}});
}
BENCHMARK(BM_EditDist_AlignmentQuery)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

// Baseline: plain DP edit distance on the same words (what a hand-rolled
// implementation would do; the query engine pays for generality).
void BM_EditDist_DpBaseline(benchmark::State& state) {
  auto alphabet = Alphabet::FromLabels({"a", "c", "g", "t"});
  Rng rng(31);
  const int n = static_cast<int>(state.range(0));
  Word x = RandomDna(alphabet, n, &rng);
  Word y = MutateWord(alphabet, x, 2, &rng);
  MedianTimer timer;
  for (auto _ : state) {
    timer.Begin();
    benchmark::DoNotOptimize(EditDistance(x, y));
    timer.End();
  }
  state.counters["sequence_len"] = static_cast<double>(n);
  RecordBenchCase("EditDist_DpBaseline/" + std::to_string(n), timer,
                  {{"sequence_len", static_cast<double>(n)}});
}
BENCHMARK(BM_EditDist_DpBaseline)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
