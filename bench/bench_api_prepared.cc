// The compile-once / stream-many win, quantified on the Figure 1(a)
// workload graphs: prepared re-execution (PreparedQuery::ExecuteAll)
// versus redoing the query-dependent work on every call (registry
// construction + parse + optimize + evaluate — the pre-facade call
// pattern). The gap is the amortized cost of parsing, relation-automaton
// construction, ε-elimination, and analysis; it widens with relation size
// (edit2 is a large automaton) and shrinks as the data-dependent work
// grows with |G|. ApiPrepared_ColdPrepare times that query-dependent work
// alone for the largest relation in use: one cold Prepare of edit2 over
// a 16-letter alphabet.

#include <benchmark/benchmark.h>

#include <memory>

#include "api/api.h"
#include "bench_util.h"
#include "query/optimizer.h"

namespace {

using namespace ecrpq;
using namespace ecrpq_bench;

constexpr const char* kCrpqText = "Ans(x, y) <- (x, p, y), (ab)*(p)";
constexpr const char* kEcrpqText =
    "Ans() <- (x, p, y), (x, q, z), el(p, q), a*(p), b*(q)";
constexpr const char* kEditText =
    R"(Ans() <- (x, p, y), (x, q, z), edit2(p, q), (ab)*(p))";

EvalOptions BenchOptions() {
  EvalOptions options;
  options.build_path_answers = false;
  options.max_configs = 50000000;
  return options;
}

// The pre-facade pattern: every call pays registry construction, parse,
// optimization, and compilation before evaluating.
void ParsePerCall(benchmark::State& state, const char* text,
                  const char* case_name) {
  GraphDb g = MakeLayeredGraph(static_cast<int>(state.range(0)));
  Evaluator evaluator(&g, BenchOptions());
  size_t answers = 0;
  MedianTimer timer;
  for (auto _ : state) {
    timer.Begin();
    RelationRegistry registry = RelationRegistry::Default();
    auto query = ParseQuery(text, g.alphabet(), registry);
    if (!query.ok()) {
      state.SkipWithError(query.status().ToString().c_str());
      break;
    }
    auto optimized = OptimizeQuery(query.value());
    if (!optimized.ok()) {
      state.SkipWithError(optimized.status().ToString().c_str());
      break;
    }
    auto result = evaluator.Evaluate(optimized.value().query);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    answers = result.value().tuples().size();
    timer.End();
  }
  state.counters["answers"] = static_cast<double>(answers);
  RecordBenchCase(std::string("ApiPrepared_") + case_name + "/parse-per-call/" +
                      std::to_string(state.range(0)),
                  timer, {{"nodes", static_cast<double>(g.num_nodes())},
                          {"answers", static_cast<double>(answers)}});
}

// The facade pattern: Prepare once, execute per iteration.
void PreparedReexecute(benchmark::State& state, const char* text,
                       const char* case_name) {
  DatabaseOptions options;
  options.eval = BenchOptions();
  Database db(MakeLayeredGraph(static_cast<int>(state.range(0))), options);
  auto prepared = db.Prepare(text);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  size_t answers = 0;
  MedianTimer timer;
  for (auto _ : state) {
    timer.Begin();
    auto result = prepared.value().ExecuteAll();
    timer.End();
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    answers = result.value().tuples().size();
  }
  state.counters["answers"] = static_cast<double>(answers);
  RecordBenchCase(std::string("ApiPrepared_") + case_name + "/prepared/" +
                      std::to_string(state.range(0)),
                  timer, {{"nodes", static_cast<double>(db.graph().num_nodes())},
                          {"answers", static_cast<double>(answers)}});
}

// The edit2 query of the perfbench ecrpq_batch workload on a 16-label
// grid. Each iteration prepares it on a fresh Database; the graph, its
// index and the Database are built untimed, so the timed call is parse,
// the D≤2 build over (Σ⊥)³, CompileQuery and planning. The build is not
// memoized across iterations: each Database copies the process-wide
// builtin registry, and nothing in this binary resolves edit2 through
// that registry itself.
void BM_ColdPrepare_Edit2Grid16(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  std::vector<std::string> labels;
  for (char c = 'a'; c < 'a' + 16; ++c) labels.emplace_back(1, c);
  std::string steps;
  for (int i = 0; i < 5; ++i) steps += "(a|b|c|d|e|f|g|h|i|j|k|l|m|n|o|p)";
  const std::string text = "Ans(z) <- ($s, p, y), ($s, q, z), edit2(p, q), " +
                           steps + "(p), " + steps + "(q)";
  DatabaseOptions options;
  options.eval = BenchOptions();
  MedianTimer timer;
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(1);
    auto db = std::make_unique<Database>(
        GridGraph(Alphabet::FromLabels(labels), side, side, &rng), options);
    (void)db->graph_index();
    state.ResumeTiming();
    timer.Begin();
    auto prepared = db->Prepare(text);
    timer.End();
    if (!prepared.ok()) {
      state.SkipWithError(prepared.status().ToString().c_str());
      break;
    }
    state.PauseTiming();
    db.reset();
    state.ResumeTiming();
  }
  RecordBenchCase("ApiPrepared_ColdPrepare/edit2-grid16/" +
                      std::to_string(side),
                  timer, {{"nodes", static_cast<double>(side * side)}});
}

void BM_Fig1a_CRPQ_ParsePerCall(benchmark::State& state) {
  ParsePerCall(state, kCrpqText, "CRPQ");
}
void BM_Fig1a_CRPQ_Prepared(benchmark::State& state) {
  PreparedReexecute(state, kCrpqText, "CRPQ");
}
void BM_Fig1a_ECRPQ_ParsePerCall(benchmark::State& state) {
  ParsePerCall(state, kEcrpqText, "ECRPQ");
}
void BM_Fig1a_ECRPQ_Prepared(benchmark::State& state) {
  PreparedReexecute(state, kEcrpqText, "ECRPQ");
}
void BM_Fig1a_Edit2_ParsePerCall(benchmark::State& state) {
  ParsePerCall(state, kEditText, "Edit2");
}
void BM_Fig1a_Edit2_Prepared(benchmark::State& state) {
  PreparedReexecute(state, kEditText, "Edit2");
}

BENCHMARK(BM_Fig1a_CRPQ_ParsePerCall)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Fig1a_CRPQ_Prepared)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Fig1a_ECRPQ_ParsePerCall)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Fig1a_ECRPQ_Prepared)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Fig1a_Edit2_ParsePerCall)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Fig1a_Edit2_Prepared)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ColdPrepare_Edit2Grid16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

}  // namespace
