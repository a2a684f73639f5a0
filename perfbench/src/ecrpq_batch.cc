// ecrpq_batch: a fixed, seeded batch of executions run through the
// embedded API by one caller with EvalOptions::num_threads = nproc.
//
// Why: this is the query-engine workload — it loads core (product search,
// visited tables, joins, morsel lanes), the automata/relations compile and
// the solver, and leaves the server and the WAL idle. A parallelism,
// join-stack or visited-table change should show here and nowhere else.
// Three groups, each on a graph it can finish on:
//   product  eq / el / prefix / edit-k ECRPQs anchored at named cells of a
//            16-label GridGraph (16 labels keep the two-track exploration
//            O(rows*cols); on a power-law graph an anchored eq hits any
//            deadline). Most are bounded to k steps, so their cost depends
//            on the grid's shape, not on which labels a seed drew;
//   join     3-4-atom CRPQs (chain, triangle, square) on the same grid, run
//            through the product engine so the planner turns them into
//            hash joins and semijoin reductions (kCrpq has its own joins);
//   solver   linear-constraint queries (kCounting) on a small
//            FlightNetwork and length-abstraction queries (kQlen) on a small
//            layered DAG (on a large grid a len() window already hits a 3 s
//            deadline per anchor).
//
// Checks: per-query row digests are identical at 1 and nproc lanes (the
// determinism contract), and a few small-graph queries equal kBruteForce.

#include <algorithm>
#include <memory>
#include <optional>
#include <set>

#include "common.h"
#include "graph/generators.h"
#include "query/parser.h"
#include "workloads.h"

namespace perfbench {

using namespace ecrpq;

namespace {

constexpr int kGridSide = 160;     // 25600 cells, ~76000 edges
constexpr int kAnchorBox = 8;      // grid anchors: the upper-left 8x8 cells
constexpr int kFlightCities = 6;
// The solver inputs keep a fixed topology; only their anchors come from
// the seed. The counting engine polls cancellation only on entry, and some
// random 6-city networks take over a minute for one city pair; on these
// two every city pair of the templates below takes milliseconds.
constexpr uint64_t kFlightTopology = 3;
constexpr uint64_t kLayeredTopology = 4;
constexpr int kInstances = 8;      // anchor draws per anchored template
constexpr auto kDeadline = std::chrono::seconds(10);

enum class On { kGrid, kFlight, kLayered };

struct Spec {
  const char* group;  // product / join / solver
  On graph;
  std::string text;
  std::optional<Engine> engine;
  int instances = kInstances;
};

// `k` letters of the grid's 16-label alphabet: bounds a path to exactly k
// steps, so a product search explores O(k^2) cells around its anchor
// whatever the labels are.
std::string Steps(int k) {
  std::string s;
  for (int i = 0; i < k; ++i) s += "(a|b|c|d|e|f|g|h|i|j|k|l|m|n|o|p)";
  return s;
}

// $s and $t are anchors drawn per instance: grid cells near the upper-left
// corner (so the region below and right of them is nearly the whole grid)
// or cities.
std::vector<Spec> MakeSpecs() {
  return {
      {"product", On::kGrid, "Ans(y, z) <- ($s, p, y), ($s, q, z), eq(p, q)",
       std::nullopt, kInstances / 2},
      {"product", On::kGrid,
       "Ans(y, z) <- ($s, p, y), ($s, q, z), eq(p, q), " + Steps(12) + "(p)",
       std::nullopt},
      {"product", On::kGrid,
       "Ans(y, z) <- ($s, p, y), ($s, q, z), el(p, q), " + Steps(8) + "(p)",
       std::nullopt},
      {"product", On::kGrid,
       "Ans(y, z) <- ($s, p, y), ($s, q, z), prefix(p, q), " + Steps(10) +
           "(q)",
       std::nullopt},
      {"product", On::kGrid,
       "Ans(y, z) <- ($s, p, y), ($s, q, z), edit1(p, q), " + Steps(7) +
           "(p), " + Steps(7) + "(q)",
       std::nullopt},
      {"product", On::kGrid,
       "Ans(z) <- ($s, p, y), ($s, q, z), edit2(p, q), " + Steps(5) + "(p), " +
           Steps(5) + "(q)",
       std::nullopt},
      {"join", On::kGrid,
       "Ans(x, w) <- (x, p, y), (y, q, z), (z, r, w), a(p), b(q), c(r)",
       Engine::kProduct},
      {"join", On::kGrid,
       "Ans(x, z) <- (x, p, y), (y, q, z), (x, r, z), a(p), b(q), (c|d|e|f)(r)",
       Engine::kProduct},
      {"join", On::kGrid,
       "Ans(x, w) <- (x, p, y), (x, q, z), (y, r, w), (z, u, w), a(p), b(q), "
       "c(r), d(u)",
       Engine::kProduct},
      {"solver", On::kFlight,
       "Ans() <- ($s, p, $t), occ(p, sq) - 4*occ(p, 'other') >= 0, "
       "len(p) >= 1",
       std::nullopt},
      {"solver", On::kFlight,
       "Ans(y) <- ($s, p, y), len(p) >= 2, len(p) <= 3", std::nullopt},
      {"solver", On::kLayered,
       "Ans(x, y) <- (x, p, y), (x, q, z), el(p, q), a+(p)", Engine::kQlen},
      {"solver", On::kLayered,
       "Ans(x, w) <- (x, p, y), (z, q, w), el(p, q), a(a|b)*(p), b+(q)",
       Engine::kQlen},
  };
}

// Small acyclic queries whose answers kBruteForce can enumerate exactly
// (every path in the layered DAG is shorter than its length bound).
const char* kBruteForceQueries[] = {
    "Ans(x, y) <- (x, p, y), (x, q, y), eq(p, q), (a|b)+(p)",
    "Ans(x, z) <- (x, p, y), (y, q, z), el(p, q), a+(p)",
    "Ans(x, y) <- (x, p, y), (x, q, z), prefix(p, q), b(p)",
    "Ans(x, w) <- (x, p, y), (y, q, w), a(p), (a|b)*(q)",
    "Ans(x) <- (x, p, y), len(p) >= 2, len(p) <= 3",
};

struct Item {
  int spec = 0;
  Params params;
  std::string label;  // spec index + anchors, for reports
};

struct Graphs {
  std::unique_ptr<Database> grid, flight, layered;
  Database* For(On on) const {
    switch (on) {
      case On::kGrid:
        return grid.get();
      case On::kFlight:
        return flight.get();
      case On::kLayered:
        return layered.get();
    }
    return nullptr;
  }
};

}  // namespace

void RunEcrpqBatch(const Config& cfg, Report& report) {
  Graphs graphs;
  const std::vector<Spec> specs = MakeSpecs();
  const int num_specs = static_cast<int>(specs.size());
  std::vector<PreparedQuery> prepared(num_specs);
  std::vector<double> parse_us, prepare_us;
  std::vector<Item> batch;
  double index_build_ms = 0;

  auto make_db = [&](GraphDb graph) {
    DatabaseOptions options;
    options.eval.num_threads = cfg.nproc;
    options.eval.build_path_answers = false;
    return std::make_unique<Database>(std::move(graph), options);
  };

  // ---- setup: graphs, indexes, cold prepares (relation compiles) ----------
  Span setup_span("harness.setup");
  Rng rng(cfg.seed);
  {
    Span span("graph.generate", setup_span.id());
    std::vector<std::string> labels;
    for (char c = 'a'; c < 'a' + 16; ++c) labels.emplace_back(1, c);
    graphs.grid = make_db(
        GridGraph(Alphabet::FromLabels(labels), kGridSide, kGridSide,
                  &rng));
    Rng flight_rng(kFlightTopology);
    graphs.flight = make_db(
        FlightNetwork(kFlightCities, 2 * kFlightCities, 3,
                      {"sq", "other"}, &flight_rng));
    Rng layered_rng(kLayeredTopology);
    graphs.layered = make_db(LayeredGraph(
        Alphabet::FromLabels({"a", "b"}), 6, 4, 2, &layered_rng));
  }
  {
    Span span("graph.index_build", setup_span.id());
    auto t0 = Clock::now();
    for (On on : {On::kGrid, On::kFlight, On::kLayered}) {
      (void)graphs.For(on)->graph_index();
    }
    index_build_ms = MsSince(t0, Clock::now());
  }
  for (int i = 0; i < num_specs; ++i) {
    Database* db = graphs.For(specs[i].graph);
    {
      Span span("api.prepare", setup_span.id());
      auto t0 = Clock::now();
      auto p = db->Prepare(specs[i].text);
      if (!p.ok()) {
        std::fprintf(stderr, "prepare %s: %s\n", specs[i].text.c_str(),
                     p.status().ToString().c_str());
        std::exit(2);
      }
      prepared[i] = std::move(p).value();
      prepare_us.push_back(MsSince(t0, Clock::now()) * 1e3);
    }
    Span span("query.parse", setup_span.id());
    auto t0 = Clock::now();
    (void)ParseQuery(specs[i].text, db->graph().alphabet(),
                     db->registry());
    parse_us.push_back(MsSince(t0, Clock::now()) * 1e3);
  }
  // The fixed batch: kInstances anchor draws per anchored template.
  for (int i = 0; i < num_specs; ++i) {
    const std::vector<std::string>& names =
        prepared[i].parameter_names();
    const int instances = names.empty() ? 1 : specs[i].instances;
    for (int k = 0; k < instances; ++k) {
      Item item;
      item.spec = i;
      item.label = "q" + std::to_string(i);
      for (const std::string& name : names) {
        std::string node;
        switch (specs[i].graph) {
          case On::kGrid:
            node = "g" + std::to_string(rng.Below(kAnchorBox)) + "_" +
                   std::to_string(rng.Below(kAnchorBox));
            break;
          case On::kFlight:
          case On::kLayered:  // layered templates take no anchors
            node = "city" + std::to_string(rng.Below(kFlightCities));
            break;
        }
        item.params.Set(name, node);
        item.label += " $" + name + "=" + node;
      }
      batch.push_back(std::move(item));
    }
  }
  setup_span.End();
  report.Add("setup_s", SetupSeconds(cfg), "s",
             "process start to first timed operation");
  if (cfg.setup_only) return;

  auto run_item = [&](const Item& item, int threads, uint64_t parent,
                      uint64_t request) {
    ExecuteOptions exec;
    exec.deadline = Clock::now() + kDeadline;
    exec.engine = specs[item.spec].engine;
    exec.num_threads = threads;
    return RunCursor(prepared[item.spec], item.params, exec, parent, request);
  };

  // ---- measured phase: whole passes over the batch at nproc lanes ---------
  std::vector<double> latency_ms;
  std::vector<uint64_t> digests(batch.size());
  std::vector<Execution> first_pass(batch.size());
  uint64_t executions = 0, failed = 0;
  const auto start = Clock::now();
  const auto end = start + std::chrono::seconds(cfg.seconds);
  int passes = 0;
  // Each item's time is its median over the passes, so a burst of
  // interference from outside the process (or the cold first pass) spoils
  // one pass of an item rather than the run. query_qps is the batch size
  // over the sum of those medians; query_p50_ms is their median.
  std::vector<std::vector<double>> item_ms(batch.size());
  while (Clock::now() < end || passes == 0) {
    Span pass_span("harness.batch", 0, passes + 1);
    for (size_t i = 0; i < batch.size(); ++i) {
      Execution e = run_item(batch[i], cfg.nproc, pass_span.id(), i + 1);
      ++executions;
      if (!e.status.ok()) {
        ++failed;
        std::printf("failed: %s: %s\n", batch[i].label.c_str(),
                    e.status.ToString().c_str());
      }
      latency_ms.push_back(e.total_ms);
      item_ms[i].push_back(e.total_ms);
      if (passes == 0) {
        digests[i] = DigestRows(e.rows);
        first_pass[i] = std::move(e);
      }
    }
    ++passes;
  }
  report.CountOps(executions, failed);
  std::vector<double> item_median_ms;
  double batch_ms = 0;
  for (const std::vector<double>& ms : item_ms) {
    item_median_ms.push_back(Median(ms));
    batch_ms += item_median_ms.back();
  }
  const double qps = batch.size() / (batch_ms / 1e3);
  const double p50 = Median(item_median_ms);
  const std::string over = "per-item medians over " + std::to_string(passes) +
                           " passes of " + std::to_string(batch.size()) +
                           " executions";
  report.Add("query_qps", qps, "1/s", over);
  report.Add("query_p50_ms", p50, "ms", over);
  report.AddTail("query_tail_ms", latency_ms, "ms");

  // ---- checks: 1 lane == nproc lanes; small graphs == kBruteForce ---------
  double serial_ms = 0, parallel_ms = 0;
  {
    int mismatches = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      Execution e = run_item(batch[i], 1, 0, 0);
      if (!e.status.ok() || DigestRows(e.rows) != digests[i]) ++mismatches;
      // core.lane_speedup: each item at 1 lane and then, equally warm, at
      // nproc lanes.
      if (cfg.trace && std::string(specs[batch[i].spec].group) != "solver") {
        serial_ms += e.total_ms;
        parallel_ms += run_item(batch[i], cfg.nproc, 0, 0).total_ms;
      }
    }
    report.Check(mismatches == 0,
                 std::to_string(batch.size()) +
                     " executions: row digests identical at 1 and " +
                     std::to_string(cfg.nproc) + " lanes (" +
                     std::to_string(mismatches) + " mismatches)");
  }
  {
    Rng rng(cfg.seed + 5);
    Database small(LayeredGraph(Alphabet::FromLabels({"a", "b"}), 5, 3, 2,
                                &rng));
    int mismatches = 0;
    for (const char* text : kBruteForceQueries) {
      auto q = small.Prepare(text);
      if (!q.ok()) {
        ++mismatches;
        continue;
      }
      ExecuteOptions brute;
      brute.engine = Engine::kBruteForce;
      brute.deadline = Clock::now() + kDeadline;
      Execution want = RunCursor(q.value(), {}, brute);
      ExecuteOptions automatic;
      automatic.deadline = Clock::now() + kDeadline;
      Execution got = RunCursor(q.value(), {}, automatic);
      std::set<std::vector<NodeId>> a(want.rows.begin(), want.rows.end());
      std::set<std::vector<NodeId>> b(got.rows.begin(), got.rows.end());
      if (!want.status.ok() || !got.status.ok() || a != b) ++mismatches;
    }
    report.Check(mismatches == 0,
                 "small-graph queries equal kBruteForce (" +
                     std::to_string(mismatches) + " mismatches)");
  }

  // ---- per-layer measurements (traced run only) ----------------------------
  if (cfg.trace) {
    uint64_t rows = 0, configs = 0, arcs = 0, build_rows = 0, probe_rows = 0;
    uint64_t ilp_vars = 0, ilp_constraints = 0;
    double lanes = 0;
    size_t ops = 0;
    std::vector<double> qerror, exec_setup_us, run_us, drain_us;
    for (const Execution& e : first_pass) {
      rows += e.rows.size();
      configs += ConfigsOf(e.stats);
      arcs += ArcsOf(e.stats);
      ilp_vars += e.stats.ilp_variables;
      ilp_constraints += e.stats.ilp_constraints;
      exec_setup_us.push_back(e.setup_us);
      run_us.push_back(e.run_us);
      drain_us.push_back(e.drain_us);
      for (const OperatorStats& op : e.stats.operators) {
        build_rows += op.build_rows;
        probe_rows += op.probe_rows;
        lanes += op.threads;
        ++ops;
        if (op.est_rows >= 0) {
          const double est = op.est_rows + 1, act = op.rows_out + 1.0;
          qerror.push_back(std::max(est / act, act / est));
        }
      }
    }
    report.Add("query.parse_us", Median(parse_us), "us");
    report.Add("api.prepare_cold_us", Median(prepare_us), "us");
    uint64_t hits = 0, misses = 0;
    for (On on : {On::kGrid, On::kFlight, On::kLayered}) {
      hits += graphs.For(on)->plan_cache_hits();
      misses += graphs.For(on)->plan_cache_misses();
    }
    report.Add("api.plan_cache_hit_ratio",
               hits + misses == 0 ? 0.0
                                  : static_cast<double>(hits) / (hits + misses),
               "ratio");
    report.Add("api.execute_setup_us", Median(exec_setup_us), "us");
    report.Add("core.run_us", Median(run_us), "us");
    report.Add("core.drain_us", Median(drain_us), "us");
    report.Add("core.configs_per_row",
               static_cast<double>(configs) / std::max<uint64_t>(rows, 1),
               "ratio");
    report.Add("core.arcs_explored", arcs, "count", "one pass");
    report.Add("core.join_build_rows", build_rows, "count", "one pass");
    report.Add("core.join_probe_rows", probe_rows, "count", "one pass");
    report.Add("core.lanes_mean", ops == 0 ? 0.0 : lanes / ops, "count");
    report.Add("core.qerror_p90", Percentile(qerror, 90), "ratio",
               std::to_string(qerror.size()) + " planned operators");
    report.Add("core.lane_speedup",
               parallel_ms > 0 ? serial_ms / parallel_ms : 0.0, "ratio",
               "product+join subset, 1 lane over " +
                   std::to_string(cfg.nproc));
    report.Add("solver.ilp_vars", ilp_vars, "count", "one pass");
    report.Add("solver.ilp_constraints", ilp_constraints, "count", "one pass");
    report.Add("graph.index_build_ms", index_build_ms, "ms");
    report.Add("trace.overhead_ratio",
               TraceOverheadRatio(3,
                                  [&] {
                                    Span pass_span("harness.batch");
                                    for (const Item& item : batch) {
                                      (void)run_item(item, cfg.nproc,
                                                     pass_span.id(), 0);
                                    }
                                  }),
               "ratio");
  }
}

}  // namespace perfbench
