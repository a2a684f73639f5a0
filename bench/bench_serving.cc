// The serving subsystem under load, over real loopback sockets: an
// in-process ecrpq-serverd instance driven by hundreds of client
// threads while a writer races MutateGraph against the result cache.
//
// Five cases:
//
//   ServingMixed      200+ concurrent client connections, each running a
//                     burst of executes against one shared prepared
//                     query, racing a MutateGraph writer that swaps the
//                     snapshot (and with it invalidates the cache) every
//                     few milliseconds. Records sustained QPS and the
//                     server-side p50/p99 execute latency, plus the
//                     measured cache hit/miss split.
//   ServingExecute    cached-vs-nocache twin pair on one connection: the
//                     same execute with the snapshot-keyed result cache
//                     eligible vs. explicitly bypassed. The exit-time
//                     twin line measures the cache win instead of
//                     asserting it.
//   ServingExecute/large  one hub-anchored reachability read of about
//                     6k rows with the cache bypassed, every page
//                     fetched: the rows path from engine leaf through
//                     rendering to ROWS/FETCH frames.
//   ServingDeadline   a burn query (minutes of search, zero answers)
//                     with a 100 ms wire deadline; the median is the
//                     observed cancellation latency over the wire.
//   ServingOverload   a 64-client synchronized burst into a server with
//                     2 execute slots and a 2-deep queue: measures the
//                     explicit OVERLOADED shed path (shed replies are
//                     answered from the I/O thread without costing an
//                     executor).

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "bench_util.h"
#include "server/client.h"
#include "server/server.h"

namespace {

using namespace ecrpq;
using namespace ecrpq_bench;

GraphDb Chain(int n) {
  GraphDb g;
  NodeId prev = g.AddNode("v0");
  for (int i = 1; i < n; ++i) {
    NodeId next = g.AddNode("v" + std::to_string(i));
    g.AddEdge(prev, "a", next);
    prev = next;
  }
  return g;
}

// All ordered pairs on the chain: n*(n-1)/2 rows per execute.
constexpr char kPairsQuery[] = "Ans(x, y) <- (x, p, y), 'a'+(p)";

// Zero answers behind minutes of counting-engine search on a 2000-chain;
// cancellable within milliseconds (the calibrated slow query of
// server_test).
constexpr char kBurnQuery[] = "Ans() <- (x, p, y), len(p) >= 2100";

// 55 rows behind ~1.5 s of counting-engine search on a 150-chain: the
// compute-heavy/small-result shape where the result cache matters (the
// pairs query above is wire-dominated, so it would hide the cache win
// behind serialization cost).
constexpr char kGapQuery[] = "Ans(x, y) <- (x, p, y), len(p) >= 140";

struct BenchServer {
  BenchServer(int chain, ServingOptions options) : db(Chain(chain)) {
    options.port = 0;
    server = std::make_unique<Server>(&db, options);
    Status status = server->Start();
    if (!status.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   status.ToString().c_str());
      std::abort();
    }
  }
  ~BenchServer() { server->Stop(); }

  Database db;
  std::unique_ptr<Server> server;
};

// ---- sustained mixed load ---------------------------------------------------

// `clients` OS threads, each with its own connection, each running
// kOpsPerClient executes while one writer appends edges through
// MutateGraph every few milliseconds. QPS counts completed executes
// (shed replies are retried and not counted); p50/p99 come from the
// server's own receipt-to-reply histogram.
void ServingMixed(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  constexpr int kOpsPerClient = 6;

  ServingOptions options;
  options.executor_threads = 8;
  options.max_in_flight = 16;
  options.max_queue = 4 * clients;  // admit the whole herd; shed is a
                                    // separate case below
  options.cache_max_rows = 1 << 16;  // the pairs result (11175 rows) must
                                     // be cacheable for hits to happen
  BenchServer bs(150, options);

  MedianTimer timer;
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> retried{0};
  std::atomic<int> failures{0};
  for (auto _ : state) {
    std::atomic<bool> stop_writer{false};
    std::thread writer([&] {
      Client w;
      if (!w.Connect("127.0.0.1", bs.server->port()).ok()) return;
      int round = 0;
      while (!stop_writer.load(std::memory_order_relaxed)) {
        std::string fresh = "w" + std::to_string(round++);
        if (!w.Mutate({{{"v0", "a", fresh}}}, nullptr, nullptr).ok()) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });

    timer.Begin();
    std::vector<std::thread> herd;
    herd.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      herd.emplace_back([&] {
        Client client;
        if (!client.Connect("127.0.0.1", bs.server->port()).ok()) {
          failures.fetch_add(1);
          return;
        }
        uint32_t stmt_id = 0;
        if (!client.Prepare(kPairsQuery, &stmt_id).ok()) {
          failures.fetch_add(1);
          return;
        }
        Client::ExecuteSpec spec;
        spec.page_size = 65536;  // whole result in the first page
        for (int op = 0; op < kOpsPerClient;) {
          Client::RowsPage page;
          Status status = client.Execute(stmt_id, spec, &page);
          if (status.ok()) {
            completed.fetch_add(1, std::memory_order_relaxed);
            ++op;
          } else if (status.code() == StatusCode::kResourceExhausted) {
            retried.fetch_add(1, std::memory_order_relaxed);  // shed: retry
          } else {
            failures.fetch_add(1);
            return;
          }
        }
      });
    }
    for (std::thread& t : herd) t.join();
    timer.End();
    stop_writer.store(true);
    writer.join();
  }
  if (failures.load() > 0) {
    state.SkipWithError("client thread failed");
    return;
  }
  const ServerStats& stats = bs.server->stats();
  const double elapsed_s = timer.MedianNs() / 1e9;
  const double qps =
      elapsed_s > 0 ? (clients * kOpsPerClient) / elapsed_s : 0.0;
  state.counters["qps"] = qps;
  state.counters["p99_us"] = stats.execute_latency.PercentileNs(99) / 1e3;
  RecordBenchCase(
      "ServingMixed/clients/" + std::to_string(clients), timer,
      {{"clients", static_cast<double>(clients)},
       {"ops_per_client", static_cast<double>(kOpsPerClient)},
       {"qps", qps},
       {"p50_us", stats.execute_latency.PercentileNs(50) / 1e3},
       {"p99_us", stats.execute_latency.PercentileNs(99) / 1e3},
       {"cache_hits", static_cast<double>(bs.server->cache().hits())},
       {"cache_misses", static_cast<double>(bs.server->cache().misses())},
       {"mutations", static_cast<double>(stats.mutations.load())},
       {"shed_retries", static_cast<double>(retried.load())}});
}
BENCHMARK(ServingMixed)
    ->Arg(200)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// ---- cache hit vs bypass twins ----------------------------------------------

void ServingExecute(benchmark::State& state, bool bypass_cache) {
  ServingOptions options;
  BenchServer bs(150, options);
  Client client;
  if (!client.Connect("127.0.0.1", bs.server->port()).ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  uint32_t stmt_id = 0;
  if (!client.Prepare(kGapQuery, &stmt_id).ok()) {
    state.SkipWithError("prepare failed");
    return;
  }
  Client::ExecuteSpec spec;
  spec.page_size = 65536;
  spec.bypass_cache = bypass_cache;
  Client::RowsPage page;
  // Warm: populates the cache for the cached twin; for the bypass twin
  // it only warms the plan cache, keeping the twins one-variable apart.
  if (!client.Execute(stmt_id, spec, &page).ok()) {
    state.SkipWithError("warm execute failed");
    return;
  }
  MedianTimer timer;
  size_t rows = 0;
  for (auto _ : state) {
    timer.Begin();
    Status status = client.Execute(stmt_id, spec, &page);
    timer.End();
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    rows = page.rows.size();
    benchmark::DoNotOptimize(rows);
  }
  const char* mode = bypass_cache ? "nocache" : "cached";
  RecordBenchCase(std::string("ServingExecute/") + mode, timer,
                  {{"rows", static_cast<double>(rows)},
                   {"cache_hits",
                    static_cast<double>(bs.server->cache().hits())},
                   {"bypass", bypass_cache ? 1.0 : 0.0}});
}

void ServingExecuteCached(benchmark::State& state) {
  ServingExecute(state, /*bypass_cache=*/false);
}
BENCHMARK(ServingExecuteCached)
    ->Iterations(30)
    ->Unit(benchmark::kMillisecond);

void ServingExecuteNocache(benchmark::State& state) {
  ServingExecute(state, /*bypass_cache=*/true);
}
BENCHMARK(ServingExecuteNocache)
    ->Iterations(5)  // each bypassed run pays the full ~1.5 s search
    ->Unit(benchmark::kMillisecond);

// ---- a large result, paged ---------------------------------------------------

// A named random graph over {a, b} with 3 edges per node: (a|b)+ from v0
// reaches most of it.
GraphDb NamedRandomGraph(int nodes) {
  const GraphDb random = MakeRandomGraph(nodes);
  GraphDb g(random.alphabet_ptr());
  for (int v = 0; v < nodes; ++v) g.AddNode("v" + std::to_string(v));
  for (NodeId v = 0; v < nodes; ++v) {
    for (const auto& [label, to] : random.Out(v)) g.AddEdge(v, label, to);
  }
  return g;
}

void ServingExecuteLarge(benchmark::State& state) {
  Database db(NamedRandomGraph(6144));
  ServingOptions options;
  options.port = 0;
  Server server(&db, options);
  Client client;
  if (!server.Start().ok() ||
      !client.Connect("127.0.0.1", server.port()).ok()) {
    state.SkipWithError("server start or connect failed");
    return;
  }
  uint32_t stmt_id = 0;
  if (!client.Prepare(R"(Ans(y) <- ("v0", p, y), (a|b)+(p))", &stmt_id)
           .ok()) {
    state.SkipWithError("prepare failed");
    return;
  }
  Client::ExecuteSpec spec;
  spec.bypass_cache = true;
  MedianTimer timer;
  size_t rows = 0, pages = 0;
  for (auto _ : state) {
    Client::RowsPage page;
    timer.Begin();
    Status status = client.Execute(stmt_id, spec, &page);
    rows = page.rows.size();
    pages = 1;
    while (status.ok() && !page.done) {
      status = client.Fetch(page.cursor_id, 0, &page);
      rows += page.rows.size();
      ++pages;
    }
    timer.End();
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
  }
  server.Stop();
  RecordBenchCase("ServingExecute/large", timer,
                  {{"rows", static_cast<double>(rows)},
                   {"pages", static_cast<double>(pages)}});
}
BENCHMARK(ServingExecuteLarge)
    ->Iterations(40)
    ->Unit(benchmark::kMillisecond);

// ---- deadline cancellation latency ------------------------------------------

// The burn query would search for minutes; the 100 ms wire deadline must
// cut it down to roughly the deadline plus the engine's token-polling
// granularity. The median IS the observed cancellation latency.
void ServingDeadline(benchmark::State& state) {
  const int deadline_ms = static_cast<int>(state.range(0));
  ServingOptions options;
  BenchServer bs(2000, options);
  Client client;
  if (!client.Connect("127.0.0.1", bs.server->port()).ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  uint32_t stmt_id = 0;
  if (!client.Prepare(kBurnQuery, &stmt_id).ok()) {
    state.SkipWithError("prepare failed");
    return;
  }
  Client::ExecuteSpec spec;
  spec.deadline_ms = static_cast<uint32_t>(deadline_ms);
  spec.bypass_cache = true;
  MedianTimer timer;
  for (auto _ : state) {
    Client::RowsPage page;
    timer.Begin();
    Status status = client.Execute(stmt_id, spec, &page);
    timer.End();
    if (status.code() != StatusCode::kCancelled) {
      state.SkipWithError("deadline did not cancel the execute");
      return;
    }
  }
  RecordBenchCase("ServingDeadline/deadline_ms/" + std::to_string(deadline_ms),
                  timer,
                  {{"deadline_ms", static_cast<double>(deadline_ms)},
                   {"deadline_cancels",
                    static_cast<double>(
                        bs.server->stats().executes_deadline.load())}});
}
BENCHMARK(ServingDeadline)
    ->Arg(100)
    ->Iterations(5)
    ->Unit(benchmark::kMillisecond);

// ---- overload shedding ------------------------------------------------------

// 64 clients fire one uncached execute each into 2 slots + 2 queue
// places. Most of the burst must come back OVERLOADED (explicitly, never
// silently dropped), and the whole burst resolves fast because shed
// replies never wait for an executor.
void ServingOverload(benchmark::State& state) {
  const int burst = static_cast<int>(state.range(0));
  ServingOptions options;
  options.executor_threads = 2;
  options.max_in_flight = 2;
  options.max_queue = 2;
  BenchServer bs(150, options);

  MedianTimer timer;
  std::atomic<uint64_t> ok{0}, shed{0};
  std::atomic<int> failures{0};
  for (auto _ : state) {
    timer.Begin();
    std::vector<std::thread> herd;
    herd.reserve(burst);
    for (int c = 0; c < burst; ++c) {
      herd.emplace_back([&] {
        Client client;
        uint32_t stmt_id = 0;
        if (!client.Connect("127.0.0.1", bs.server->port()).ok() ||
            !client.Prepare(kPairsQuery, &stmt_id).ok()) {
          failures.fetch_add(1);
          return;
        }
        Client::ExecuteSpec spec;
        spec.page_size = 65536;
        spec.bypass_cache = true;
        Client::RowsPage page;
        Status status = client.Execute(stmt_id, spec, &page);
        if (status.ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
        } else if (status.code() == StatusCode::kResourceExhausted) {
          shed.fetch_add(1, std::memory_order_relaxed);
        } else {
          failures.fetch_add(1);
        }
      });
    }
    for (std::thread& t : herd) t.join();
    timer.End();
  }
  if (failures.load() > 0) {
    state.SkipWithError("client thread failed");
    return;
  }
  state.counters["shed"] = static_cast<double>(shed.load());
  RecordBenchCase(
      "ServingOverload/burst/" + std::to_string(burst), timer,
      {{"burst", static_cast<double>(burst)},
       {"ok", static_cast<double>(ok.load())},
       {"shed", static_cast<double>(shed.load())},
       {"rejected",
        static_cast<double>(bs.server->admission().total_rejected())}});
}
BENCHMARK(ServingOverload)
    ->Arg(64)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
