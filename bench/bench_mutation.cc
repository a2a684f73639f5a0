// Delta-batched index maintenance: write-batch-to-first-read cost of the
// segmented snapshot chain (GraphIndex::ApplyDelta) against a
// from-scratch rebuild (GraphIndex::Build) on a 3M-edge power-law graph,
// and the read-throughput tax of delta overlays before and after
// compaction. Twin pairs measured by the bench itself:
//
//   .../delta/...   vs .../rebuild/...   delta-vs-rebuild — the O(delta)
//                                        write path against the O(V+E)
//                                        one; CI's smoke gate requires
//                                        >= 10x on the 1000-edge batch
//   .../compacted   vs .../fresh         compacted-vs-fresh — reads on a
//                                        CompactIndexNow()-folded index
//                                        against a fresh Build of the
//                                        same graph; must be ~1.0x
//
// Case families:
//
//   IndexWriteToRead/{delta,rebuild}/batch/N
//       pure index level: base snapshot + N-edge batch (10% removals)
//       -> queryable snapshot -> probe every written row. The rebuild
//       twin times GraphIndex::Build on an identically mutated graph.
//   DbWriteToRead/{delta,rebuild}/batch/1000
//       end-to-end through Database: ApplyDelta (snapshot-swap protocol,
//       plan-cache bookkeeping) against MutateGraph, which materialises
//       a scratch GraphDb from the snapshot and rebuilds it in full.
//   DurableWriteToRead/{always,interval,never}/batch/1000
//       the same 1000-edge CommitDelta through the write-ahead log at
//       each fsync policy — the durability tax over DbWriteToRead/delta
//       (fsync=interval must stay within 2x of the non-durable path).
//   ReadThroughput/{fresh,compacted,chain/32}
//       200k row probes against a fresh-built index, a compacted one,
//       and a 32-segment delta chain (the overlay-directory tax).
//   GraphLoad
//       a 131k-node named seed graph through AddNode, AddEdges,
//       GraphIndex::Build and TakeAdjacency, with the VmRSS it leaves.
//   Checkpoint/{encode,decode}, DurableReopen
//       the full-graph checkpoint every compaction and MutateGraph
//       publishes: encoding the 3M-edge graph from its snapshot, decoding
//       the image into base columns, and Database::OpenDurable on a data
//       dir holding it (recovery time, sealing the snapshot included).

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "api/api.h"
#include "bench_util.h"
#include "graph/generators.h"
#include "graph/index.h"
#include "wal/durable.h"
#include "wal/wal.h"
#include "wal/wal_format.h"

namespace {

using namespace ecrpq;
using namespace ecrpq_bench;

constexpr int kNodes = 1 << 19;        // 524288
constexpr int kEdges = 3'000'000;
constexpr int kLabels = 8;

const GraphDb& BaseGraph() {
  static const GraphDb& g = *[] {
    auto alphabet =
        Alphabet::FromLabels({"a", "b", "c", "d", "e", "f", "g", "h"});
    Rng rng(42);
    return new GraphDb(PowerLawGraph(alphabet, kNodes, kEdges, &rng));
  }();
  return g;
}

const GraphIndexPtr& BaseIndex() {
  static GraphIndexPtr index = GraphIndex::Build(BaseGraph());
  return index;
}

struct Batch {
  std::vector<Edge> add;
  std::vector<Edge> remove;
};

// `size` edges, 90% adds / 10% removals. Removals are distinct edges
// sampled from `g`'s live adjacency, so the batch satisfies the Delta
// contract (every removed edge present exactly once per listing).
Batch MakeBatch(const GraphIndex& g, int size, uint64_t seed) {
  Rng rng(seed);
  Batch b;
  const int removes = size / 10;
  for (int i = removes; i < size; ++i) {
    b.add.push_back({static_cast<NodeId>(rng.Below(g.num_nodes())),
                     static_cast<Symbol>(rng.Below(kLabels)),
                     static_cast<NodeId>(rng.Below(g.num_nodes()))});
  }
  std::unordered_set<uint64_t> picked;
  for (int i = 0; i < removes; ++i) {
    for (int tries = 0; tries < 64; ++tries) {
      NodeId v = static_cast<NodeId>(rng.Below(g.num_nodes()));
      if (g.out_degree(v) == 0) continue;
      const size_t k = rng.Below(g.out_degree(v));
      const Symbol label = g.OutLabels(v)[k];
      const NodeId to = g.OutTargets(v)[k];
      uint64_t key = (static_cast<uint64_t>(v) << 35) |
                     (static_cast<uint64_t>(label) << 32) |
                     static_cast<uint64_t>(to);
      if (!picked.insert(key).second) continue;
      b.remove.push_back({v, label, to});
      break;
    }
  }
  return b;
}

GraphDb MutatedCopy(const GraphDb& g, const Batch& b) {
  GraphDb mutated = g;
  for (const Edge& e : b.add) mutated.AddEdge(e.from, e.label, e.to);
  for (const Edge& e : b.remove) mutated.RemoveEdge(e.from, e.label, e.to);
  return mutated;
}

// The "first read": probe the row of every written edge on the new
// snapshot — the moment a reader first benefits from the batch.
size_t ProbeBatch(const GraphIndex& index, const Batch& b) {
  size_t sum = 0;
  for (const Edge& e : b.add) sum += index.Out(e.from, e.label).size();
  for (const Edge& e : b.remove) sum += index.Out(e.from, e.label).size();
  return sum;
}

BenchProps GraphProps(const GraphDb& g, int batch) {
  return {{"nodes", static_cast<double>(g.num_nodes())},
          {"edges", static_cast<double>(g.num_edges())},
          {"batch", static_cast<double>(batch)}};
}

// ---- GraphLoad: the builder every seed graph goes through ------------------

// Resident set size of this process, in MB.
double VmRssMb() {
  long pages = 0, resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) * sysconf(_SC_PAGESIZE) / (1 << 20);
}

// A seed graph of serve_rpq's size loaded the way a Database takes it:
// 131,072 named nodes, 393,216 power-law edges through AddEdges, then
// GraphIndex::Build and TakeAdjacency, which leaves the catalog. Prop
// rss_live_mb: VmRSS growth over the process before the first load, with
// the catalog and snapshot of the last load live. Registered first so
// that a full run measures it before any other case has grown the heap.
void GraphLoad(benchmark::State& state) {
  constexpr int kLoadNodes = 1 << 17;
  constexpr int kLoadEdges = 3 * kLoadNodes;
  auto alphabet = Alphabet::FromLabels({"a", "b", "c", "d"});
  std::vector<Edge> edges;
  {
    Rng rng(7);
    const GraphDb source =
        PowerLawGraph(alphabet, kLoadNodes, kLoadEdges, &rng);
    edges.reserve(source.num_edges());
    for (NodeId v = 0; v < source.num_nodes(); ++v) {
      for (const auto& [label, to] : source.Out(v)) {
        edges.push_back({v, label, to});
      }
    }
  }
  std::vector<std::string> names;
  for (int i = 0; i < kLoadNodes; ++i) {
    names.push_back(std::to_string(i));
    names.back().insert(0, 1, 'v');
  }
  const double rss_before = VmRssMb();
  double rss_live = 0;
  MedianTimer timer;
  for (auto _ : state) {
    timer.Begin();
    GraphDb g(alphabet);
    for (const std::string& name : names) g.AddNode(name);
    g.AddEdges(edges);
    GraphIndexPtr index = GraphIndex::Build(g);
    g.TakeAdjacency();
    timer.End();
    rss_live = VmRssMb();
    benchmark::DoNotOptimize(index.get());
  }
  RecordBenchCase("GraphLoad", timer,
                  {{"nodes", static_cast<double>(kLoadNodes)},
                   {"edges", static_cast<double>(edges.size())},
                   {"rss_live_mb", rss_live - rss_before}});
}
BENCHMARK(GraphLoad)->Unit(benchmark::kMillisecond);

// ---- IndexWriteToRead: pure GraphIndex level ------------------------------

void IndexDeltaWriteToRead(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const GraphDb& g = BaseGraph();
  const GraphIndexPtr& base = BaseIndex();
  Batch b = MakeBatch(*base, batch, /*seed=*/7);
  GraphIndex::Delta delta;
  delta.added = b.add;
  delta.removed = b.remove;
  delta.new_num_nodes = g.num_nodes();
  delta.new_num_labels = kLabels;
  delta.new_version = base->version() + 1;
  MedianTimer timer;
  size_t touched = 0;
  for (auto _ : state) {
    timer.Begin();
    GraphIndexPtr snap = base->ApplyDelta(delta);
    size_t sum = ProbeBatch(*snap, b);
    timer.End();
    benchmark::DoNotOptimize(sum);
    touched = snap->delta_nodes();
  }
  state.counters["touched_nodes"] = static_cast<double>(touched);
  RecordBenchCase("IndexWriteToRead/delta/batch/" + std::to_string(batch),
                  timer, GraphProps(g, batch));
}
BENCHMARK(IndexDeltaWriteToRead)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void IndexRebuildWriteToRead(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const GraphDb& g = BaseGraph();
  Batch b = MakeBatch(*BaseIndex(), batch, /*seed=*/7);
  GraphDb mutated = MutatedCopy(g, b);  // batch applied outside the timer
  MedianTimer timer;
  for (auto _ : state) {
    timer.Begin();
    GraphIndexPtr snap = GraphIndex::Build(mutated);
    size_t sum = ProbeBatch(*snap, b);
    timer.End();
    benchmark::DoNotOptimize(sum);
  }
  RecordBenchCase("IndexWriteToRead/rebuild/batch/" + std::to_string(batch),
                  timer, GraphProps(mutated, batch));
}
BENCHMARK(IndexRebuildWriteToRead)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// ---- DbWriteToRead: end-to-end through Database ---------------------------

DatabaseOptions BenchDbOptions() {
  DatabaseOptions options;
  // Compaction off for the measurement window: the bench measures the
  // per-batch write path, not the (amortized, threshold-driven) fold.
  options.background_compaction = false;
  options.compact_delta_fraction = 1.0;
  options.compact_max_segments = 1 << 20;
  options.eval.build_path_answers = false;
  return options;
}

void DbDeltaWriteToRead(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  Database db(BaseGraph(), BenchDbOptions());
  (void)db.graph_index();  // seed the snapshot the deltas advance
  uint64_t seed = 1000;
  MedianTimer timer;
  for (auto _ : state) {
    Batch b = MakeBatch(*db.graph_index(), batch, seed++);
    timer.Begin();
    MutationSummary summary = db.ApplyDelta(b.add, b.remove);
    GraphIndexPtr snap = db.graph_index();
    size_t sum = ProbeBatch(*snap, b);
    timer.End();
    benchmark::DoNotOptimize(sum);
    if (!summary.delta_applied) {
      state.SkipWithError("delta path not taken");
      return;
    }
  }
  RecordBenchCase("DbWriteToRead/delta/batch/" + std::to_string(batch),
                  timer, GraphProps(db.graph(), batch));
}
BENCHMARK(DbDeltaWriteToRead)->Arg(1000)->Unit(benchmark::kMillisecond);

void DbRebuildWriteToRead(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  Database db(BaseGraph(), BenchDbOptions());
  (void)db.graph_index();
  uint64_t seed = 1000;  // same batch stream as the delta twin
  MedianTimer timer;
  for (auto _ : state) {
    Batch b = MakeBatch(*db.graph_index(), batch, seed++);
    timer.Begin();
    db.MutateGraph([&](GraphDb& g) {
      for (const Edge& e : b.add) g.AddEdge(e.from, e.label, e.to);
      for (const Edge& e : b.remove) g.RemoveEdge(e.from, e.label, e.to);
    });
    GraphIndexPtr snap = db.graph_index();  // built inside MutateGraph
    size_t sum = ProbeBatch(*snap, b);
    timer.End();
    benchmark::DoNotOptimize(sum);
  }
  RecordBenchCase("DbWriteToRead/rebuild/batch/" + std::to_string(batch),
                  timer, GraphProps(db.graph(), batch));
}
BENCHMARK(DbRebuildWriteToRead)->Arg(1000)->Unit(benchmark::kMillisecond);

// ---- DurableWriteToRead: the WAL tax per fsync policy ----------------------

// Same batch stream and first-read probe as DbWriteToRead/delta, but
// every batch goes through CommitDelta on a durable Database: WAL
// append (+ fsync per policy) ahead of the in-memory apply. The
// one-time OpenDurable cost (initial 3M-edge checkpoint) stays outside
// the timer.
void DurableWriteToRead(benchmark::State& state, FsyncPolicy policy,
                        const char* policy_name) {
  const int batch = static_cast<int>(state.range(0));
  char tmpl[] = "/tmp/ecrpq-bench-wal-XXXXXX";
  char* dir = mkdtemp(tmpl);
  if (dir == nullptr) {
    state.SkipWithError("mkdtemp failed");
    return;
  }
  DurabilityOptions durability;
  durability.fsync = policy;
  auto opened =
      Database::OpenDurable(dir, durability, BenchDbOptions(), BaseGraph());
  if (!opened.ok()) {
    state.SkipWithError(opened.status().ToString().c_str());
    return;
  }
  Database& db = *opened.value();
  (void)db.graph_index();
  uint64_t seed = 1000;  // same stream as the non-durable twin
  MedianTimer timer;
  for (auto _ : state) {
    Batch b = MakeBatch(*db.graph_index(), batch, seed++);
    timer.Begin();
    auto summary = db.CommitDelta(b.add, b.remove);
    GraphIndexPtr snap = db.graph_index();
    size_t sum = ProbeBatch(*snap, b);
    timer.End();
    benchmark::DoNotOptimize(sum);
    if (!summary.ok()) {
      state.SkipWithError(summary.status().ToString().c_str());
      break;
    }
  }
  RecordBenchCase("DurableWriteToRead/" + std::string(policy_name) +
                      "/batch/" + std::to_string(batch),
                  timer, GraphProps(db.graph(), batch));
  opened.value().reset();  // release the flock before the dir goes away
  std::string cmd = "rm -rf '" + std::string(dir) + "'";
  [[maybe_unused]] int rc = std::system(cmd.c_str());
}

void DurableAlwaysWriteToRead(benchmark::State& state) {
  DurableWriteToRead(state, FsyncPolicy::kAlways, "always");
}
BENCHMARK(DurableAlwaysWriteToRead)->Arg(1000)->Unit(benchmark::kMillisecond);

void DurableIntervalWriteToRead(benchmark::State& state) {
  DurableWriteToRead(state, FsyncPolicy::kInterval, "interval");
}
BENCHMARK(DurableIntervalWriteToRead)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void DurableNeverWriteToRead(benchmark::State& state) {
  DurableWriteToRead(state, FsyncPolicy::kNever, "never");
}
BENCHMARK(DurableNeverWriteToRead)->Arg(1000)->Unit(benchmark::kMillisecond);

// ---- Checkpoint codec and recovery time -----------------------------------

BenchProps CheckpointProps(const GraphDb& g, size_t image_bytes) {
  return {{"nodes", static_cast<double>(g.num_nodes())},
          {"edges", static_cast<double>(g.num_edges())},
          {"bytes", static_cast<double>(image_bytes)}};
}

void CheckpointEncode(benchmark::State& state) {
  const GraphDb& g = BaseGraph();
  const GraphIndex& snapshot = *BaseIndex();
  size_t bytes = 0;
  MedianTimer timer;
  for (auto _ : state) {
    timer.Begin();
    std::string image = EncodeCheckpoint(g, snapshot);
    timer.End();
    bytes = image.size();
    benchmark::DoNotOptimize(image.data());
  }
  state.counters["bytes_per_edge"] =
      static_cast<double>(bytes) / g.num_edges();
  RecordBenchCase("Checkpoint/encode", timer, CheckpointProps(g, bytes));
}
BENCHMARK(CheckpointEncode)->Unit(benchmark::kMillisecond);

void CheckpointDecode(benchmark::State& state) {
  const GraphDb& g = BaseGraph();
  const std::string image = EncodeCheckpoint(g, *BaseIndex());
  MedianTimer timer;
  for (auto _ : state) {
    timer.Begin();
    auto decoded = DecodeCheckpoint(image);
    timer.End();
    if (!decoded.ok() ||
        decoded.value().catalog.num_edges() != g.num_edges()) {
      state.SkipWithError("checkpoint did not round-trip");
      return;
    }
  }
  RecordBenchCase("Checkpoint/decode", timer,
                  CheckpointProps(g, image.size()));
}
BENCHMARK(CheckpointDecode)->Unit(benchmark::kMillisecond);

// Reopens a data dir whose newest checkpoint holds the base graph (no
// log tail): flock, checkpoint read + decode into base columns, the
// in-side inversion that seals the snapshot, empty WAL scan. The
// Database teardown stays outside the timer.
void DurableReopen(benchmark::State& state) {
  char tmpl[] = "/tmp/ecrpq-bench-reopen-XXXXXX";
  char* dir = mkdtemp(tmpl);
  if (dir == nullptr) {
    state.SkipWithError("mkdtemp failed");
    return;
  }
  DurabilityOptions durability;
  Status seeded =
      Database::OpenDurable(dir, durability, BenchDbOptions(), BaseGraph())
          .status();
  MedianTimer timer;
  for (auto _ : state) {
    if (!seeded.ok()) {
      state.SkipWithError(seeded.ToString().c_str());
      break;
    }
    timer.Begin();
    auto reopened =
        Database::OpenDurable(dir, durability, BenchDbOptions(), GraphDb());
    timer.End();
    if (!reopened.ok() ||
        reopened.value()->graph().num_edges() != BaseGraph().num_edges()) {
      state.SkipWithError("reopen did not recover the base graph");
      break;
    }
  }
  const GraphDb& g = BaseGraph();
  RecordBenchCase("DurableReopen", timer,
                  {{"nodes", static_cast<double>(g.num_nodes())},
                   {"edges", static_cast<double>(g.num_edges())}});
  std::string cmd = "rm -rf '" + std::string(dir) + "'";
  [[maybe_unused]] int rc = std::system(cmd.c_str());
}
BENCHMARK(DurableReopen)->Unit(benchmark::kMillisecond);

// ---- ReadThroughput: overlay tax and compaction ---------------------------

constexpr int kChain = 32;
constexpr int kChainBatch = 1000;
constexpr int kProbes = 200000;

// The base graph plus kChain batches of kChainBatch edges (the chain
// workload), built once and shared by the three read cases.
struct ChainFixture {
  GraphDb mutated;
  GraphIndexPtr chained;    // kChain delta segments over BaseIndex()
  GraphIndexPtr fresh;      // GraphIndex::Build(mutated)
  GraphIndexPtr compacted;  // Database::CompactIndexNow() product
  std::vector<std::pair<NodeId, Symbol>> probes;
};

const ChainFixture& Chain() {
  static const ChainFixture& fixture = *[] {
    auto* f = new ChainFixture;
    f->mutated = BaseGraph();
    GraphIndexPtr snap = BaseIndex();
    Database db(BaseGraph(), BenchDbOptions());
    (void)db.graph_index();
    for (int i = 0; i < kChain; ++i) {
      Batch b = MakeBatch(*snap, kChainBatch, /*seed=*/9000 + i);
      for (const Edge& e : b.add) f->mutated.AddEdge(e.from, e.label, e.to);
      for (const Edge& e : b.remove) {
        f->mutated.RemoveEdge(e.from, e.label, e.to);
      }
      GraphIndex::Delta delta;
      delta.added = b.add;
      delta.removed = b.remove;
      delta.new_num_nodes = f->mutated.num_nodes();
      delta.new_num_labels = kLabels;
      delta.new_version = snap->version() + 1;
      snap = snap->ApplyDelta(delta);
      db.ApplyDelta(b.add, b.remove);
    }
    f->chained = snap;
    f->fresh = GraphIndex::Build(f->mutated);
    db.CompactIndexNow();
    f->compacted = db.graph_index();
    Rng rng(99);
    f->probes.reserve(kProbes);
    for (int i = 0; i < kProbes; ++i) {
      f->probes.emplace_back(
          static_cast<NodeId>(rng.Below(f->mutated.num_nodes())),
          static_cast<Symbol>(rng.Below(kLabels)));
    }
    return f;
  }();
  return fixture;
}

void RunReadThroughput(benchmark::State& state, const char* case_name,
                       const GraphIndex& index) {
  const ChainFixture& f = Chain();
  MedianTimer timer;
  for (auto _ : state) {
    timer.Begin();
    size_t sum = 0;
    for (const auto& [node, label] : f.probes) {
      for (NodeId to : index.Out(node, label)) {
        sum += static_cast<size_t>(to);
      }
    }
    timer.End();
    benchmark::DoNotOptimize(sum);
  }
  state.counters["segments"] =
      static_cast<double>(index.num_delta_segments());
  RecordBenchCase(case_name, timer,
                  {{"nodes", static_cast<double>(f.mutated.num_nodes())},
                   {"edges", static_cast<double>(f.mutated.num_edges())},
                   {"probes", static_cast<double>(kProbes)},
                   {"segments",
                    static_cast<double>(index.num_delta_segments())}});
}

void ReadThroughputFresh(benchmark::State& state) {
  RunReadThroughput(state, "ReadThroughput/fresh", *Chain().fresh);
}
BENCHMARK(ReadThroughputFresh)->Unit(benchmark::kMillisecond);

void ReadThroughputCompacted(benchmark::State& state) {
  RunReadThroughput(state, "ReadThroughput/compacted", *Chain().compacted);
}
BENCHMARK(ReadThroughputCompacted)->Unit(benchmark::kMillisecond);

void ReadThroughputChain(benchmark::State& state) {
  RunReadThroughput(state, "ReadThroughput/chain/32", *Chain().chained);
}
BENCHMARK(ReadThroughputChain)->Unit(benchmark::kMillisecond);

}  // namespace
