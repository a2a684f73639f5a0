// ingest_recover: one writer commits CommitDelta edge batches to a
// durable Database (fsync=interval) over a power-law graph while one
// reader polls an anchored probe query to see when each batch becomes
// visible; then the Database is closed and reopened with OpenDurable.
//
// Why: this is the write path a durable deployment lives on, and it loads
// wal and graph (delta segments, compaction, text checkpoints) while the
// query engines see only the one-hop probe. Background compaction folds
// the delta segments through GraphIndex::Build plus a full text
// checkpoint while holding the shared graph guard, and writers queue
// behind it; the first read of every new snapshot also repairs the
// snapshot's degree orders (O(nodes)) under the same guard. A median
// alone hides both stalls, so the tail is reported next to it.
//
// Two phases. Open loop (first three quarters): a commit is due every
// kPeriodMs and its latency runs from the due time, so a stall also
// charges the commits queued behind it; the probe reader runs throughout,
// and a batch's visibility delay runs from its CommitDelta call to the
// first probe read that sees it. Closed loop (last quarter): the writer
// alone commits back to back, which measures the ingest rate.
//
// Visibility probe: node "probe" has no edges at start; batch i adds the
// marker edge (probe, a, v<i>), so the probe `Ans(y) <- ($p, x, y), a(x)`
// returns exactly the number of batches visible to readers.

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "common.h"
#include "query/parser.h"
#include "wal/durable.h"
#include "wal/wal.h"
#include "wal/wal_format.h"
#include "workloads.h"

namespace perfbench {

using namespace ecrpq;

namespace {

// A quarter of bench_mutation's nodes and a third of its edges. The first
// read of each new snapshot repairs its degree orders in O(nodes): at
// bench_mutation's 524288 nodes that takes ~300 ms and caps a writer whose
// batches a reader watches at ~3 commits/s, too few per run for a tail.
constexpr int kNodes = 1 << 17;
constexpr int kEdges = 1 << 20;
constexpr int kBatch = 1000;     // edges per commit, 10% of them removals
constexpr double kPeriodMs = 100;  // open-loop commit period
constexpr int kRemoves = kBatch / 10;
constexpr int kMaxBatches = kNodes;  // one distinct marker target per batch
constexpr int kRecoveries = 3;
// Fold (and checkpoint) after 16 delta segments instead of the default
// 32, so the open-loop phase spans several compaction + checkpoint cycles.
constexpr int kCompactSegments = 16;
constexpr char kProbeQuery[] = "Ans(y) <- ($p, x, y), a(x)";

DurabilityOptions Durability() {
  DurabilityOptions durability;
  durability.fsync = FsyncPolicy::kInterval;
  return durability;
}

DatabaseOptions DbOptions() {
  DatabaseOptions options;
  options.eval.build_path_answers = false;
  options.eval.num_threads = 1;
  options.compact_max_segments = kCompactSegments;
  return options;
}

ExecuteOptions ProbeExec() {
  ExecuteOptions exec;
  exec.set_timeout(std::chrono::seconds(5));
  return exec;
}

// Newest checkpoint file of a data dir (by LSN), or "" when none.
std::string NewestCheckpoint(const std::string& dir) {
  std::string best;
  uint64_t best_lsn = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    uint64_t lsn = 0;
    std::string name = entry.path().filename().string();
    if (ParseCheckpointName(name, &lsn) && (best.empty() || lsn > best_lsn)) {
      best = entry.path().string();
      best_lsn = lsn;
    }
  }
  return best;
}

}  // namespace

void RunIngestRecover(const Config& cfg, Report& report) {
  auto alphabet =
      Alphabet::FromLabels({"a", "b", "c", "d", "e", "f", "g", "h"});
  const Symbol kMarkerLabel = 0;  // "a"
  const int num_labels = alphabet->size();
  const std::string dir = cfg.data_dir + "/ingest";
  std::unique_ptr<Database> db;
  PreparedQuery probe;
  NodeId probe_node = 0;
  double index_build_ms = 0, prepare_us = 0, parse_us = 0;

  // ---- setup: graph, OpenDurable (initial checkpoint), index, prepare ----
  RemoveTree(dir);
  Span setup_span("harness.setup");
  GraphDb graph;
  {
    Span span("graph.generate", setup_span.id());
    graph = NamedPowerLawGraph(alphabet, kNodes, kEdges, cfg.seed, "v");
    probe_node = graph.AddNode("probe");
  }
  {
    Span span("wal.open", setup_span.id());
    auto opened = Database::OpenDurable(dir, Durability(), DbOptions(),
                                        std::move(graph));
    if (!opened.ok()) {
      std::fprintf(stderr, "OpenDurable: %s\n",
                   opened.status().ToString().c_str());
      std::exit(2);
    }
    db = std::move(opened).value();
  }
  {
    Span span("graph.index_build", setup_span.id());
    auto t0 = Clock::now();
    (void)db->graph_index();  // the lazy GraphIndex::Build
    index_build_ms = MsSince(t0, Clock::now());
  }
  {
    Span span("api.prepare", setup_span.id());
    auto t0 = Clock::now();
    probe = db->Prepare(kProbeQuery).value();
    prepare_us = MsSince(t0, Clock::now()) * 1e3;
  }
  {
    Span span("query.parse", setup_span.id());
    auto t0 = Clock::now();
    (void)ParseQuery(kProbeQuery, db->graph().alphabet(),
                     db->registry());
    parse_us = MsSince(t0, Clock::now()) * 1e3;
  }
  (void)RunCursor(probe, Params().Set("p", "probe"), ProbeExec(),
                  setup_span.id());
  setup_span.End();
  report.Add("setup_s", SetupSeconds(cfg), "s",
             "process start to first timed operation");
  if (cfg.setup_only) {
    db.reset();
    RemoveTree(dir);
    return;
  }

  const WalStats wal_before = db->durable_log()->stats();
  const uint64_t builds_before = db->index_full_builds();
  const Params probe_params = Params().Set("p", "probe");

  // ---- measured phases: one writer, one probing reader ---------------------
  std::vector<std::atomic<int64_t>> call_ns(kMaxBatches);
  std::vector<double> commit_ms, visible_ms;
  std::atomic<int> visible{0};  // batches the reader has seen
  std::atomic<bool> stop_reader{false};
  uint64_t commits_failed = 0;
  uint64_t probe_reads = 0, probe_failed = 0;
  size_t segments_max = 0;
  std::vector<double> plan_us, exec_setup_us, run_us, drain_us, late_ms;
  const auto epoch = Clock::now();
  auto ns_since_epoch = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
        .count();
  };

  std::thread reader([&] {
    int seen = 0;
    while (true) {
      const bool stopping = stop_reader.load(std::memory_order_acquire);
      Span read_span("harness.probe");
      Execution e = RunCursor(probe, probe_params, ProbeExec(),
                              read_span.id(), probe_reads + 1);
      const auto done = Clock::now();
      ++probe_reads;
      if (!e.status.ok()) {
        ++probe_failed;
      } else {
        exec_setup_us.push_back(e.setup_us);
        run_us.push_back(e.run_us);
        drain_us.push_back(e.drain_us);
        const int rows = static_cast<int>(e.rows.size());
        for (int b = seen; b < rows && b < kMaxBatches; ++b) {
          visible_ms.push_back(
              (ns_since_epoch(done) -
               call_ns[b].load(std::memory_order_acquire)) /
              1e6);
        }
        seen = std::max(seen, rows);
        visible.store(seen, std::memory_order_release);
      }
      if (cfg.trace || probe_reads % 64 == 0) {
        segments_max =
            std::max(segments_max, db->graph_index()->num_delta_segments());
      }
      if (stopping) break;
    }
  });

  Rng rng(cfg.seed * 7919 + 13);
  std::vector<Edge> live;  // edges added by earlier batches, removable
  int batches = 0;
  // Commits one batch; `due` is when it was due (open loop) or called.
  auto commit = [&](Clock::time_point due) {
    std::vector<Edge> add, remove;
    add.reserve(kBatch - kRemoves);
    add.push_back({probe_node, kMarkerLabel, static_cast<NodeId>(batches)});
    while (static_cast<int>(add.size()) < kBatch - kRemoves) {
      add.push_back({static_cast<NodeId>(rng.Below(kNodes)),
                     static_cast<Symbol>(rng.Below(num_labels)),
                     static_cast<NodeId>(rng.Below(kNodes))});
    }
    for (int r = 0; r < kRemoves && !live.empty(); ++r) {
      size_t pick = rng.Below(live.size());
      remove.push_back(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
    Span commit_span("harness.commit", 0, batches + 1);
    call_ns[batches].store(ns_since_epoch(Clock::now()),
                           std::memory_order_release);
    Result<MutationSummary> committed = [&] {
      Span span("wal.commit", commit_span.id(), batches + 1);
      return db->CommitDelta(add, remove);
    }();
    const double ms = MsSince(due, Clock::now());
    if (!committed.ok()) {
      ++commits_failed;
      return -1.0;
    }
    live.insert(live.end(), add.begin() + 1, add.end());
    ++batches;
    if (cfg.trace) {
      Span span("core.plan", commit_span.id(), batches);
      auto p0 = Clock::now();
      (void)probe.plan();  // re-costed against the swapped snapshot
      plan_us.push_back(MsSince(p0, Clock::now()) * 1e3);
    }
    return ms;
  };

  // Open loop: a commit due every kPeriodMs; latency from the due time.
  const double open_s = cfg.seconds * 3.0 / 4.0;
  const auto open_start = Clock::now();
  for (int k = 0; commits_failed == 0 && batches < kMaxBatches; ++k) {
    const double due_ms = k * kPeriodMs;
    if (due_ms >= open_s * 1e3) break;
    const auto due = open_start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double, std::milli>(
                                          due_ms));
    std::this_thread::sleep_until(due);
    late_ms.push_back(MsSince(due, Clock::now()));
    const double ms = commit(due);
    if (ms >= 0) commit_ms.push_back(ms);
  }
  const int open_batches = batches;

  // Every acked batch must become visible to the probe.
  const auto wait_until = Clock::now() + std::chrono::seconds(10);
  while (visible.load(std::memory_order_acquire) < open_batches &&
         Clock::now() < wait_until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop_reader.store(true, std::memory_order_release);
  reader.join();
  report.Check(visible.load() >= open_batches && commits_failed == 0,
               "all " + std::to_string(open_batches) +
                   " acked batches visible to the probe (" +
                   std::to_string(visible.load()) + " seen)");

  // Closed loop, writer alone: the ingest rate, as the median over blocks
  // of kCompactSegments commits. Each block spans one compaction cycle, so
  // every block pays for one fold and one checkpoint, and a burst of
  // interference from outside the process spoils one block, not the run.
  const auto closed_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(cfg.seconds - open_s));
  std::vector<double> block_rates;
  while ((Clock::now() < closed_end || block_rates.empty()) &&
         commits_failed == 0 && batches + kCompactSegments <= kMaxBatches) {
    const auto block_start = Clock::now();
    int committed = 0;
    for (int k = 0; k < kCompactSegments; ++k) {
      if (commit(Clock::now()) >= 0) ++committed;
    }
    block_rates.push_back(committed * kBatch /
                          (MsSince(block_start, Clock::now()) / 1e3));
  }
  const double ingest_rate = Median(block_rates);
  report.CountOps(batches + commits_failed + probe_reads,
                  commits_failed + probe_failed);

  report.AddMedian("write_p50_ms", commit_ms, "ms");
  report.AddTail("write_tail_ms", commit_ms, "ms");
  report.AddMedian("write_visible_p50_ms", visible_ms, "ms");
  report.Add("ingest_edges_per_s", ingest_rate, "1/s",
             "median of " + std::to_string(block_rates.size()) +
                 " blocks of " + std::to_string(kCompactSegments) +
                 " back-to-back batches of " + std::to_string(kBatch) +
                 " edges");

  const WalStats wal_after = db->durable_log()->stats();
  const uint64_t compactions = wal_after.checkpoints - wal_before.checkpoints;
  const uint64_t full_builds = db->index_full_builds() - builds_before;
  const uint64_t edges_committed = static_cast<uint64_t>(batches) * kBatch;
  report.Add("write_max_ms", Percentile(commit_ms, 100), "ms",
             std::to_string(compactions) + " compactions in the run");

  // ---- per-layer measurements (traced run only) ----------------------------
  if (cfg.trace) {
    report.Add("query.parse_us", parse_us, "us");
    report.Add("api.prepare_cold_us", prepare_us, "us");
    report.Add("loadgen.late_p99_ms", Percentile(late_ms, 99), "ms");
    report.Add("core.plan_us", Median(plan_us), "us");
    report.Add("api.execute_setup_us", Median(exec_setup_us), "us");
    report.Add("core.run_us", Median(run_us), "us");
    report.Add("core.drain_us", Median(drain_us), "us");
    report.Add("graph.index_build_ms", index_build_ms, "ms");
    report.Add("graph.full_builds", full_builds, "count");
    report.Add("graph.compactions", compactions, "count");
    report.Add("graph.delta_segments_max", segments_max, "count");
    {
      Span span("graph.compact");
      auto t0 = Clock::now();
      db->CompactIndexNow();
      report.Add("graph.compact_ms", MsSince(t0, Clock::now()), "ms");
    }
    report.Add("wal.bytes_per_edge",
               static_cast<double>(wal_after.appended_bytes -
                                   wal_before.appended_bytes) /
                   edges_committed,
               "B");
    report.Add("wal.syncs_per_commit",
               static_cast<double>(wal_after.syncs - wal_before.syncs) /
                   std::max(batches, 1),
               "ratio");
    report.Add("wal.checkpoints", compactions, "count");
    report.Add("trace.overhead_ratio",
               TraceOverheadRatio(5,
                                  [&] {
                                    for (int i = 0; i < 500; ++i) {
                                      Span read_span("harness.probe");
                                      (void)RunCursor(probe, probe_params,
                                                      ProbeExec(),
                                                      read_span.id());
                                    }
                                  }),
               "ratio");
  }

  // ---- close and recover ---------------------------------------------------
  const int pre_edges = db->graph().num_edges();
  const uint64_t pre_lsn = db->applied_lsn();
  db.reset();
  const std::string checkpoint = NewestCheckpoint(dir);
  if (cfg.trace && !checkpoint.empty()) {
    std::ifstream in(checkpoint, std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    const std::string text = bytes.str();
    report.Add("wal.checkpoint_bytes_per_edge",
               static_cast<double>(text.size()) / pre_edges, "B");
    Span span("wal.decode_checkpoint");
    auto t0 = Clock::now();
    auto decoded = DecodeCheckpoint(text);
    report.Add("wal.checkpoint_decode_s", MsSince(t0, Clock::now()) / 1e3,
               "s");
    report.Check(decoded.ok(), "newest checkpoint decodes");
  }
  std::vector<double> recovery_s;
  uint64_t replayed = 0;
  for (int r = 0; r < kRecoveries; ++r) {
    WalRecoveryInfo info;
    Span span("wal.recover");
    auto t0 = Clock::now();
    auto reopened = Database::OpenDurable(dir, Durability(), DbOptions(),
                                          GraphDb(), &info);
    recovery_s.push_back(MsSince(t0, Clock::now()) / 1e3);
    span.End();
    const bool ok = reopened.ok() &&
                    reopened.value()->graph().num_edges() == pre_edges &&
                    reopened.value()->applied_lsn() == pre_lsn;
    report.Check(ok, "recovery " + std::to_string(r + 1) + " matches " +
                         std::to_string(pre_edges) + " edges at lsn " +
                         std::to_string(pre_lsn));
    replayed = info.replayed;
  }
  report.Add("recovery_s", Median(recovery_s), "s",
             "median of " + std::to_string(kRecoveries) + " reopens");
  if (cfg.trace) report.Add("wal.replayed_records", replayed, "count");
  RemoveTree(dir);
}

}  // namespace perfbench
