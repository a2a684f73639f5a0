// serve_rpq: open-loop client traffic over loopback into an in-process
// Server sitting on a durable Database (fsync=interval).
//
// Why: this is the client-facing path — framing, admission, the result
// cache, plan-cache hits, parameter binding, kCrpq scans and the delta
// overlay. Reads are EXECUTEs of prepared anchored RPQ / 2-atom CRPQ
// templates instantiated from PathForge's AQ1-AQ28 patterns; writes are
// small MUTATE batches that swap the snapshot (invalidating cached results
// and re-costing plans). Anchors are drawn Zipf over nodes ranked by
// out-degree, so hot keys repeat while the distinct (template, anchor)
// keys outnumber the result cache's 1024 entries; hub-anchored (a|b)*
// results exceed the 1024-row page, so FETCH paging runs. The product
// engine and the ILP solver are not used here.
//
// Load, over nproc (<= 4) connections: one carries the writes at a fixed
// 10/s (5% of the requests at the middle read rate), the others share
// the reads. Five open-loop phases replay a seeded Poisson read schedule
// at fixed rates: a connection sends a read when it is due or, if still
// busy, as soon as it is free, and every latency is timed from the due
// time, so a stall also charges the reads queued behind it. A last,
// closed-loop phase keeps every read connection busy and measures the
// saturation read throughput.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <thread>

#include "common.h"
#include "query/parser.h"
#include "server/client.h"
#include "server/server.h"
#include "wal/durable.h"
#include "workloads.h"

namespace perfbench {

using namespace ecrpq;

namespace {

constexpr int kNodes = 1 << 17;  // 131072 named nodes
constexpr int kEdges = 3 * kNodes;
constexpr double kZipfS = 1.0;
constexpr double kWritesPerSecond = 10;
constexpr int kMutateEdges = 8;
constexpr uint32_t kDeadlineMs = 5000;
// Open-loop read rates (reads/s). Latency metrics come from the middle
// one; max_qps_slo is the highest one whose read tail meets kSloTailMs
// with every read sent before the phase ends plus a second (no growing
// backlog).
// With the uniform template mix the two recursive (a|b) templates take
// ~15 ms each against ~0.2 ms for the rest, so the server saturates near
// 1000 reads/s; the steps bracket that.
constexpr std::array<double, 5> kRates = {50, 100, 200, 400, 800};
constexpr double kSloTailMs = 100;
constexpr int kCheckSamples = 48;
// Phases are cut into this many windows by due (or completion) time; the
// p50 and the saturation rate are medians over the windows, so a burst of
// interference from outside the process spoils a window, not the run.
constexpr int kWindows = 8;

struct Template {
  const char* aq;    // PathForge abstract query it instantiates
  const char* text;  // anchored at $s
};

// Single-atom templates are AQ patterns over {a,b,c,d}; the 2-atom ones
// join two AQ patterns on a shared node variable (kCrpq hash join).
constexpr Template kTemplates[] = {
    {"AQ1", "Ans(y) <- ($s, p, y), ab(p)"},
    {"AQ2", "Ans(y) <- ($s, p, y), abc(p)"},
    {"AQ4", "Ans(y) <- ($s, p, y), a(b|c)(p)"},
    {"AQ7", "Ans(y) <- ($s, p, y), (a|b)(p)"},
    {"AQ8", "Ans(y) <- ($s, p, y), (ab|c)(p)"},
    {"AQ10", "Ans(y) <- ($s, p, y), (a+|b)(p)"},
    {"AQ22", "Ans(y) <- ($s, p, y), a+b(p)"},
    {"AQ24", "Ans(y) <- ($s, p, y), ab+(p)"},
    {"AQ25", "Ans(y) <- ($s, p, y), ab*(p)"},
    {"AQ27", "Ans(y) <- ($s, p, y), a+(p)"},
    {"AQ18", "Ans(y) <- ($s, p, y), (a|b)+(p)"},
    {"AQ20", "Ans(y) <- ($s, p, y), (a|b)*(p)"},
    {"AQ1xAQ12", "Ans(y, z) <- ($s, p, y), ($s, q, z), ab(p), (c|d)(q)"},
    {"AQ27xAQ7", "Ans(y) <- ($s, p, y), ($s, q, y), a+(p), (a|b)(q)"},
};
constexpr int kNumTemplates = sizeof(kTemplates) / sizeof(kTemplates[0]);

struct Read {
  double due_s = 0;  // offset from the phase start
  int tmpl = 0;
  std::string anchor;
};

struct Outcome {
  bool sent = false;
  bool ok = false;
  double latency_ms = 0;  // due -> last page
  double first_ms = 0;    // due -> first page
  double late_ms = 0;     // due -> sent
};

// Templates are drawn uniformly (PathForge gives no frequencies), in
// seeded shuffled blocks that hold every template once. The two recursive
// (a|b) templates cost ~70x the others, so with independent draws their
// binomial share of a window would set the window's throughput.
class TemplateDeck {
 public:
  int Next(Rng& rng) {
    if (pos_ == kNumTemplates) {
      for (int i = kNumTemplates - 1; i > 0; --i) {
        std::swap(order_[i], order_[rng.Below(i + 1)]);
      }
      pos_ = 0;
    }
    return order_[pos_++];
  }

 private:
  std::array<int, kNumTemplates> order_ = [] {
    std::array<int, kNumTemplates> order;
    for (int i = 0; i < kNumTemplates; ++i) order[i] = i;
    return order;
  }();
  int pos_ = kNumTemplates;
};

Read MakeRead(Rng& rng, TemplateDeck& deck, const Zipf& zipf,
              const std::vector<NodeId>& ranked) {
  Read r;
  r.tmpl = deck.Next(rng);
  r.anchor = "v" + std::to_string(ranked[zipf.Sample(rng)]);
  return r;
}

// Poisson arrivals at `rate` over `seconds` (open loop).
std::vector<Read> MakeSchedule(double rate, double seconds, Rng& rng,
                               const Zipf& zipf,
                               const std::vector<NodeId>& ranked) {
  std::vector<Read> schedule;
  TemplateDeck deck;
  double t = 0;
  for (;;) {
    double u = (static_cast<double>(rng.Next() >> 11) + 1.0) * 0x1.0p-53;
    t += -std::log(u) / rate;
    if (t >= seconds) break;
    Read r = MakeRead(rng, deck, zipf, ranked);
    r.due_s = t;
    schedule.push_back(std::move(r));
  }
  return schedule;
}

// Reads every page of one execute; fills `rows` when non-null.
Status ReadAll(Client& client, uint32_t stmt, const Client::ExecuteSpec& spec,
               Outcome* out, Clock::time_point due,
               std::set<std::string>* rows, uint64_t parent, uint64_t request) {
  Client::RowsPage page;
  auto collect = [&] {
    if (rows == nullptr) return;
    for (const auto& row : page.rows) {
      std::string key;
      for (const std::string& v : row) key += v + ",";
      rows->insert(key);
    }
  };
  {
    Span span("server.execute", parent, request);
    ECRPQ_RETURN_IF_ERROR(client.Execute(stmt, spec, &page));
  }
  out->first_ms = MsSince(due, Clock::now());
  collect();
  const uint64_t cursor = page.cursor_id;
  while (cursor != 0 && !page.done) {
    Span span("server.fetch", parent, request);
    ECRPQ_RETURN_IF_ERROR(client.Fetch(cursor, 0, &page));
    collect();
  }
  out->latency_ms = MsSince(due, Clock::now());
  return Status::OK();
}

struct Connection {
  Client client;
  std::vector<uint32_t> stmts;  // per template
};

Clock::time_point At(Clock::time_point start, double offset_s) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(offset_s));
}

}  // namespace

void RunServeRpq(const Config& cfg, Report& report) {
  auto alphabet = Alphabet::FromLabels({"a", "b", "c", "d"});
  const std::string dir = cfg.data_dir + "/serve";
  const int connections = std::max(2, cfg.nproc);  // 1 writer + readers
  std::unique_ptr<Database> db;
  std::unique_ptr<Server> server;
  std::vector<std::unique_ptr<Connection>> conns;
  std::vector<NodeId> ranked;
  std::vector<PreparedQuery> embedded(kNumTemplates);
  std::vector<double> parse_us, prepare_us;
  double index_build_ms = 0;

  const std::vector<int> cpus = AllowedCpus();
  const size_t half = std::max<size_t>(cpus.size() / 2, 1);
  const std::vector<int> server_cpus(cpus.begin(), cpus.begin() + half);
  const std::vector<int> client_cpus(
      cpus.size() > 1 ? cpus.begin() + half : cpus.begin(), cpus.end());
  auto teardown = [&] {
    PinThisThread(cpus);
    conns.clear();
    if (server) server->Stop();
    server.reset();
    db.reset();
    RemoveTree(dir);
  };
  // ---- setup: named graph, OpenDurable, index, server, prepares ----------
  RemoveTree(dir);
  Span setup_span("harness.setup");
  GraphDb graph;
  {
    Span span("graph.generate", setup_span.id());
    graph = NamedPowerLawGraph(alphabet, kNodes, kEdges, cfg.seed, "v");
    ranked = RankByOutDegree(graph);
  }
  {
    Span span("wal.open", setup_span.id());
    DurabilityOptions durability;
    durability.fsync = FsyncPolicy::kInterval;
    DatabaseOptions options;
    options.eval.build_path_answers = false;
    auto opened = Database::OpenDurable(dir, durability, options,
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
    (void)db->graph_index();
    index_build_ms = MsSince(t0, Clock::now());
  }
  for (int i = 0; i < kNumTemplates; ++i) {
    {
      Span span("api.prepare", setup_span.id());
      auto t0 = Clock::now();
      embedded[i] = db->Prepare(kTemplates[i].text).value();
      prepare_us.push_back(MsSince(t0, Clock::now()) * 1e3);
    }
    Span span("query.parse", setup_span.id());
    auto t0 = Clock::now();
    (void)ParseQuery(kTemplates[i].text, db->graph().alphabet(),
                     db->registry());
    parse_us.push_back(MsSince(t0, Clock::now()) * 1e3);
  }
  ServingOptions serving;
  serving.executor_threads = cfg.nproc;
  serving.query_threads = 1;
  server = std::make_unique<Server>(db.get(), serving);
  // The server's threads (inheriting this thread's mask) run on one
  // half of the CPUs and the load generator on the other, so client
  // work never steals server time and wakeups stay on stable CPUs:
  // unpinned, run-to-run spread of the latencies doubles.
  PinThisThread(server_cpus);
  const bool started = server->Start().ok();
  PinThisThread(client_cpus);
  if (!started) {
    std::fprintf(stderr, "server start failed\n");
    std::exit(2);
  }
  for (int c = 0; c < connections; ++c) {
    auto conn = std::make_unique<Connection>();
    Span span("server.connect", setup_span.id());
    if (!conn->client.Connect("127.0.0.1", server->port()).ok()) {
      std::fprintf(stderr, "connect failed\n");
      std::exit(2);
    }
    for (const Template& t : kTemplates) {
      uint32_t id = 0;
      if (!conn->client.Prepare(t.text, &id).ok()) std::exit(2);
      conn->stmts.push_back(id);
    }
    conns.push_back(std::move(conn));
  }
  // Warm-up: every template once per connection, from the top hub.
  Client::ExecuteSpec spec;
  spec.deadline_ms = kDeadlineMs;
  spec.params = {{"s", "v" + std::to_string(ranked[0])}};
  for (auto& conn : conns) {
    for (int i = 0; i < kNumTemplates; ++i) {
      Outcome o;
      (void)ReadAll(conn->client, conn->stmts[i], spec, &o, Clock::now(),
                    nullptr, setup_span.id(), 0);
    }
  }
  setup_span.End();
  report.Add("setup_s", SetupSeconds(cfg), "s",
             "process start to first timed operation");
  if (cfg.setup_only) {
    teardown();
    return;
  }

  const Zipf zipf(ranked.size(), kZipfS);
  Rng rng(cfg.seed * 31337 + 7);
  const WalStats wal_before = db->durable_log()->stats();
  const uint64_t builds_before = db->index_full_builds();
  const double phase_s = cfg.seconds / (kRates.size() + 1.0);

  uint64_t attempted = 0, failed = 0, writes_ok = 0;
  std::vector<double> mutate_us, plan_us;
  size_t segments_max = 0;
  std::set<std::string> distinct_keys;
  uint64_t request_id = 0;

  // The writer connection: one MUTATE every 1/kWritesPerSecond from the
  // phase start, open loop, until `stop` is set after the phase.
  auto writer = [&](Clock::time_point start, std::atomic<bool>* stop,
                    Rng* write_rng) {
    Connection& conn = *conns[0];
    for (int k = 0;; ++k) {
      const auto due = At(start, k / kWritesPerSecond);
      std::this_thread::sleep_until(due);
      if (stop->load(std::memory_order_acquire)) return;
      std::vector<std::array<std::string, 3>> edges;
      for (int e = 0; e < kMutateEdges; ++e) {
        edges.push_back({"v" + std::to_string(write_rng->Below(kNodes)),
                         std::string(1, "abcd"[write_rng->Below(4)]),
                         "v" + std::to_string(write_rng->Below(kNodes))});
      }
      Span request_span("harness.write", 0, ++request_id);
      const auto sent = Clock::now();
      Status st;
      {
        Span span("server.mutate", request_span.id(), request_id);
        st = conn.client.Mutate(edges, nullptr, nullptr);
      }
      mutate_us.push_back(MsSince(sent, Clock::now()) * 1e3);
      ++attempted;
      if (st.ok()) {
        ++writes_ok;
      } else {
        ++failed;
      }
      if (cfg.trace) {
        Span span("core.plan", request_span.id(), request_id);
        auto p0 = Clock::now();
        (void)embedded[0].plan();  // re-cost after the snapshot swap
        plan_us.push_back(MsSince(p0, Clock::now()) * 1e3);
        segments_max =
            std::max(segments_max, db->graph_index()->num_delta_segments());
      }
    }
  };

  // ---- open-loop phases -----------------------------------------------------
  double max_qps = 0;
  std::vector<double> mid_reads, mid_late, mid_window_p50, mid_window_first;
  for (size_t s = 0; s < kRates.size(); ++s) {
    const std::vector<Read> schedule =
        MakeSchedule(kRates[s], phase_s, rng, zipf, ranked);
    for (const Read& r : schedule) {
      distinct_keys.insert(std::to_string(r.tmpl) + r.anchor);
    }
    std::vector<Outcome> outcomes(schedule.size());
    std::atomic<size_t> next{0};
    std::atomic<bool> stop_writer{false};
    Rng write_rng(cfg.seed * 7 + s);
    const auto start = Clock::now();
    const auto give_up = At(start, phase_s + 1.0);
    std::thread write_thread(writer, start, &stop_writer, &write_rng);
    std::vector<std::thread> readers;
    const uint64_t base_id = 1000000 * (s + 1);  // writer ids stay below
    for (int c = 1; c < connections; ++c) {
      readers.emplace_back([&, c] {
        Connection& conn = *conns[c];
        for (;;) {
          const size_t i = next.fetch_add(1);
          if (i >= schedule.size()) return;
          const Read& r = schedule[i];
          const auto due = At(start, r.due_s);
          std::this_thread::sleep_until(due);
          const auto sent = Clock::now();
          if (sent > give_up) continue;  // backlog: left unsent
          Outcome& o = outcomes[i];
          o.sent = true;
          o.late_ms = MsSince(due, sent);
          Span request_span("harness.read", 0, base_id + i);
          Client::ExecuteSpec spec;
          spec.deadline_ms = kDeadlineMs;
          spec.params = {{"s", r.anchor}};
          o.ok = ReadAll(conn.client, conn.stmts[r.tmpl], spec, &o, due,
                         nullptr, request_span.id(), base_id + i)
                     .ok();
        }
      });
    }
    for (std::thread& t : readers) t.join();
    stop_writer.store(true, std::memory_order_release);
    write_thread.join();

    std::vector<double> reads, late;
    std::vector<std::vector<double>> windows(kWindows), first_windows(kWindows);
    size_t unsent = 0;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const Outcome& o = outcomes[i];
      if (!o.sent) {
        ++unsent;
        continue;
      }
      const int w = std::min(kWindows - 1,
                             static_cast<int>(schedule[i].due_s / phase_s *
                                              kWindows));
      windows[w].push_back(o.ok ? o.latency_ms : 1e9);
      first_windows[w].push_back(o.ok ? o.first_ms : 1e9);
      ++attempted;
      if (!o.ok) ++failed;
      late.push_back(o.late_ms);
      // A failed read counts as missing the latency limit.
      reads.push_back(o.ok ? o.latency_ms : 1e9);
    }
    const Tail tail = TailOf(reads);
    const bool meets = unsent == 0 && tail.value <= kSloTailMs;
    std::printf("phase %.0f reads/s: %zu reads, p50 %.3f ms, tail %.3f ms "
                "(p%.2f), late p99 %.3f ms, unsent %zu -> %s\n",
                kRates[s], reads.size(), Median(reads), tail.value,
                tail.percentile, Percentile(late, 99), unsent,
                meets ? "meets limit" : "misses limit");
    if (meets) max_qps = kRates[s];
    if (s == kRates.size() / 2) {
      for (int w = 0; w < kWindows; ++w) {
        if (windows[w].empty()) continue;
        mid_window_p50.push_back(Median(windows[w]));
        mid_window_first.push_back(Median(first_windows[w]));
      }
      mid_reads = reads;
      mid_late = late;
    }
  }

  // ---- closed-loop saturation phase -----------------------------------------
  // Every read connection sends fresh seeded reads back to back; the rate
  // is the median over kWindows windows of the phase.
  double saturation_qps = 0;
  {
    std::atomic<uint64_t> sat_attempted{0}, sat_failed{0};
    std::vector<std::atomic<uint64_t>> completed(kWindows);
    std::atomic<bool> stop_writer{false};
    Rng write_rng(cfg.seed * 7 + kRates.size());
    const auto start = Clock::now();
    const auto end = At(start, phase_s);
    std::thread write_thread(writer, start, &stop_writer, &write_rng);
    std::vector<std::thread> readers;
    for (int c = 1; c < connections; ++c) {
      readers.emplace_back([&, c] {
        Connection& conn = *conns[c];
        Rng read_rng(cfg.seed * 13 + c);
        TemplateDeck deck;
        while (Clock::now() < end) {
          const Read r = MakeRead(read_rng, deck, zipf, ranked);
          Client::ExecuteSpec spec;
          spec.deadline_ms = kDeadlineMs;
          spec.params = {{"s", r.anchor}};
          Outcome o;
          Span request_span("harness.read");
          const bool ok = ReadAll(conn.client, conn.stmts[r.tmpl], spec, &o,
                                  Clock::now(), nullptr, request_span.id(), 0)
                              .ok();
          sat_attempted.fetch_add(1);
          const int w = static_cast<int>(MsSince(start, Clock::now()) / 1e3 /
                                         phase_s * kWindows);
          if (!ok) {
            sat_failed.fetch_add(1);
          } else if (w < kWindows) {
            completed[w].fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : readers) t.join();
    stop_writer.store(true, std::memory_order_release);
    write_thread.join();
    std::vector<double> rates;
    for (const auto& n : completed) rates.push_back(n.load() / (phase_s / kWindows));
    saturation_qps = Median(rates);
    attempted += sat_attempted.load();
    failed += sat_failed.load();
    std::printf("phase closed loop: %.1f reads/s over %d connections\n",
                saturation_qps, connections - 1);
  }
  report.CountOps(attempted, failed);

  const double read_p50 = Median(mid_window_p50);
  report.Add("read_p50_ms", read_p50, "ms",
             "median of " + std::to_string(mid_window_p50.size()) +
                 " window p50s, n=" + std::to_string(mid_reads.size()));
  report.AddTail("read_tail_ms", mid_reads, "ms");
  const double first_row_p50 = Median(mid_window_first);
  report.Add("first_row_p50_ms", first_row_p50, "ms",
             "median of " + std::to_string(mid_window_first.size()) +
                 " window p50s, n=" + std::to_string(mid_reads.size()));
  report.Add("max_qps_slo", max_qps, "1/s",
             "read tail <= " + std::to_string(static_cast<int>(kSloTailMs)) +
                 " ms, no backlog");
  report.Add("saturation_qps", saturation_qps, "1/s",
             "closed loop, " + std::to_string(connections - 1) +
                 " read connections, median of " + std::to_string(kWindows) +
                 " windows");
  std::printf("distinct (template, anchor) read keys: %zu (result cache: %zu)\n",
              distinct_keys.size(), server->options().cache_capacity);

  // ---- output check: wire (bypass_cache) vs in-process ExecuteAll ----------
  {
    Rng check_rng(cfg.seed * 101 + 3);
    TemplateDeck check_deck;
    int mismatches = 0;
    std::vector<double> exec_setup_us, run_us, drain_us;
    uint64_t rows = 0, configs = 0, arcs = 0;
    for (int k = 0; k < kCheckSamples; ++k) {
      const int t = check_deck.Next(check_rng);
      const std::string anchor =
          "v" + std::to_string(ranked[zipf.Sample(check_rng)]);
      Client::ExecuteSpec spec;
      spec.deadline_ms = kDeadlineMs;
      spec.bypass_cache = true;
      spec.params = {{"s", anchor}};
      std::set<std::string> wire, local;
      Outcome o;
      Status st = ReadAll(conns[0]->client, conns[0]->stmts[t], spec, &o,
                          Clock::now(), &wire, 0, 0);
      auto all = embedded[t].ExecuteAll(Params().Set("s", anchor));
      if (!st.ok() || !all.ok()) {
        ++mismatches;
        continue;
      }
      {
        auto guard = db->SharedReadGuard();
        for (const auto& tuple : all.value().tuples()) {
          std::string key;
          for (NodeId v : tuple) key += db->graph().NodeName(v) + ",";
          local.insert(key);
        }
      }
      if (wire != local) ++mismatches;
      if (cfg.trace) {
        Execution e = RunCursor(embedded[t], Params().Set("s", anchor), {});
        exec_setup_us.push_back(e.setup_us);
        run_us.push_back(e.run_us);
        drain_us.push_back(e.drain_us);
        rows += e.rows.size();
        configs += ConfigsOf(e.stats);
        arcs += ArcsOf(e.stats);
      }
    }
    report.Check(mismatches == 0,
                 std::to_string(kCheckSamples) +
                     " sampled reads: wire rows == in-process ExecuteAll (" +
                     std::to_string(mismatches) + " mismatches)");
    if (cfg.trace) {
      report.Add("api.execute_setup_us", Median(exec_setup_us), "us");
      report.Add("core.run_us", Median(run_us), "us");
      report.Add("core.drain_us", Median(drain_us), "us");
      report.Add("core.configs_per_row",
                 static_cast<double>(configs) / std::max<uint64_t>(rows, 1),
                 "ratio", "kCrpq: summed operator visited_configs");
      report.Add("core.arcs_explored", arcs, "count",
                 std::to_string(kCheckSamples) + " sampled reads");
    }
  }

  // ---- per-layer measurements (traced run only) ----------------------------
  if (cfg.trace) {
    const ServerStats& stats = server->stats();
    const double executes = static_cast<double>(
        stats.executes_ok + stats.executes_error + stats.executes_cancelled +
        stats.executes_deadline + stats.executes_overloaded);
    const double cache_lookups = static_cast<double>(
        server->cache().hits() + server->cache().misses());
    // Session-wide: the embedded prepares miss, the connections' hit.
    const uint64_t plan_hits = db->plan_cache_hits();
    const uint64_t plan_misses = db->plan_cache_misses();
    const WalStats wal_after = db->durable_log()->stats();
    const uint64_t mutations = std::max<uint64_t>(writes_ok, 1);
    report.Add("query.parse_us", Median(parse_us), "us");
    report.Add("api.prepare_cold_us", Median(prepare_us), "us");
    report.Add("api.plan_cache_hit_ratio",
               plan_hits + plan_misses == 0
                   ? 0.0
                   : static_cast<double>(plan_hits) / (plan_hits + plan_misses),
               "ratio");
    report.Add("core.plan_us", Median(plan_us), "us");
    report.Add("server.exec_p50_us",
               stats.execute_latency.PercentileNs(50) / 1e3, "us");
    report.Add("server.exec_p99_us",
               stats.execute_latency.PercentileNs(99) / 1e3, "us");
    report.Add("server.result_cache_hit_ratio",
               cache_lookups == 0 ? 0.0
                                  : server->cache().hits() / cache_lookups,
               "ratio");
    report.Add("server.shed_ratio",
               executes == 0 ? 0.0 : stats.executes_overloaded / executes,
               "ratio");
    report.Add("server.fetches_per_exec",
               executes == 0 ? 0.0 : stats.fetches / executes, "ratio");
    report.Add("server.mutate_us", Median(mutate_us), "us");
    report.Add("loadgen.late_p99_ms", Percentile(mid_late, 99), "ms");
    report.Add("graph.index_build_ms", index_build_ms, "ms");
    report.Add("graph.full_builds", db->index_full_builds() - builds_before,
               "count");
    report.Add("graph.compactions", wal_after.checkpoints - wal_before.checkpoints,
               "count");
    report.Add("graph.delta_segments_max", segments_max, "count");
    report.Add("wal.bytes_per_edge",
               static_cast<double>(wal_after.appended_bytes -
                                   wal_before.appended_bytes) /
                   (mutations * kMutateEdges),
               "B");
    report.Add("wal.syncs_per_commit",
               static_cast<double>(wal_after.syncs - wal_before.syncs) /
                   mutations,
               "ratio");
    report.Add("wal.checkpoints", wal_after.checkpoints - wal_before.checkpoints,
               "count");
    {
      Span span("graph.compact");
      auto t0 = Clock::now();
      db->CompactIndexNow();
      report.Add("graph.compact_ms", MsSince(t0, Clock::now()), "ms");
    }
    // Closed-loop blocks of reads on one connection, spans off and on.
    Rng calib_rng(cfg.seed + 99);
    TemplateDeck calib_deck;
    std::vector<std::pair<int, std::string>> calib;
    for (int k = 0; k < 200; ++k) {
      calib.push_back({calib_deck.Next(calib_rng),
                       "v" + std::to_string(ranked[zipf.Sample(calib_rng)])});
    }
    report.Add("trace.overhead_ratio",
               TraceOverheadRatio(5,
                                  [&] {
                                    for (const auto& [t, anchor] : calib) {
                                      Span request_span("harness.request");
                                      Client::ExecuteSpec spec;
                                      spec.deadline_ms = kDeadlineMs;
                                      spec.params = {{"s", anchor}};
                                      Outcome o;
                                      (void)ReadAll(conns[0]->client,
                                                    conns[0]->stmts[t], spec,
                                                    &o, Clock::now(), nullptr,
                                                    request_span.id(), 0);
                                    }
                                  }),
               "ratio");
  }

  teardown();
}

}  // namespace perfbench
