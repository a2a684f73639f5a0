#include "common.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "graph/generators.h"

namespace perfbench {

using namespace ecrpq;

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) { return Percentile(values, 50); }

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  // Rank n-10 (1-based) leaves exactly ten samples above it.
  const size_t rank = n > 10 ? n - 10 : 1;
  tail.value = values[rank - 1];
  tail.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return tail;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  metrics_.push_back({name, value, unit, note});
}

void Report::AddMedian(const std::string& name,
                       const std::vector<double>& values,
                       const std::string& unit) {
  Add(name, Median(values), unit,
      "p50 of n=" + std::to_string(values.size()));
}

void Report::AddTail(const std::string& name,
                     const std::vector<double>& values,
                     const std::string& unit) {
  Tail tail = TailOf(values);
  char note[96];
  std::snprintf(note, sizeof(note), "p%.2f of n=%zu, 10 samples beyond",
                tail.percentile, tail.samples);
  Add(name, tail.value, unit, note);
}

void Report::Check(bool ok, const std::string& what) {
  std::printf("check %s: %s\n", ok ? "ok" : "FAILED", what.c_str());
  if (!ok) correct_ = false;
}

void Report::Print() const {
  std::vector<Metric> metrics = metrics_;
  metrics.push_back({"failed_ops_ratio",
                     attempted_ == 0 ? 0.0
                                     : static_cast<double>(failed_) /
                                           static_cast<double>(attempted_),
                     "ratio",
                     std::to_string(failed_) + " of " +
                         std::to_string(attempted_) + " operations"});
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct_ ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    std::printf("metric %s = %.6g %s%s%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.empty() ? "" : "  [",
                m.note.c_str(), m.note.empty() ? "" : "]");
    double value = std::isfinite(m.value) ? m.value : 0.0;
    json << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
         << value << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::printf("RESULT %s\n", json.str().c_str());
  std::fflush(stdout);
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Record(uint64_t id, uint64_t parent, uint64_t request,
                    Clock::time_point start, Clock::time_point end,
                    const char* name) {
  auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  };
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({id, parent, request, ns(start), ns(end), name});
}

bool Tracer::Dump(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# id\tparent\trequest\tstart_ns\tend_ns\tname\n");
  for (const SpanRec& s : spans_) {
    std::fprintf(f, "%llu\t%llu\t%llu\t%lld\t%lld\t%s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.name);
  }
  return std::fclose(f) == 0;
}

Execution RunCursor(const PreparedQuery& query, const Params& params,
                    ExecuteOptions exec, uint64_t parent, uint64_t request) {
  Execution out;
  const Engine engine = exec.engine.value_or(query.engine());
  const bool solver =
      engine == Engine::kCounting || engine == Engine::kQlen;
  const auto t0 = Clock::now();
  Result<ResultCursor> cursor = [&] {
    Span span("api.execute", parent, request);
    return query.Execute(params, exec);
  }();
  const auto t1 = Clock::now();
  out.setup_us = MsSince(t0, t1) * 1e3;
  if (!cursor.ok()) {
    out.status = cursor.status();
    out.total_ms = MsSince(t0, t1);
    return out;
  }
  ResultCursor& c = cursor.value();
  bool more;
  {
    Span span(solver ? "solver.run" : "core.run", parent, request);
    more = c.Next();
  }
  const auto t2 = Clock::now();
  out.run_us = MsSince(t1, t2) * 1e3;
  {
    Span span("core.drain", parent, request);
    while (more) {
      out.rows.push_back(c.tuple());
      more = c.Next();
    }
  }
  const auto t3 = Clock::now();
  out.drain_us = MsSince(t2, t3) * 1e3;
  out.total_ms = MsSince(t0, t3);
  out.status = c.status();
  out.stats = c.stats();
  return out;
}

double TraceOverheadRatio(int rounds, const std::function<void()>& block) {
  Tracer& tracer = Tracer::Get();
  const bool was = tracer.enabled();
  std::vector<double> off, on;
  for (int r = 0; r < rounds; ++r) {
    for (bool traced : {false, true}) {
      tracer.Enable(traced);
      auto t0 = Clock::now();
      block();
      (traced ? on : off).push_back(MsSince(t0, Clock::now()));
    }
  }
  tracer.Enable(was);
  const double base = Median(off);
  return base > 0 ? Median(on) / base : 1.0;
}

uint64_t ConfigsOf(const EvalStats& stats) {
  if (stats.engine != "crpq") return stats.configs_explored;
  uint64_t sum = 0;
  for (const OperatorStats& op : stats.operators) sum += op.visited_configs;
  return sum;
}

uint64_t ArcsOf(const EvalStats& stats) {
  if (stats.engine != "crpq") return stats.arcs_explored;
  uint64_t sum = 0;
  for (const OperatorStats& op : stats.operators) {
    sum += op.frontier_expansions;
  }
  return sum;
}

GraphDb NamedPowerLawGraph(const AlphabetPtr& alphabet, int nodes, int edges,
                           uint64_t seed, const std::string& prefix) {
  std::vector<Edge> list;
  {
    Rng rng(seed);
    GraphDb anonymous = PowerLawGraph(alphabet, nodes, edges, &rng);
    list.reserve(anonymous.num_edges());
    for (NodeId v = 0; v < anonymous.num_nodes(); ++v) {
      for (const auto& [label, to] : anonymous.Out(v)) {
        list.push_back({v, label, to});
      }
    }
  }
  GraphDb graph(alphabet);
  for (int i = 0; i < nodes; ++i) graph.AddNode(prefix + std::to_string(i));
  graph.AddEdges(list);
  return graph;
}

std::vector<NodeId> RankByOutDegree(const GraphDb& graph) {
  std::vector<NodeId> order(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return graph.Out(a).size() > graph.Out(b).size();
  });
  return order;
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::Sample(Rng& rng) const {
  double u = static_cast<double>(rng.Next() >> 11) * 0x1.0p-53;
  size_t i = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
  return std::min(i, cdf_.size() - 1);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

uint64_t DigestRows(const std::vector<std::vector<NodeId>>& rows) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&](uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  for (const auto& row : rows) {
    for (NodeId v : row) mix(static_cast<uint64_t>(static_cast<uint32_t>(v)));
    mix(0xffffffffull);
  }
  return h;
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int i = 0; i < CPU_SETSIZE; ++i) {
      if (CPU_ISSET(i, &set)) cpus.push_back(i);
    }
  }
  return cpus;
}

void PinThisThread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
