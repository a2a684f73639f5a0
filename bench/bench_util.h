// Shared workload builders for the benchmark harness. Each bench binary
// regenerates one row/figure of the paper's evaluation (see DESIGN.md's
// per-experiment index and EXPERIMENTS.md for the mapping).

#ifndef ECRPQ_BENCH_BENCH_UTIL_H_
#define ECRPQ_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <errno.h>  // program_invocation_short_name
#endif

#include "core/evaluator.h"
#include "graph/generators.h"
#include "query/parser.h"

namespace ecrpq_bench {

using namespace ecrpq;

// ---- machine-readable results ---------------------------------------------
//
// Every fig1a/fig1b bench records one entry per benchmark case into
// BENCH_<binary>.json, written into the working directory at process exit:
//   {"bench": "...", "cases": [{"name": ..., "median_ns": ...,
//                               "props": {"nodes": ..., ...}}]}
// median_ns is the median of per-iteration wall times sampled inside the
// benchmark loop; props carry graph sizes / query shape, so the perf
// trajectory across PRs is trackable by tooling. Case names differing in
// one path segment (e.g. ".../delta/..." and ".../rebuild/...") are twins
// measuring the same workload two ways; the writer prints a comparison
// for each twin pair at exit, so the speedup is measured by the bench
// itself rather than asserted.

/// Per-iteration wall-clock sampler (Begin/End around the measured work).
class MedianTimer {
 public:
  void Begin() { start_ = Clock::now(); }
  void End() {
    samples_.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - start_)
            .count());
  }
  double MedianNs() const {
    if (samples_.empty()) return 0.0;
    std::vector<double> s = samples_;
    size_t mid = s.size() / 2;
    std::nth_element(s.begin(), s.begin() + mid, s.end());
    return s[mid];
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
  std::vector<double> samples_;
};

using BenchProps = std::vector<std::pair<std::string, double>>;

/// Process-wide result log; flushed to BENCH_<binary>.json at exit.
class BenchResultLog {
 public:
  static BenchResultLog& Get() {
    static BenchResultLog log;
    return log;
  }

  void Record(const std::string& case_name, double median_ns,
              BenchProps props) {
    for (Entry& e : entries_) {
      if (e.name == case_name) {  // repeated case: keep the latest run
        e.median_ns = median_ns;
        e.props = std::move(props);
        return;
      }
    }
    entries_.push_back({case_name, median_ns, std::move(props)});
  }

  BenchResultLog(const BenchResultLog&) = delete;
  BenchResultLog& operator=(const BenchResultLog&) = delete;

  ~BenchResultLog() {
    if (entries_.empty()) return;
    WriteJson();
    // Twin-case comparisons measured by the bench itself: the cost-based
    // planner vs. the monolithic execution mode (bench_planner_join), and
    // the direction-aware searches vs. forward-only (bench_bidirectional).
    PrintTwinSpeedups("/planned", "/monolithic", "planned-vs-monolithic");
    PrintTwinSpeedups("/threads/2", "/threads/1", "parallel-1to2");
    PrintTwinSpeedups("/threads/4", "/threads/1", "parallel-1to4");
    PrintTwinSpeedups("/threads/8", "/threads/1", "parallel-1to8");
    PrintTwinSpeedups("/bidir", "/fwd", "bidirectional-vs-forward");
    PrintTwinSpeedups("/bwd", "/fwd", "backward-vs-forward");
    PrintTwinSpeedups("/cached", "/nocache", "cache-vs-nocache");
    // bench_mutation: O(delta) snapshot maintenance vs full rebuild, and
    // the (absence of a) read tax after compaction folds the chain.
    PrintTwinSpeedups("/delta", "/rebuild", "delta-vs-rebuild");
    PrintTwinSpeedups("/compacted", "/fresh", "compacted-vs-fresh");
    PrintTwinSpeedups("/chain/32", "/fresh", "chain32-vs-fresh");
    // bench_mutation durability tiers: the WAL tax per fsync policy
    // over the non-durable delta write path. fsync=interval is the
    // acceptance gate — within 2x of non-durable, i.e. speedup >= 0.5.
    PrintTwinSpeedups("DurableWriteToRead/always/batch",
                      "DbWriteToRead/delta/batch", "durable-always-vs-delta");
    PrintTwinSpeedups("DurableWriteToRead/interval/batch",
                      "DbWriteToRead/delta/batch", "durable-interval-vs-delta");
    PrintTwinSpeedups("DurableWriteToRead/never/batch",
                      "DbWriteToRead/delta/batch", "durable-never-vs-delta");
  }

 private:
  struct Entry {
    std::string name;
    double median_ns;
    BenchProps props;
  };

  BenchResultLog() = default;

  static std::string BinaryName() {
#if defined(__GLIBC__)
    return program_invocation_short_name;
#else
    return "bench";
#endif
  }

  // Writes one JSON file to `path`; returns false when the path was not
  // writable (e.g. a read-only checkout for the repo-root copy). The
  // write is atomic — temp file in the same directory, then rename — so
  // a concurrent reader (CI collecting artifacts, diff_bench_medians.py
  // on a watch loop) never observes a truncated file, and a crashed
  // bench never leaves half a JSON behind.
  bool WriteJsonTo(const std::string& path) const {
    const std::string bench = BinaryName();
    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"cases\": [\n",
                 bench.c_str());
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(f, "    {\"name\": \"%s\", \"median_ns\": %.1f",
                   e.name.c_str(), e.median_ns);
      std::fprintf(f, ", \"props\": {");
      for (size_t p = 0; p < e.props.size(); ++p) {
        std::fprintf(f, "%s\"%s\": %g", p > 0 ? ", " : "",
                     e.props[p].first.c_str(), e.props[p].second);
      }
      std::fprintf(f, "}}%s\n", i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::remove(tmp.c_str());
      return false;
    }
    std::fprintf(stderr, "[bench-json] wrote %s (%zu cases)\n", path.c_str(),
                 entries_.size());
    return true;
  }

  void WriteJson() const {
    const std::string name = "BENCH_" + BinaryName() + ".json";
    // Working-directory copy (the build tree in CI, uploaded as the
    // artifact) plus the committed-trajectory copy at the repo root:
    // scripts/diff_bench_medians.py diffs fresh medians against the
    // checked-in baselines, so the perf trajectory lives in git.
    WriteJsonTo(name);
#ifdef ECRPQ_REPO_ROOT
    WriteJsonTo(std::string(ECRPQ_REPO_ROOT) + "/" + name);
#endif
  }

  // Prints `fast` vs `slow` medians for every case pair differing only in
  // that path segment (e.g. ".../delta/..." against ".../rebuild/...").
  void PrintTwinSpeedups(const std::string& fast, const std::string& slow,
                         const char* tag) const {
    const char* fast_label = fast.c_str() + (fast[0] == '/' ? 1 : 0);
    const char* slow_label = slow.c_str() + (slow[0] == '/' ? 1 : 0);
    for (const Entry& e : entries_) {
      size_t pos = e.name.find(fast);
      if (pos == std::string::npos) continue;
      std::string twin = e.name;
      twin.replace(pos, fast.size(), slow);
      for (const Entry& s : entries_) {
        if (s.name != twin || e.median_ns <= 0.0) continue;
        std::fprintf(stderr,
                     "[%s] %s: %s %.3f ms, %s %.3f ms, speedup %.2fx\n",
                     tag, e.name.c_str(), fast_label,
                     e.median_ns / 1e6, slow_label, s.median_ns / 1e6,
                     s.median_ns / e.median_ns);
      }
    }
  }

  std::vector<Entry> entries_;
};

/// Records one finished benchmark case (median of `timer`'s samples).
inline void RecordBenchCase(const std::string& case_name,
                            const MedianTimer& timer, BenchProps props) {
  BenchResultLog::Get().Record(case_name, timer.MedianNs(), std::move(props));
}

/// A deterministic layered graph with ~`nodes` nodes over {a, b}.
inline GraphDb MakeLayeredGraph(int nodes, uint64_t seed = 42) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  Rng rng(seed);
  int width = 4;
  int layers = std::max(2, nodes / width);
  return LayeredGraph(alphabet, layers, width, 2, &rng);
}

/// A deterministic random graph with `nodes` nodes and 3x edges.
inline GraphDb MakeRandomGraph(int nodes, uint64_t seed = 42) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  Rng rng(seed);
  return RandomGraph(alphabet, nodes, 3 * nodes, &rng);
}

/// Parses a query against a graph's alphabet or dies.
inline Query MustParse(const GraphDb& g, const std::string& text) {
  auto query = ParseQuery(text, g.alphabet());
  if (!query.ok()) {
    std::fprintf(stderr, "query parse failed: %s\n",
                 query.status().ToString().c_str());
    std::abort();
  }
  return std::move(query).value();
}

/// The Theorem 6.3 REI query family: m expressions intersected via shared
/// equality constraints on the universal word graph. Expression i is
/// (a^{p_i})* for small periods p_i, so the joint constraint forces word
/// lengths divisible by lcm(p_1..p_m) — the classic exponential family.
inline std::string ReiQuery(int m) {
  static const int kPeriods[] = {2, 3, 5, 7, 11, 13};
  std::string body;
  for (int i = 0; i < m; ++i) {
    if (i > 0) body += ", ";
    body += "(x" + std::to_string(i) + ", p" + std::to_string(i) + ", y" +
            std::to_string(i) + ")";
  }
  for (int i = 0; i < m; ++i) {
    std::string block = "(";
    for (int j = 0; j < kPeriods[i]; ++j) block += "a";
    block += ")*";
    body += ", " + block + "(p" + std::to_string(i) + ")";
  }
  for (int i = 1; i < m; ++i) {
    body += ", eq(p0, p" + std::to_string(i) + ")";
  }
  return "Ans() <- " + body;
}

/// The same family written with ONE shared path variable (Prop 6.8's
/// relational repetition).
inline std::string ReiRepetitionQuery(int m) {
  static const int kPeriods[] = {2, 3, 5, 7, 11, 13};
  std::string body;
  for (int i = 0; i < m; ++i) {
    if (i > 0) body += ", ";
    body += "(x" + std::to_string(i) + ", p, y" + std::to_string(i) + ")";
  }
  for (int i = 0; i < m; ++i) {
    std::string block = "(";
    for (int j = 0; j < kPeriods[i]; ++j) block += "a";
    block += ")*";
    body += ", " + block + "(p)";
  }
  return "Ans() <- " + body;
}

/// Control family: the same m languages on independent path variables
/// (a plain acyclic CRPQ; polynomial).
inline std::string IndependentLanguagesQuery(int m) {
  static const int kPeriods[] = {2, 3, 5, 7, 11, 13};
  std::string body;
  for (int i = 0; i < m; ++i) {
    if (i > 0) body += ", ";
    body += "(x" + std::to_string(i) + ", p" + std::to_string(i) + ", y" +
            std::to_string(i) + ")";
  }
  for (int i = 0; i < m; ++i) {
    std::string block = "(";
    for (int j = 0; j < kPeriods[i]; ++j) block += "a";
    block += ")*";
    body += ", " + block + "(p" + std::to_string(i) + ")";
  }
  return "Ans() <- " + body;
}

/// Chain CRPQ with m atoms: (x0,p0,x1),...,(x_{m-1},p_{m-1},x_m).
inline std::string ChainCrpq(int m) {
  std::string body;
  for (int i = 0; i < m; ++i) {
    if (i > 0) body += ", ";
    body += "(x" + std::to_string(i) + ", p" + std::to_string(i) + ", x" +
            std::to_string(i + 1) + ")";
  }
  for (int i = 0; i < m; ++i) {
    body += std::string(", ") + (i % 2 == 0 ? "a*" : "b*") + "(p" +
            std::to_string(i) + ")";
  }
  return "Ans(x0, x" + std::to_string(m) + ") <- " + body;
}

}  // namespace ecrpq_bench

#endif  // ECRPQ_BENCH_BENCH_UTIL_H_
