// Shared pieces of the perfbench driver: run configuration, latency
// samples and percentiles, the metric report, the in-memory span tracer,
// and the seeded graph/anchor generators the workloads build on.
//
// The driver reaches the library only through its public entry points
// (Database / PreparedQuery / ResultCursor, Client + Server,
// Database::OpenDurable / CommitDelta, GraphIndex::Build,
// DecodeCheckpoint); every span it records wraps one of those calls.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "api/api.h"
#include "util/random.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

struct Config {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string data_dir;
  std::string trace_out;
  int nproc = 1;  ///< load-generator threads and query lanes, <= 4
  /// Stop after the setup and report only setup_s (run.py starts several
  /// such processes and reports the median setup time).
  bool setup_only = false;
  Clock::time_point started;  ///< taken first thing in main()
};

/// setup_s: seconds from process start (cfg.started) to now, the moment
/// before the first timed operation.
inline double SetupSeconds(const Config& cfg) {
  return MsSince(cfg.started, Clock::now()) / 1e3;
}

// ---- samples and percentiles ------------------------------------------------

/// Nearest-rank percentile of an unsorted sample (p in [0, 100]).
double Percentile(std::vector<double> values, double p);

/// The highest percentile that still has at least ten samples beyond it
/// (p99 needs >= 1000 samples), with the value at that rank.
struct Tail {
  double value = 0;
  double percentile = 0;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> values);

double Median(std::vector<double> values);

// ---- report -----------------------------------------------------------------

/// Collects metrics and output checks; Print() writes one human-readable
/// line per metric and a final `RESULT {json}` line for run.py.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  /// A median metric with its sample count.
  void AddMedian(const std::string& name, const std::vector<double>& values,
                 const std::string& unit);
  /// A tail metric with its percentile and sample count.
  void AddTail(const std::string& name, const std::vector<double>& values,
               const std::string& unit);
  /// Records an output check; a failed check fails the run.
  void Check(bool ok, const std::string& what);
  void CountOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return correct_; }
  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---- tracing ----------------------------------------------------------------

/// In-memory spans: name (`layer.call`), start, end, parent span and
/// request id. Disabled spans cost one branch. Written out by Dump() at
/// exit; trace_summary.py turns them into per-layer self time.
class Tracer {
 public:
  static Tracer& Get();
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(uint64_t id, uint64_t parent, uint64_t request,
              Clock::time_point start, Clock::time_point end,
              const char* name);
  bool Dump(const std::string& path) const;

 private:
  struct SpanRec {
    uint64_t id, parent, request;
    int64_t start_ns, end_ns;
    const char* name;
  };
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRec> spans_;
  Clock::time_point epoch_ = Clock::now();
};

/// RAII span around one public call. `name` must be a string literal.
class Span {
 public:
  Span(const char* name, uint64_t parent = 0, uint64_t request = 0)
      : name_(name), parent_(parent), request_(request) {
    if (Tracer::Get().enabled()) {
      id_ = Tracer::Get().NextId();
      start_ = Clock::now();
    }
  }
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void End() {
    if (id_ != 0) {
      Tracer::Get().Record(id_, parent_, request_, start_, Clock::now(),
                           name_);
      id_ = 0;
    }
  }
  uint64_t id() const { return id_; }

 private:
  const char* name_;
  uint64_t parent_, request_;
  uint64_t id_ = 0;
  Clock::time_point start_;
};

/// trace.overhead_ratio: runs `block` alternately with spans off and on
/// (`rounds` times each, only the calling thread active) and returns the
/// median traced block time over the median untraced one.
double TraceOverheadRatio(int rounds, const std::function<void()>& block);

// ---- executions -------------------------------------------------------------

/// One embedded execution, split at the public calls: Execute() (bind,
/// snapshot pin, plan memo), the first Next() (the engine run), and the
/// remaining Next() calls (draining the materialized rows).
struct Execution {
  ecrpq::Status status;
  std::vector<std::vector<ecrpq::NodeId>> rows;
  ecrpq::EvalStats stats;
  double setup_us = 0;
  double run_us = 0;
  double drain_us = 0;
  double total_ms = 0;  ///< Execute() through the last Next()
};

/// Runs `query` to completion through a ResultCursor, with spans
/// api.execute / core.run (solver.run for the counting and qlen
/// engines) / core.drain under `parent`.
Execution RunCursor(const ecrpq::PreparedQuery& query,
                    const ecrpq::Params& params, ecrpq::ExecuteOptions exec,
                    uint64_t parent = 0, uint64_t request = 0);

/// Product configurations and arcs a run explored. kCrpq leaves
/// EvalStats::configs_explored / arcs_explored at 0; its work shows in the
/// per-operator visited_configs / frontier_expansions, summed here.
uint64_t ConfigsOf(const ecrpq::EvalStats& stats);
uint64_t ArcsOf(const ecrpq::EvalStats& stats);

// ---- inputs -----------------------------------------------------------------

/// A power-law graph (PowerLawGraph's edges) whose nodes carry names
/// `<prefix><id>`, so `$param` binding can find them: PowerLawGraph's
/// own nodes are anonymous and FindNode does not resolve "n<id>".
ecrpq::GraphDb NamedPowerLawGraph(const ecrpq::AlphabetPtr& alphabet,
                                  int nodes, int edges, uint64_t seed,
                                  const std::string& prefix);

/// Node ids sorted by out-degree, highest first (ties by id).
std::vector<ecrpq::NodeId> RankByOutDegree(const ecrpq::GraphDb& graph);

/// Zipf(s) sampler over ranks 0..n-1 (rank 0 most likely).
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(ecrpq::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb();

/// Order-sensitive FNV-1a digest of a row sequence.
uint64_t DigestRows(const std::vector<std::vector<ecrpq::NodeId>>& rows);

/// CPUs this process may run on, and a pin of the calling thread to a
/// subset of them (threads it starts later inherit the mask).
std::vector<int> AllowedCpus();
void PinThisThread(const std::vector<int>& cpus);

/// Deletes a directory tree (data dirs of durable databases).
void RemoveTree(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
