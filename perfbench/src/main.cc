// perfbench driver: runs one workload of the repository benchmark.
//
//   perfbench --workload <serve_rpq|ecrpq_batch|ingest_recover> --seed N
//             --seconds S --trace <0|1> --data-dir DIR --trace-out FILE
//             [--setup-only 1]
//
// Normally started by run.py, which builds it and selects the metrics
// named in BENCHMARK.json from the RESULT line printed last.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 --data-dir DIR --trace-out FILE "
               "[--setup-only 1]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Config cfg;
  cfg.started = Clock::now();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--data-dir") {
      cfg.data_dir = value;
    } else if (flag == "--trace-out") {
      cfg.trace_out = value;
    } else if (flag == "--setup-only") {
      cfg.setup_only = value == "1";
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) Usage("flags take one value each");
  if (cfg.seconds < 1) Usage("--seconds must be at least 1");
  if (cfg.data_dir.empty()) Usage("--data-dir is required");
  // The load generator and the query lanes use at most nproc (<= 4)
  // threads, so the benchmark never oversubscribes the machine it
  // measures.
  cfg.nproc = std::clamp<int>(
      static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
  Tracer::Get().Enable(cfg.trace);

  Report report;
  if (cfg.workload == "serve_rpq") {
    RunServeRpq(cfg, report);
  } else if (cfg.workload == "ecrpq_batch") {
    RunEcrpqBatch(cfg, report);
  } else if (cfg.workload == "ingest_recover") {
    RunIngestRecover(cfg, report);
  } else {
    Usage("unknown workload");
  }
  if (!cfg.setup_only) report.Add("peak_rss_mb", PeakRssMb(), "MB", "VmHWM");
  if (cfg.trace && !cfg.trace_out.empty()) {
    if (!Tracer::Get().Dump(cfg.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   cfg.trace_out.c_str());
      return 1;
    }
  }
  report.Print();
  return 0;
}
