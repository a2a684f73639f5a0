// The three workloads of the repository benchmark. Each builds its inputs
// from cfg.seed, times its setup, measures for cfg.seconds, checks its
// outputs, and adds its metrics to the report (end-to-end metrics always;
// per-layer metrics when cfg.trace is set).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

void RunServeRpq(const Config& cfg, Report& report);
void RunEcrpqBatch(const Config& cfg, Report& report);
void RunIngestRecover(const Config& cfg, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
