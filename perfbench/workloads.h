// The benchmark's three workloads (README.md, "Workloads"). Each run builds
// an installation through the program's public API, drives closed-loop
// clients whose inputs come from --seed alone, checks every output against
// the benchmark's own oracles and reports either the end-to-end metrics
// (plain run) or the per-layer ledger (traced run).
#ifndef EDEN_PERFBENCH_WORKLOADS_H_
#define EDEN_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/harness.h"

namespace perf {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  // Sets the timed window's length: a fixed amount of virtual time per
  // second, calibrated to last about that long on the reference host.
  double seconds = 10;
  bool trace = false;
};

struct RunOutput {
  // Invocations of the timed window (issued after set-up ended).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Every oracle that did not hold, one line each; empty on a correct run.
  std::vector<std::string> oracle_failures;
  // End-to-end metrics (plain run) or per-layer metrics (traced run).
  MetricList metrics;
  // Context for the reader: sample counts, window lengths, the tracing
  // overhead. Printed apart from the metrics.
  MetricList info;
  std::string host_spans_json;
};

bool IsWorkload(const std::string& name);
RunOutput RunWorkload(const RunConfig& config);

}  // namespace perf

#endif  // EDEN_PERFBENCH_WORKLOADS_H_
