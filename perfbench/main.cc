// eden_perf: runs one workload of the headline benchmark and prints its
// result as one JSON object on the last line of standard output.
//
//   eden_perf --workload ring_small|zipf_mixed|bulk_sharded --seed N
//             --seconds S --trace 0|1 [--spans-out PATH]
//
// perfbench/run.py builds this binary and runs it; see README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/workloads.h"
#include "src/common/log.h"
#include "src/metrics/json_writer.h"

namespace {

void WriteMetrics(const perf::MetricList& metrics, eden::JsonWriter& json) {
  json.BeginObject();
  for (const perf::Metric& metric : metrics.all()) {
    json.Key(metric.name).BeginObject();
    json.Key("value").Double(metric.value);
    json.Key("unit").String(metric.unit);
    json.EndObject();
  }
  json.EndObject();
}

int Usage() {
  std::fprintf(stderr,
               "usage: eden_perf --workload ring_small|zipf_mixed|bulk_sharded"
               " --seed N --seconds S --trace 0|1 [--spans-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perf::RunConfig config;
  std::string spans_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !perf::IsWorkload(config.workload) ||
      !(config.seconds > 0)) {
    return Usage();
  }

  // Dropped frames and the like are counted by the LAN and transport
  // counters; per-event warning lines would only add host time.
  eden::Logger::Get().set_level(eden::LogLevel::kError);
  perf::RunOutput out = perf::RunWorkload(config);

  if (!spans_out.empty() && !out.host_spans_json.empty()) {
    std::FILE* file = std::fopen(spans_out.c_str(), "w");
    if (file != nullptr) {
      std::fputs(out.host_spans_json.c_str(), file);
      std::fputc('\n', file);
      std::fclose(file);
    }
  }
  for (const std::string& failure : out.oracle_failures) {
    std::printf("ORACLE FAILED: %s\n", failure.c_str());
  }
  eden::JsonWriter json;
  json.BeginObject();
  json.Key("correct").Bool(out.oracle_failures.empty());
  json.Key("attempted").U64(out.attempted);
  json.Key("failed").U64(out.failed);
  json.Key("metrics");
  WriteMetrics(out.metrics, json);
  json.Key("info");
  WriteMetrics(out.info, json);
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}
