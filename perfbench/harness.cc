#include "perfbench/harness.h"

#include <sys/resource.h>
#include <time.h>

#include "src/metrics/json_writer.h"

namespace perf {
namespace {

const HostClock::time_point kProcessStart = HostClock::now();

}  // namespace

HostClock::time_point ProcessStart() { return kProcessStart; }

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

eden::Bytes MakePayload(uint64_t seed, uint64_t client, uint64_t seq,
                        size_t bytes) {
  InputRng rng(StreamSeed(seed, client + 1, seq + 1));
  eden::Bytes out(bytes);
  size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    uint64_t word = rng.Next();
    for (int b = 0; b < 8; b++) {
      out[i + b] = static_cast<uint8_t>(word >> (8 * b));
    }
  }
  uint64_t word = rng.Next();
  for (; i < bytes; i++) {
    out[i] = static_cast<uint8_t>(word);
    word >>= 8;
  }
  return out;
}

size_t HostSpans::Begin(const std::string& name, size_t parent) {
  if (!enabled_) {
    return kNone;
  }
  Span span;
  span.name = name;
  span.parent = parent;
  span.start = HostClock::now();
  spans_.push_back(std::move(span));
  return spans_.size() - 1;
}

void HostSpans::End(size_t id) {
  if (!enabled_ || id >= spans_.size()) {
    return;
  }
  spans_[id].end = HostClock::now();
  spans_[id].open = false;
}

double HostSpans::Seconds(const std::string& name) const {
  double total = 0;
  for (const Span& span : spans_) {
    if (!span.open && span.name == name) {
      total += SecondsBetween(span.start, span.end);
    }
  }
  return total;
}

std::string HostSpans::ToJson() const {
  eden::JsonWriter json;
  json.BeginArray();
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& span = spans_[i];
    double start = SecondsBetween(origin_, span.start);
    json.BeginObject();
    json.Key("id").U64(i);
    json.Key("parent").I64(span.parent == kNone
                               ? -1
                               : static_cast<int64_t>(span.parent));
    json.Key("name").String(span.name);
    json.Key("start_s").Double(start);
    json.Key("end_s").Double(span.open ? start
                                       : SecondsBetween(origin_, span.end));
    json.EndObject();
  }
  json.EndArray();
  return json.Take();
}

double LatencySamples::PercentileMs(double q) const {
  if (values_.empty()) {
    return 0;
  }
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  size_t n = values_.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return static_cast<double>(values_[rank - 1]) / 1e6;
}

}  // namespace perf
