// Shared pieces of the headline benchmark (see README.md): host clocks,
// benchmark-side input generation, host-clock spans, exact virtual-latency
// percentiles and the metric list every workload fills in.
//
// Everything here lives on the benchmark's side of the line: the Eden
// program only ever sees the inputs these helpers generate.
#ifndef EDEN_PERFBENCH_HARNESS_H_
#define EDEN_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/sim/time.h"

namespace perf {

using HostClock = std::chrono::steady_clock;

inline double SecondsBetween(HostClock::time_point a, HostClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// CPU time of the whole process (user + system, every thread).
double ProcessCpuSeconds();
// Peak resident set size of this process so far.
double PeakRssMb();
// Host-clock instant of the process's static initialisation, before main().
HostClock::time_point ProcessStart();

// splitmix64: the benchmark's own generator for every input it feeds the
// program (payloads, targets, operation mix, think times). Independent of
// the simulator's Rng so the inputs are a function of --seed alone.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Exponential(double mean) { return -mean * std::log1p(-Uniform()); }

 private:
  uint64_t state_;
};

// Seeds a generator from a tuple of identifiers, e.g. (seed, client).
inline uint64_t StreamSeed(uint64_t a, uint64_t b, uint64_t c = 0) {
  InputRng rng(a ^ (b * 0xd6e8feb86659fd93ULL) ^ (c * 0xa0761d6478bd642fULL));
  rng.Next();
  return rng.Next();
}

// The payload a ring client writes with its seq-th put: a pure function of
// (seed, client, seq), so the content oracle regenerates it instead of
// trusting anything the program returned.
eden::Bytes MakePayload(uint64_t seed, uint64_t client, uint64_t seq,
                        size_t bytes);

// Host-clock spans around the benchmark's own calls into the program: each
// set-up step, each move, the restart and the timed window. Kept in memory,
// written out when the run ends. Disabled instances record nothing.
class HostSpans {
 public:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  explicit HostSpans(bool enabled) : enabled_(enabled) {}

  size_t Begin(const std::string& name, size_t parent = kNone);
  void End(size_t id);
  // Total duration of the closed spans called `name`.
  double Seconds(const std::string& name) const;
  std::string ToJson() const;

 private:
  struct Span {
    std::string name;
    size_t parent = kNone;
    HostClock::time_point start;
    HostClock::time_point end;
    bool open = true;
  };
  bool enabled_;
  HostClock::time_point origin_ = HostClock::now();
  std::vector<Span> spans_;
};

// Closes its span at scope exit.
class HostSpanScope {
 public:
  HostSpanScope(HostSpans& spans, const std::string& name,
                size_t parent = HostSpans::kNone)
      : spans_(spans), id_(spans.Begin(name, parent)) {}
  HostSpanScope(const HostSpanScope&) = delete;
  HostSpanScope& operator=(const HostSpanScope&) = delete;
  ~HostSpanScope() { spans_.End(id_); }
  size_t id() const { return id_; }

 private:
  HostSpans& spans_;
  size_t id_;
};

// Exact virtual latencies (nanoseconds), one per completed invocation.
class LatencySamples {
 public:
  void Add(eden::SimDuration latency) {
    values_.push_back(latency);
    sorted_ = false;
  }
  void Merge(const LatencySamples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
  }
  size_t size() const { return values_.size(); }
  // Nearest-rank percentile in milliseconds (0 when empty).
  double PercentileMs(double q) const;

 private:
  mutable std::vector<eden::SimDuration> values_;
  mutable bool sorted_ = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace perf

#endif  // EDEN_PERFBENCH_HARNESS_H_
