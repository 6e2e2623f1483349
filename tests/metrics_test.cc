// Tests for the metrics subsystem: histogram bucket geometry and percentile
// math, registry merge/rollup semantics, the JSON exports (metrics registry
// and Chrome trace) round-tripped through a minimal in-test parser, the
// InvokeOptions API, and the fluent topology builder.
#include <cctype>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/kernel/eden_system.h"
#include "src/metrics/metrics.h"
#include "src/trace/span.h"
#include "src/types/standard_types.h"

namespace eden {
namespace {

// --- A minimal JSON parser, just enough to round-trip our own output ------

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool boolean = false;
  double number = 0;
  std::string text;
  std::vector<JsonValue> items;
  std::map<std::string, JsonValue> fields;

  const JsonValue& at(const std::string& key) const {
    static const JsonValue kMissing;
    auto it = fields.find(key);
    return it == fields.end() ? kMissing : it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) { return Value(out) && (Skip(), pos_ == text_.size()); }

 private:
  void Skip() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      pos_++;
    }
  }
  bool Literal(const char* word) {
    size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  bool String(std::string* out) {
    Skip();
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    pos_++;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'u':
            // Our writer only emits \u00XX control escapes.
            if (pos_ + 4 > text_.size()) return false;
            c = static_cast<char>(std::stoi(text_.substr(pos_, 4), nullptr, 16));
            pos_ += 4;
            break;
          default: c = esc; break;
        }
      }
      out->push_back(c);
    }
    if (pos_ >= text_.size()) return false;
    pos_++;  // closing quote
    return true;
  }
  bool Value(JsonValue* out) {
    Skip();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') {
      pos_++;
      out->kind = JsonValue::kObject;
      Skip();
      if (pos_ < text_.size() && text_[pos_] == '}') { pos_++; return true; }
      while (true) {
        std::string key;
        if (!String(&key)) return false;
        Skip();
        if (pos_ >= text_.size() || text_[pos_++] != ':') return false;
        JsonValue child;
        if (!Value(&child)) return false;
        out->fields[key] = std::move(child);
        Skip();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') { pos_++; continue; }
        if (text_[pos_] == '}') { pos_++; return true; }
        return false;
      }
    }
    if (c == '[') {
      pos_++;
      out->kind = JsonValue::kArray;
      Skip();
      if (pos_ < text_.size() && text_[pos_] == ']') { pos_++; return true; }
      while (true) {
        JsonValue child;
        if (!Value(&child)) return false;
        out->items.push_back(std::move(child));
        Skip();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') { pos_++; continue; }
        if (text_[pos_] == ']') { pos_++; return true; }
        return false;
      }
    }
    if (c == '"') {
      out->kind = JsonValue::kString;
      return String(&out->text);
    }
    if (c == 't') { out->kind = JsonValue::kBool; out->boolean = true; return Literal("true"); }
    if (c == 'f') { out->kind = JsonValue::kBool; out->boolean = false; return Literal("false"); }
    if (c == 'n') { out->kind = JsonValue::kNull; return Literal("null"); }
    // Number.
    size_t end = pos_;
    while (end < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[end])) || text_[end] == '-' ||
            text_[end] == '+' || text_[end] == '.' || text_[end] == 'e' || text_[end] == 'E')) {
      end++;
    }
    if (end == pos_) return false;
    out->kind = JsonValue::kNumber;
    out->number = std::stod(text_.substr(pos_, end - pos_));
    pos_ = end;
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

JsonValue ParseJsonOrDie(const std::string& text) {
  JsonValue value;
  JsonParser parser(text);
  EXPECT_TRUE(parser.Parse(&value)) << "unparseable JSON: " << text.substr(0, 200);
  return value;
}

// --- Histogram bucket geometry --------------------------------------------

TEST(HistogramBuckets, GeometryIsConsistent) {
  // Every bucket's lower bound maps back to that bucket, and the value just
  // below the next bucket's lower bound still lands in this bucket.
  for (size_t i = 0; i < Histogram::kBucketCount - 1; i++) {
    uint64_t lo = Histogram::BucketLowerBound(i);
    uint64_t width = Histogram::BucketWidth(i);
    ASSERT_GT(width, 0u) << "bucket " << i;
    EXPECT_EQ(Histogram::BucketFor(lo), i) << "bucket " << i;
    EXPECT_EQ(Histogram::BucketFor(lo + width - 1), i) << "bucket " << i;
    EXPECT_EQ(Histogram::BucketLowerBound(i + 1), lo + width) << "bucket " << i;
  }
}

TEST(HistogramBuckets, RelativeErrorIsBounded) {
  // Log-linear with 16 sub-buckets: bucket width <= value/16 above the
  // first (linear) octaves, so percentile error stays ~6%.
  for (uint64_t value : {100ull, 1000ull, 123456ull, 999999999ull, 1ull << 40}) {
    size_t bucket = Histogram::BucketFor(value);
    uint64_t lo = Histogram::BucketLowerBound(bucket);
    uint64_t width = Histogram::BucketWidth(bucket);
    EXPECT_LE(lo, value);
    EXPECT_LT(value, lo + width);
    if (value >= Histogram::kSubBuckets * Histogram::kSubBuckets) {
      EXPECT_LE(width, value / Histogram::kSubBuckets + 1);
    }
  }
}

// --- Percentile math -------------------------------------------------------

TEST(HistogramPercentile, EmptyHistogramReturnsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0);
  EXPECT_EQ(h.mean(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(HistogramPercentile, UniformSamplesWithinBucketError) {
  Histogram h;
  for (int i = 1; i <= 1000; i++) {
    h.Record(Microseconds(i));
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), Microseconds(1));
  EXPECT_EQ(h.max(), Microseconds(1000));
  EXPECT_EQ(h.mean(), h.sum() / 1000);
  // 1/16 bucket resolution: allow 8% relative error.
  for (double p : {0.50, 0.90, 0.99}) {
    double expect = 1000.0 * p;
    double got = static_cast<double>(h.Percentile(p)) / 1000.0;  // -> us
    EXPECT_NEAR(got, expect, expect * 0.08) << "p" << p * 100;
  }
  // Percentiles are clamped into [min, max].
  EXPECT_GE(h.Percentile(0.0), h.min());
  EXPECT_LE(h.Percentile(1.0), h.max());
}

TEST(HistogramPercentile, SingleValueEveryPercentileIsThatValue) {
  Histogram h;
  h.Record(Milliseconds(7));
  for (double p : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.Percentile(p), Milliseconds(7));
  }
}

TEST(HistogramPercentile, MergePreservesDistribution) {
  Histogram a, b, reference;
  for (int i = 1; i <= 500; i++) {
    a.Record(Microseconds(i));
    reference.Record(Microseconds(i));
  }
  for (int i = 501; i <= 1000; i++) {
    b.Record(Microseconds(i * 10));
    reference.Record(Microseconds(i * 10));
  }
  a.MergeFrom(b);
  EXPECT_EQ(a.count(), reference.count());
  EXPECT_EQ(a.sum(), reference.sum());
  EXPECT_EQ(a.min(), reference.min());
  EXPECT_EQ(a.max(), reference.max());
  for (double p : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(a.Percentile(p), reference.Percentile(p)) << "p" << p * 100;
  }
}

// StatsSince is the telemetry scraper's fused walk; it must return exactly
// what the composed DeltaSince + Percentile path returns, sample for sample,
// or scrape series would depend on which path computed them.
TEST(HistogramPercentile, StatsSinceMatchesDeltaSincePlusPercentile) {
  Histogram h;
  Histogram snapshot;  // empty snapshot: the first scrape's window
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int tick = 0; tick < 50; tick++) {
    int samples = tick % 7;  // includes idle ticks (0 new samples)
    for (int s = 0; s < samples; s++) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      h.Record(static_cast<SimDuration>(x % Milliseconds(20)));
    }
    Histogram delta = h.DeltaSince(snapshot);
    Histogram::WindowStats w = h.StatsSince(snapshot);
    EXPECT_EQ(w.count, delta.count()) << "tick " << tick;
    EXPECT_EQ(w.p50, delta.Percentile(0.5)) << "tick " << tick;
    EXPECT_EQ(w.p99, delta.Percentile(0.99)) << "tick " << tick;
    EXPECT_EQ(w.max, delta.max()) << "tick " << tick;
    snapshot = h;
  }
}

// --- Registry semantics ----------------------------------------------------

TEST(MetricsRegistry, InstrumentsAreStableAndNamed) {
  MetricsRegistry registry;
  Counter& c = registry.counter("a.count");
  c.Increment();
  c.Increment(4);
  EXPECT_EQ(&registry.counter("a.count"), &c);  // same instrument
  EXPECT_EQ(registry.CounterValue("a.count"), 5u);
  EXPECT_EQ(registry.CounterValue("never.touched"), 0u);
  EXPECT_EQ(registry.FindCounter("never.touched"), nullptr);

  registry.gauge("a.level").Set(10);
  registry.gauge("a.level").Add(-3);
  EXPECT_EQ(registry.FindGauge("a.level")->value(), 7);
}

TEST(MetricsRegistry, MergeSumsCountersAndGaugesMergesHistograms) {
  MetricsRegistry a, b;
  a.counter("shared").Increment(2);
  b.counter("shared").Increment(3);
  b.counter("only_b").Increment(7);
  a.gauge("level").Set(5);
  b.gauge("level").Set(6);
  a.histogram("lat").Record(Microseconds(100));
  b.histogram("lat").Record(Microseconds(300));

  a.MergeFrom(b);
  EXPECT_EQ(a.CounterValue("shared"), 5u);
  EXPECT_EQ(a.CounterValue("only_b"), 7u);
  EXPECT_EQ(a.FindGauge("level")->value(), 11);  // gauges add across nodes
  EXPECT_EQ(a.FindHistogram("lat")->count(), 2u);
  EXPECT_EQ(a.FindHistogram("lat")->min(), Microseconds(100));
  EXPECT_EQ(a.FindHistogram("lat")->max(), Microseconds(300));
}

// --- System integration: rollup, stats compatibility, JSON ----------------

class MetricsSystemTest : public testing::Test {
 protected:
  MetricsSystemTest() {
    RegisterStandardTypes(system_);
    system_.AddNodes(3);
  }

  // Root of the most recent completed trace rooted at an invocation.
  const Span* LastInvocationRoot() const {
    const Span* found = nullptr;
    for (const TraceTree& tree : spans_.completed()) {
      const Span* root = tree.root();
      if (root != nullptr && root->kind == SpanKind::kInvocation) {
        found = root;
      }
    }
    return found;
  }

  // Declared first so it outlives the system it may be attached to.
  SpanCollector spans_;
  EdenSystem system_;
};

TEST_F(MetricsSystemTest, RollupSumsNodeRegistries) {
  auto cap = system_.node(0).CreateObject("std.counter", Representation{});
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(system_.Await(system_.node(1).Invoke(*cap, "increment")).ok());
  ASSERT_TRUE(system_.Await(system_.node(2).Invoke(*cap, "increment")).ok());

  uint64_t per_node = 0;
  for (size_t n = 0; n < system_.node_count(); n++) {
    per_node += system_.node(n).metrics().CounterValue("kernel.invoke.started");
  }
  MetricsRegistry rollup = system_.Rollup();
  EXPECT_EQ(rollup.CounterValue("kernel.invoke.started"), per_node);
  EXPECT_EQ(per_node, 2u);
  // Remote invocations also show up in the latency histogram and on the LAN.
  const Histogram* remote = rollup.FindHistogram("kernel.invoke.latency.remote");
  ASSERT_NE(remote, nullptr);
  EXPECT_EQ(remote->count(), 2u);
  EXPECT_GT(remote->Percentile(0.5), 0);
  EXPECT_GT(rollup.CounterValue("lan.frames_delivered"), 0u);
}

TEST_F(MetricsSystemTest, KernelStatsCompatibilityAccessor) {
  auto cap = system_.node(0).CreateObject("std.counter", Representation{});
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(system_.Await(system_.node(0).Invoke(*cap, "increment")).ok());
  ASSERT_TRUE(system_.Await(system_.node(1).Invoke(*cap, "read")).ok());

  const MetricsRegistry& m0 = system_.node(0).metrics();
  KernelStats stats = system_.node(0).stats();
  EXPECT_EQ(stats.invocations_started, m0.CounterValue("kernel.invoke.started"));
  EXPECT_EQ(stats.invocations_local, m0.CounterValue("kernel.invoke.local"));
  EXPECT_EQ(stats.invocations_completed,
            m0.CounterValue("kernel.invoke.completed"));
  EXPECT_EQ(stats.dispatches, m0.CounterValue("kernel.dispatches"));
  EXPECT_EQ(stats.invocations_local, 1u);
  EXPECT_GE(stats.dispatches, 2u);  // served both the local and remote call
}

TEST_F(MetricsSystemTest, LocateMetricsAreBackendTagged) {
  // Default backend is the partitioned directory: locate rounds land on the
  // directory-tagged counter and the broadcast counter stays untouched.
  auto cap = system_.node(0).CreateObject("std.counter", Representation{});
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(system_.Await(system_.node(1).Invoke(*cap, "increment")).ok());

  const MetricsRegistry& m1 = system_.node(1).metrics();
  EXPECT_EQ(m1.CounterValue("kernel.locate.queries.directory"), 1u);
  EXPECT_EQ(m1.CounterValue("kernel.locate.queries.broadcast"), 0u);

  // The stats() view sums both backends into locate_queries.
  EXPECT_EQ(system_.node(1).stats().locate_queries, 1u);

  // Creation published a residence to the name's home partition somewhere,
  // and the home's entry count gauge reflects it.
  MetricsRegistry rollup = system_.Rollup();
  EXPECT_GE(rollup.CounterValue("kernel.directory.updates"), 1u);
  ASSERT_NE(rollup.FindGauge("kernel.directory.entries"), nullptr);
  EXPECT_GE(rollup.FindGauge("kernel.directory.entries")->value(), 1);
}

TEST_F(MetricsSystemTest, RegistryJsonRoundTrips) {
  auto cap = system_.node(0).CreateObject("std.counter", Representation{});
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(system_.Await(system_.node(1).Invoke(*cap, "increment")).ok());

  MetricsRegistry rollup = system_.Rollup();
  JsonValue root = ParseJsonOrDie(rollup.ToJson());
  ASSERT_EQ(root.kind, JsonValue::kObject);

  const JsonValue& counters = root.at("counters");
  ASSERT_EQ(counters.kind, JsonValue::kObject);
  EXPECT_EQ(static_cast<uint64_t>(counters.at("kernel.invoke.started").number),
            rollup.CounterValue("kernel.invoke.started"));

  const JsonValue& histograms = root.at("histograms");
  ASSERT_EQ(histograms.kind, JsonValue::kObject);
  const JsonValue& remote = histograms.at("kernel.invoke.latency.remote");
  ASSERT_EQ(remote.kind, JsonValue::kObject);
  const Histogram* h = rollup.FindHistogram("kernel.invoke.latency.remote");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(static_cast<uint64_t>(remote.at("count").number), h->count());
  EXPECT_NEAR(remote.at("p50_us").number,
              static_cast<double>(h->Percentile(0.5)) / 1000.0, 1e-6);
  EXPECT_NEAR(remote.at("p99_us").number,
              static_cast<double>(h->Percentile(0.99)) / 1000.0, 1e-6);
  EXPECT_GT(remote.at("p50_us").number, 0.0);
}

TEST_F(MetricsSystemTest, ChromeTraceRoundTrips) {
  system_.set_span_collector(&spans_);
  auto cap = system_.node(0).CreateObject("std.counter", Representation{});
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(system_.Await(system_.node(1).Invoke(*cap, "increment")).ok());
  system_.RunFor(Milliseconds(20));  // let the reply-ACK wire spans close
  const Span* invocation = LastInvocationRoot();
  ASSERT_NE(invocation, nullptr);

  JsonValue root = ParseJsonOrDie(spans_.ExportChromeTrace());
  const JsonValue& events = root.at("traceEvents");
  ASSERT_EQ(events.kind, JsonValue::kArray);
  ASSERT_FALSE(events.items.empty());

  // Every span is one "X" slice; cross-node causality adds "s"/"f" flow
  // pairs. The invocation root's slice carries its exact duration.
  size_t root_slices = 0;
  for (const JsonValue& event : events.items) {
    const std::string& phase = event.at("ph").text;
    EXPECT_TRUE(phase == "X" || phase == "s" || phase == "f") << phase;
    EXPECT_FALSE(event.at("name").text.empty());
    if (phase == "X" && event.at("args").at("span").number ==
                            static_cast<double>(invocation->span_id)) {
      root_slices++;
      EXPECT_GT(event.at("dur").number, 0.0);
      EXPECT_NEAR(event.at("dur").number,
                  static_cast<double>(invocation->duration()) / 1000.0, 1e-6);
    }
  }
  EXPECT_EQ(root_slices, 1u);
}

// --- InvokeOptions ---------------------------------------------------------

TEST_F(MetricsSystemTest, InvokeOptionsTimeoutStillFires) {
  Capability bogus(ObjectName(99, 4242, 1), Rights::All());
  InvokeOptions options = InvokeOptions::WithTimeout(Milliseconds(5));
  InvokeResult result =
      system_.Await(system_.node(0).Invoke(bogus, "read", {}, options));
  EXPECT_FALSE(result.ok());
  // The error reply still counts as a completion; the failure is also
  // attributed to timeout or to the locate protocol giving up.
  const MetricsRegistry& m0 = system_.node(0).metrics();
  EXPECT_EQ(m0.CounterValue("kernel.invoke.completed"), 1u);
  EXPECT_GE(m0.CounterValue("kernel.invoke.timed_out") +
                m0.CounterValue("kernel.invoke.unavailable"),
            1u);
}

TEST_F(MetricsSystemTest, MetricsClassRecordsPerClassHistogram) {
  auto cap = system_.node(0).CreateObject("std.counter", Representation{});
  ASSERT_TRUE(cap.ok());
  InvokeOptions options;
  options.metrics_class = "bump";
  ASSERT_TRUE(
      system_.Await(system_.node(1).Invoke(*cap, "increment", {}, options)).ok());
  ASSERT_TRUE(system_.Await(system_.node(1).Invoke(*cap, "read")).ok());

  const MetricsRegistry& m1 = system_.node(1).metrics();
  const Histogram* classed =
      m1.FindHistogram("kernel.invoke.latency.class.bump");
  ASSERT_NE(classed, nullptr);
  EXPECT_EQ(classed->count(), 1u);  // only the classed invocation
  ASSERT_NE(m1.FindHistogram("kernel.invoke.latency.remote"), nullptr);
  EXPECT_EQ(m1.FindHistogram("kernel.invoke.latency.remote")->count(), 2u);
}

TEST_F(MetricsSystemTest, TraceLabelAppearsInTrace) {
  system_.set_span_collector(&spans_);
  auto cap = system_.node(0).CreateObject("std.counter", Representation{});
  ASSERT_TRUE(cap.ok());
  InvokeOptions options;
  options.trace_label = "probe-7";
  ASSERT_TRUE(
      system_.Await(system_.node(1).Invoke(*cap, "increment", {}, options)).ok());

  system_.RunFor(Milliseconds(20));
  const Span* invocation = LastInvocationRoot();
  ASSERT_NE(invocation, nullptr);
  EXPECT_EQ(invocation->label, "probe-7");
}

// --- Fluent topology builder -----------------------------------------------

TEST(NodeBuilder, BuildsOnDestructionWithSystemDefaults) {
  EdenSystem system;
  RegisterStandardTypes(system);
  system.AddNode("alpha");
  system.AddNode("beta");
  EXPECT_EQ(system.node_count(), 2u);
  EXPECT_EQ(system.node(0).config().default_invoke_timeout,
            system.config().kernel.default_invoke_timeout);
}

TEST(NodeBuilder, OverridesApplyToOneNodeOnly) {
  EdenSystem system;
  RegisterStandardTypes(system);
  KernelConfig patient;
  patient.default_invoke_timeout = Seconds(90);
  NodeKernel& special = system.AddNode("special").WithKernel(patient);
  system.AddNode("normal");

  EXPECT_EQ(special.config().default_invoke_timeout, Seconds(90));
  EXPECT_EQ(system.node(1).config().default_invoke_timeout,
            system.config().kernel.default_invoke_timeout);
  EXPECT_EQ(&system.node(0), &special);
}

TEST(NodeBuilder, WithLocationSelectsTheBackend) {
  EdenSystem system;
  RegisterStandardTypes(system);
  NodeKernel& classic = system.AddNode("classic").WithLocation(
      LocationBackend::kBroadcast);
  system.AddNode("modern");
  EXPECT_EQ(classic.config().locate.backend, LocationBackend::kBroadcast);
  EXPECT_EQ(system.node(1).config().locate.backend,
            LocationBackend::kDirectory);

  // A broadcast-configured node resolves a remote name via the broadcast
  // counter; its directory counter never moves.
  auto cap = system.node(1).CreateObject("std.counter", Representation{});
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(system.Await(classic.Invoke(*cap, "increment")).ok());
  EXPECT_EQ(classic.metrics().CounterValue("kernel.locate.queries.broadcast"),
            1u);
  EXPECT_EQ(classic.metrics().CounterValue("kernel.locate.queries.directory"),
            0u);

  LocateConfig tuned;
  tuned.backend = LocationBackend::kDirectory;
  tuned.directory_fanout = 2;
  NodeKernel& wide = system.AddNode("wide").WithLocation(tuned);
  EXPECT_EQ(wide.config().locate.directory_fanout, 2);
}

}  // namespace
}  // namespace eden
