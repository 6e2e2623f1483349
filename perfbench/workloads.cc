#include "perfbench/workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <thread>

#include "perfbench/replay.h"
#include "src/kernel/eden_system.h"
#include "src/trace/span.h"
#include "src/types/standard_types.h"

namespace perf {
namespace {

using eden::Bytes;
using eden::Capability;
using eden::EdenSystem;
using eden::InvokeArgs;
using eden::InvokeOptions;
using eden::InvokeResult;
using eden::Milliseconds;
using eden::NodeKernel;
using eden::Seconds;
using eden::SimDuration;
using eden::SimTime;
using eden::StationId;
using eden::Status;

constexpr size_t kNoNode = static_cast<size_t>(-1);

enum class OpKind : uint8_t { kPut, kGet, kRead, kIncrement, kCheckpoint };
constexpr size_t kOpKinds = 5;
const std::string kOpNames[kOpKinds] = {"put", "get", "read", "increment",
                                        "checkpoint"};

bool IsRead(OpKind kind) { return kind == OpKind::kGet || kind == OpKind::kRead; }
bool IsWrite(OpKind kind) {
  return kind == OpKind::kPut || kind == OpKind::kIncrement;
}

// One invocation as the benchmark generated it, plus what its oracles need.
struct Op {
  OpKind kind = OpKind::kGet;
  Capability target;
  InvokeArgs args;
  // zipf_mixed: the counter, the increment's delta, and the least value the
  // reply may carry (everything acknowledged before it was issued).
  size_t object = 0;
  uint64_t delta = 0;
  uint64_t lower = 0;
  // Least virtual latency a remote invocation can have (0 = not checked),
  // the host it must reach, and the admin epoch it was issued in.
  SimDuration floor = 0;
  size_t remote_node = kNoNode;
  uint64_t admin_epoch = 0;
};

// One closed-loop client. Under the sharded engine each client is touched
// only from its node's shard thread, and by the main thread between runs.
struct Client {
  size_t index = 0;
  InputRng rng{1};
  uint64_t seq = 0;
  uint64_t puts = 0;
  bool started = false;
  bool idle = false;
  Bytes last_put;
  // Invocations issued in the timed window.
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  // Completions inside the measured window, by kind, and their latencies.
  uint64_t window_ops[kOpKinds] = {};
  LatencySamples all;
  LatencySamples reads;
  LatencySamples writes;
  // Event-queue depth seen at each issue (traced runs).
  uint64_t pending_max = 0;
  double pending_sum = 0;
  uint64_t pending_samples = 0;
  // Oracle failures this client saw: how many, and the first one.
  uint64_t oracle_failures = 0;
  std::string first_failure;

  void Fail(const std::string& what) {
    if (oracle_failures++ == 0) {
      first_failure = what;
    }
  }
};

// Passes the wire untouched; in a traced run it records the size of every
// frame delivered during the measured window.
class WireProbe : public eden::WireFaultHook {
 public:
  Decision OnDeliver(StationId, StationId, size_t wire_bytes) override {
    if (recording) {
      frames[wire_bytes]++;
    }
    return {};
  }
  bool recording = false;
  SizeMix frames;
};

struct PassOptions {
  bool traced = false;
  bool telemetry = true;  // zipf_mixed only
  size_t shards = 0;      // bulk_sharded only; 0 = the workload's own count
  // Length of the timed window in host seconds on the reference host.
  double seconds = 0;
  // Sharded runs: after the Await-ed warm-up, run every shard on to one
  // common clock and let the warm-up's timers settle. Without it the window
  // depends on the shard layout and is not even repeatable (README.md,
  // "Faults"); only the layout probe of the traced run leaves it out.
  bool align_shards = true;
};

struct Snapshot {
  eden::MetricsRegistry rollup;
  uint64_t events = 0;
  uint64_t spans_started = 0;
};

// Everything one pass (set-up, timed window, drain, oracles) produced.
struct PassResult {
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  std::vector<std::string> oracle_failures;
  // Virtual results of the measured window.
  SimDuration window = 0;
  LatencySamples all;
  LatencySamples reads;
  LatencySamples writes;
  uint64_t window_ops[kOpKinds] = {};
  std::vector<uint64_t> digests;
  // Each shard simulation's event-order digest (Simulation::trace()).
  std::vector<uint64_t> event_digests;
  // Host clock.
  double window_wall_s = 0;
  double window_cpu_s = 0;
  // Peak RSS when the window ends, before the drain and final oracles.
  double peak_rss_mb = 0;
  // Traced-run inputs of the per-layer ledger.
  Snapshot before;
  Snapshot after;
  SizeMix frames;
  uint64_t pending_max = 0;
  double pending_mean = 0;
  std::vector<double> move_ms;
  std::vector<CodecSample> codec;
  size_t objects = 0;
  bool sharded = false;

  uint64_t window_completions() const { return all.size(); }
  double window_rate() const {
    return Ratio(static_cast<double>(window_completions()), window_wall_s);
  }
  double window_cpu_us_per_inv() const {
    return Ratio(window_cpu_s * 1e6, static_cast<double>(window_completions()));
  }
};

// The part every workload shares: the installation, the closed-loop
// clients, the timed window and the drain. Subclasses supply the inputs and
// the oracles.
class Workload {
 public:
  Workload(uint64_t seed, PassOptions options, HostSpans* spans)
      : seed_(seed), options_(options), spans_(spans) {
    options_invoke_.timeout = Seconds(10);
  }
  virtual ~Workload() = default;

  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Builds, populates and warms the installation. Returns the host seconds
  // from `origin` to the moment the first timed invocation may go out.
  double SetUp(HostClock::time_point origin) {
    HostSpanScope setup(*spans_, "setup");
    {
      HostSpanScope build(*spans_, "build", setup.id());
      system_ = std::make_unique<EdenSystem>(Config());
      eden::RegisterStandardTypes(*system_);
      system_->AddNodes(NodeCount());
      if (options_.traced) {
        system_->set_span_collector(&collector_);
        if (!system_->sharded()) {
          system_->lan().set_fault_hook(&probe_);
        }
      }
      clients_.resize(ClientCount());
      for (size_t c = 0; c < clients_.size(); c++) {
        clients_[c].index = c;
        clients_[c].rng = InputRng(StreamSeed(seed_, c + 1, 0xc11e));
      }
    }
    Populate(setup.id());
    {
      HostSpanScope warm(*spans_, "warm", setup.id());
      Warm();
    }
    return SecondsBetween(origin, HostClock::now());
  }

  // The timed window (WindowLength of virtual time), then stop, drain and
  // run the final oracles.
  PassResult RunTimed() {
    PassResult out;
    size_t timed_span = spans_->Begin("timed_window");
    phase_.timed = true;
    phase_.measuring = true;
    sample_queue_ = options_.traced;
    if (options_.traced) {
      out.before = Take();
      probe_.recording = true;
    }
    SimTime t0 = system_->sim().now();
    BeginWindow();
    for (Client& c : clients_) {
      if (!c.started) {
        StartClient(c);
      }
    }
    auto wall_start = HostClock::now();
    double cpu_start = ProcessCpuSeconds();
    out.window = WindowLength();
    system_->RunUntil(t0 + out.window);
    phase_.measuring = false;
    probe_.recording = false;
    out.window_wall_s = SecondsBetween(wall_start, HostClock::now());
    out.window_cpu_s = ProcessCpuSeconds() - cpu_start;
    out.peak_rss_mb = PeakRssMb();
    for (size_t i = 0; i < system_->node_count(); i++) {
      out.digests.push_back(system_->node(i).digest().value());
    }
    for (size_t s = 0; s < system_->shard_count(); s++) {
      out.event_digests.push_back(system_->shard_sim(s).trace().value());
    }
    if (options_.traced) {
      out.after = Take();
    }
    spans_->End(timed_span);
    {
      HostSpanScope drain(*spans_, "drain");
      StopAndDrain(&out.oracle_failures);
      FinalCheck(&out.oracle_failures);
    }
    Collect(&out);
    return out;
  }

  // Stops issuing and waits until every client and admin operation is idle.
  void StopAndDrain(std::vector<std::string>* failures) {
    phase_.stop = true;
    bool drained = system_->DriveWhile([this] {
      if (AdminPending()) {
        return true;
      }
      for (const Client& c : clients_) {
        if (c.started && !c.idle) {
          return true;
        }
      }
      return false;
    });
    if (!drained) {
      failures->push_back("drain: the installation went idle with clients "
                          "still waiting for replies");
    }
  }

 protected:
  virtual eden::SystemConfig Config() = 0;
  virtual size_t NodeCount() const = 0;
  virtual size_t ClientCount() const = 0;
  virtual size_t ObjectCount() const = 0;
  // Virtual time the window simulates per second of --seconds: sized so
  // that a window lasts about --seconds on the reference host (README.md),
  // and fixed, so that every run of a given length does the same work.
  virtual SimDuration VirtualPerHostSecond() const = 0;
  // Shortest window: enough samples beyond every percentile reported, and
  // room for the workload's admin operations.
  virtual SimDuration MinWindow() const = 0;

  // In whole milliseconds.
  SimDuration WindowLength() const {
    double window = std::max(options_.seconds *
                                 static_cast<double>(VirtualPerHostSecond()),
                             static_cast<double>(MinWindow()));
    return Milliseconds(static_cast<int64_t>(std::ceil(window / 1e6)));
  }
  // Creates (and, where the workload has it, checkpoints) every object.
  virtual void Populate(size_t setup_span) = 0;
  virtual void Warm() = 0;
  virtual size_t IssuingNode(const Client& c) = 0;
  virtual Op NextOp(Client& c) = 0;
  // Checks a successful reply against the workload's oracles.
  virtual void Check(Client& c, const Op& op, const InvokeResult& result) = 0;
  virtual SimDuration Think(Client& c) = 0;
  // Whether a remote-latency floor still applies at completion.
  virtual bool FloorHolds(const Op& op) { return true; }
  virtual void BeginWindow() {}
  virtual bool AdminPending() const { return false; }
  virtual void FinalCheck(std::vector<std::string>* failures) {}
  virtual void CollectAdmin(PassResult* out) {}
  // One representative request/reply per operation kind the run issued.
  virtual Capability SampleTarget() const = 0;
  virtual InvokeArgs SampleArgs(OpKind kind) const = 0;
  virtual InvokeArgs SampleResults(OpKind kind) const = 0;

  // Starts a client's closed loop (its first invocation goes out now).
  void StartClient(Client& c) {
    c.started = true;
    Issue(&c);
  }

  // Issues the client's next operation and waits for it on the main
  // thread, as a user's set-up code would.
  void AwaitOp(Client& c) {
    NodeKernel& node = system_->node(IssuingNode(c));
    Op op = NextOp(c);
    InvokeArgs args = std::move(op.args);
    InvokeResult result = system_->Await(
        node.Invoke(op.target, kOpNames[static_cast<size_t>(op.kind)],
                    std::move(args), options_invoke_));
    if (!result.ok()) {
      c.Fail("set-up " + kOpNames[static_cast<size_t>(op.kind)] +
             " failed: " + result.status.ToString());
    } else {
      Check(c, op, result);
    }
  }

  // Runs the installation until every future is ready.
  template <typename T>
  void AwaitAll(const std::vector<eden::Future<T>>& futures) {
    system_->DriveWhile([&futures] {
      for (const auto& future : futures) {
        if (!future.ready()) {
          return true;
        }
      }
      return false;
    });
  }

  // Least virtual time a remote invocation can take: the target kernel's
  // dispatch and receive overheads, the reply's marshalling
  // (serialize_per_kb per started KiB, charged before the reply is sent),
  // and for each leg one frame time and one propagation delay.
  SimDuration Floor(size_t request_bytes, size_t reply_bytes) {
    const eden::SystemConfig& config = system_->config();
    size_t mtu = config.lan.max_payload_bytes;
    auto leg = [&](size_t bytes) {
      return system_->lan().FrameTime(std::min(bytes, mtu)) +
             config.lan.propagation_delay;
    };
    return config.kernel.dispatch_overhead +
           config.kernel.remote_receive_overhead +
           config.kernel.serialize_per_kb *
               static_cast<SimDuration>(reply_bytes / 1024 + 1) +
           leg(request_bytes) + leg(reply_bytes);
  }

  uint64_t seed_;
  PassOptions options_;
  HostSpans* spans_;
  InvokeOptions options_invoke_;
  // Declared before the system, so they outlive it.
  eden::SpanCollector collector_;
  WireProbe probe_;
  std::unique_ptr<EdenSystem> system_;
  std::vector<Client> clients_;

 private:
  struct Phase {
    std::atomic<bool> stop{false};
    std::atomic<bool> timed{false};
    std::atomic<bool> measuring{false};
  };

  Snapshot Take() {
    Snapshot snapshot;
    system_->MergeSpans();
    snapshot.spans_started = collector_.stats().spans_started;
    snapshot.rollup = system_->Rollup();
    snapshot.events = system_->total_events();
    return snapshot;
  }

  void Issue(Client* c) {
    if (phase_.stop.load(std::memory_order_relaxed)) {
      c->idle = true;
      return;
    }
    NodeKernel& node = system_->node(IssuingNode(*c));
    if (sample_queue_) {
      uint64_t depth = node.sim().pending_events();
      c->pending_max = std::max(c->pending_max, depth);
      c->pending_sum += static_cast<double>(depth);
      c->pending_samples++;
    }
    Op op = NextOp(*c);
    InvokeArgs args = std::move(op.args);
    bool timed = phase_.timed.load(std::memory_order_relaxed);
    SimTime start = node.sim().now();
    eden::Future<InvokeResult> reply =
        node.Invoke(op.target, kOpNames[static_cast<size_t>(op.kind)],
                    std::move(args), options_invoke_);
    auto done = [this, c, op, timed, start, node = &node](
                    const InvokeResult& result) {
      Complete(c, op, timed, start, node, result);
    };
    if (reply.ready()) {
      // Never recurse: a reply that is already there completes as its own
      // event.
      node.sim().Schedule(0, [done, result = reply.Get()] { done(result); });
    } else {
      reply.OnReadyValue(done);
    }
  }

  void Complete(Client* c, const Op& op, bool timed, SimTime start,
                NodeKernel* node, const InvokeResult& result) {
    SimDuration latency = node->sim().now() - start;
    const std::string& name = kOpNames[static_cast<size_t>(op.kind)];
    if (timed) {
      c->attempted++;
      if (result.ok()) {
        c->completed++;
      } else {
        c->failed++;
      }
      if (result.ok() && phase_.measuring.load(std::memory_order_relaxed)) {
        c->window_ops[static_cast<size_t>(op.kind)]++;
        c->all.Add(latency);
        if (IsRead(op.kind)) {
          c->reads.Add(latency);
        } else if (IsWrite(op.kind)) {
          c->writes.Add(latency);
        }
      }
    }
    if (!result.ok()) {
      c->Fail(name + " from node " + std::to_string(node->station()) +
              " failed: " + result.status.ToString());
    } else {
      if (op.floor > 0 && latency < op.floor && FloorHolds(op)) {
        c->Fail("latency floor: remote " + name + " took " +
                std::to_string(latency) + " ns, floor " +
                std::to_string(op.floor) + " ns");
      }
      Check(*c, op, result);
    }
    SimDuration think = Think(*c);
    if (think > 0) {
      node->sim().Schedule(think, [this, c] { Issue(c); });
    } else {
      Issue(c);
    }
  }

  void Collect(PassResult* out) {
    double pending_sum = 0;
    uint64_t pending_samples = 0;
    for (Client& c : clients_) {
      out->attempted += c.attempted;
      out->completed += c.completed;
      out->failed += c.failed;
      out->all.Merge(c.all);
      out->reads.Merge(c.reads);
      out->writes.Merge(c.writes);
      for (size_t k = 0; k < kOpKinds; k++) {
        out->window_ops[k] += c.window_ops[k];
      }
      out->pending_max = std::max(out->pending_max, c.pending_max);
      pending_sum += c.pending_sum;
      pending_samples += c.pending_samples;
      if (c.oracle_failures > 0) {
        out->oracle_failures.push_back(
            "client " + std::to_string(c.index) + ": " + c.first_failure +
            (c.oracle_failures > 1
                 ? " (+" + std::to_string(c.oracle_failures - 1) + " more)"
                 : ""));
      }
    }
    out->pending_mean = Ratio(pending_sum, static_cast<double>(pending_samples));
    out->frames = probe_.frames;
    out->objects = ObjectCount();
    out->sharded = system_->sharded();
    for (size_t k = 0; k < kOpKinds; k++) {
      if (out->window_ops[k] == 0) {
        continue;
      }
      OpKind kind = static_cast<OpKind>(k);
      CodecSample sample;
      sample.request.invocation_id = 1ull << 40;
      sample.request.reply_to = 1;
      sample.request.target = SampleTarget();
      sample.request.operation = kOpNames[k];
      sample.request.args = SampleArgs(kind);
      sample.reply.invocation_id = sample.request.invocation_id;
      sample.reply.result = InvokeResult::Ok(SampleResults(kind));
      sample.count = out->window_ops[k];
      out->codec.push_back(std::move(sample));
    }
    CollectAdmin(out);
  }

  Phase phase_;
  bool sample_queue_ = false;
};

// ---------------------------------------------------------------------------
// ring_small and bulk_sharded: one zero-think client per node alternating a
// put and a get on a std.data object on its ring neighbour. Each client is
// the sole writer of its object, so every get must return exactly the bytes
// of that client's previous put.
// ---------------------------------------------------------------------------

struct RingParams {
  size_t nodes = 16;
  // Each put's payload size is drawn uniformly from [payload_min,
  // payload_max] by the client's input stream.
  size_t payload_min = 128;
  size_t payload_max = 128;
  size_t shards = 0;  // 0 = the CSMA world
  SimDuration warm = 0;
  // Await-ed put/get pairs per client before the window (bulk_sharded).
  int await_pairs = 0;
  SimDuration virtual_per_second = Seconds(1);
  SimDuration min_window = Seconds(1);
};

class RingWorkload : public Workload {
 public:
  RingWorkload(RingParams params, uint64_t seed, PassOptions options,
               HostSpans* spans)
      : Workload(seed, options, spans), params_(params) {
    if (options.shards > 0) {
      params_.shards = options.shards;
    }
  }

 protected:
  eden::SystemConfig Config() override {
    eden::SystemConfig config;
    config.seed = StreamSeed(seed_, 0x5e);
    config.shards = params_.shards;
    return config;
  }
  size_t NodeCount() const override { return params_.nodes; }
  size_t ClientCount() const override { return params_.nodes; }
  size_t ObjectCount() const override { return params_.nodes; }
  SimDuration VirtualPerHostSecond() const override {
    return params_.virtual_per_second;
  }
  SimDuration MinWindow() const override { return params_.min_window; }

  void Populate(size_t setup_span) override {
    HostSpanScope create(*spans_, "create", setup_span);
    for (Client& c : clients_) {
      c.last_put = MakePayload(seed_, c.index, c.puts++, PayloadSize(c));
      eden::Representation rep;
      rep.set_data(0, c.last_put);
      auto cap = system_->node((c.index + 1) % params_.nodes)
                     .CreateObject("std.data", std::move(rep));
      if (!cap.ok()) {
        c.Fail("create failed: " + cap.status().ToString());
        targets_.push_back(Capability());
      } else {
        targets_.push_back(*cap);
      }
    }
    system_->RunFor(Milliseconds(10));  // creations' directory updates land
  }

  void Warm() override {
    // Every client's first get is awaited alone, so each location cache
    // fills before the wire gets busy.
    for (Client& c : clients_) {
      c.seq = 1;
      AwaitOp(c);
    }
    for (int pair = 0; pair < params_.await_pairs; pair++) {
      for (Client& c : clients_) {
        AwaitOp(c);
        AwaitOp(c);
      }
    }
    if (system_->sharded() && options_.align_shards) {
      system_->RunFor(Milliseconds(50));
    }
    if (params_.warm > 0) {
      for (Client& c : clients_) {
        StartClient(c);
      }
      system_->RunFor(params_.warm);
    }
  }

  size_t IssuingNode(const Client& c) override { return c.index; }

  Op NextOp(Client& c) override {
    Op op;
    op.target = targets_[c.index];
    if (c.seq++ % 2 == 0) {
      op.kind = OpKind::kPut;
      Bytes payload = MakePayload(seed_, c.index, c.puts++, PayloadSize(c));
      c.last_put = payload;
      op.floor = Floor(payload.size(), 0);
      op.args.AddBytes(std::move(payload));
    } else {
      op.kind = OpKind::kGet;
      op.floor = Floor(0, c.last_put.size());
    }
    return op;
  }

  void Check(Client& c, const Op& op, const InvokeResult& result) override {
    if (op.kind != OpKind::kGet) {
      return;
    }
    auto content = result.results.BytesAt(0);
    if (!content.ok() || *content != c.last_put) {
      c.Fail("content: get " + std::to_string(c.seq) +
             " did not return the client's previous put");
    }
  }

  SimDuration Think(Client&) override { return 0; }

  Capability SampleTarget() const override { return targets_.front(); }
  InvokeArgs SampleArgs(OpKind kind) const override {
    InvokeArgs args;
    if (kind == OpKind::kPut) {
      args.AddBytes(Bytes(MeanPayload(), 0x5a));
    }
    return args;
  }
  InvokeArgs SampleResults(OpKind kind) const override {
    InvokeArgs results;
    if (kind == OpKind::kGet) {
      results.AddBytes(Bytes(MeanPayload(), 0x5a));
    }
    return results;
  }

  // Every object must still hold its writer's last put.
  void FinalCheck(std::vector<std::string>* failures) override {
    for (Client& c : clients_) {
      InvokeResult result = system_->Await(
          system_->node(c.index).Invoke(targets_[c.index], "get", {},
                                        options_invoke_));
      auto content = result.results.BytesAt(0);
      if (!result.ok() || !content.ok() || *content != c.last_put) {
        failures->push_back("content: object of client " +
                            std::to_string(c.index) +
                            " lost its last put");
      }
    }
  }

 private:
  size_t PayloadSize(Client& c) {
    size_t spread = params_.payload_max - params_.payload_min;
    return params_.payload_min + (spread == 0 ? 0 : c.rng.Below(spread + 1));
  }
  size_t MeanPayload() const {
    return (params_.payload_min + params_.payload_max) / 2;
  }

  RingParams params_;
  std::vector<Capability> targets_;
};

// ---------------------------------------------------------------------------
// zipf_mixed: elastic clients with exponential think time over thousands of
// checkpointed std.counter objects, Zipf-skewed, mostly reads, some
// increments, a few checkpoints; read leases and telemetry on; the hottest
// objects move inside the window. (A GracefulRestart belongs here too, but
// at this commit it loses acknowledged increments; README.md, "Faults".)
// ---------------------------------------------------------------------------

struct ZipfParams {
  size_t nodes = 16;
  size_t counters = 8192;
  // Eight clients keep the shared wire below the load at which directory
  // lookups start to time out into broadcast fallback (README.md, "Faults").
  size_t clients = 8;
  double zipf_s = 0.99;
  double read_share = 0.80;
  // The rest (0.5%) are checkpoints: enough to exercise the store inside
  // the window, few enough that p99 does not sit inside the disk's tail.
  double increment_share = 0.195;
  uint64_t max_delta = 7;
  // Every request also carries an opaque client tag of 0..max_tag_bytes,
  // as real requests carry contexts of varying size. Without it most
  // uncontended reads take one identical latency and the median sits on
  // that plateau for nearly every seed.
  size_t max_tag_bytes = 127;
  SimDuration think = Milliseconds(10);
  SimDuration warm = Seconds(2);
  SimDuration virtual_per_second = Seconds(35);
  // The last move is issued 3.5 s into the window.
  SimDuration min_window = Seconds(8);
  // Admin operations, as offsets into the window.
  std::vector<SimDuration> moves = {Milliseconds(1500), Milliseconds(2500),
                                    Milliseconds(3500)};
};

class ZipfWorkload : public Workload {
 public:
  ZipfWorkload(ZipfParams params, uint64_t seed, PassOptions options,
               HostSpans* spans)
      : Workload(seed, options, spans), params_(std::move(params)) {}

 protected:
  eden::SystemConfig Config() override {
    eden::SystemConfig config;
    config.seed = StreamSeed(seed_, 0x21f);
    config.kernel.lease_reads = true;
    config.telemetry.enabled = options_.telemetry;
    return config;
  }
  size_t NodeCount() const override { return params_.nodes; }
  size_t ClientCount() const override { return params_.clients; }
  size_t ObjectCount() const override { return params_.counters; }
  SimDuration VirtualPerHostSecond() const override {
    return params_.virtual_per_second;
  }
  SimDuration MinWindow() const override { return params_.min_window; }

  void Populate(size_t setup_span) override {
    size_t m = params_.counters;
    InputRng rng(StreamSeed(seed_, 0xc0a7));
    initial_.resize(m);
    issued_.assign(m, 0);
    acked_.assign(m, 0);
    // Rank -> counter: hot objects land on every node, not just node 0.
    by_rank_.resize(m);
    for (size_t i = 0; i < m; i++) {
      by_rank_[i] = i;
    }
    for (size_t i = m - 1; i > 0; i--) {
      std::swap(by_rank_[i], by_rank_[rng.Below(i + 1)]);
    }
    double total = 0;
    cdf_.resize(m);
    for (size_t r = 0; r < m; r++) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), params_.zipf_s);
      cdf_[r] = total;
    }
    for (double& p : cdf_) {
      p /= total;
    }
    {
      HostSpanScope create(*spans_, "create", setup_span);
      // Batches, so the directory updates of one batch land before the
      // next floods the shared wire.
      constexpr size_t kBatch = 64;
      for (size_t i = 0; i < m; i++) {
        initial_[i] = rng.Below(1000);
        eden::Representation rep;
        eden::RepWriteU64(rep, 0, initial_[i]);
        auto cap = system_->node(i % params_.nodes)
                       .CreateObject("std.counter", std::move(rep));
        if (!cap.ok()) {
          setup_failures_.push_back("create failed: " + cap.status().ToString());
          caps_.push_back(Capability());
        } else {
          caps_.push_back(*cap);
        }
        if (i % kBatch == kBatch - 1) {
          system_->RunFor(Milliseconds(20));
        }
      }
    }
    {
      HostSpanScope checkpoint(*spans_, "checkpoint", setup_span);
      std::vector<eden::Future<Status>> pending;
      for (size_t i = 0; i < m; i++) {
        pending.push_back(system_->node(i % params_.nodes)
                              .CheckpointObject(caps_[i].name()));
      }
      AwaitAll(pending);
      for (size_t i = 0; i < m; i++) {
        if (!pending[i].ready() || !pending[i].Get().ok()) {
          setup_failures_.push_back("checkpoint of counter " +
                                    std::to_string(i) + " failed");
        }
      }
    }
  }

  void Warm() override {
    for (Client& c : clients_) {
      StartClient(c);
    }
    system_->RunFor(params_.warm);
  }

  size_t IssuingNode(const Client& c) override { return LiveNode(c.index); }

  Op NextOp(Client& c) override {
    Op op;
    double u = c.rng.Uniform();
    size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    op.object = by_rank_[std::min(rank, by_rank_.size() - 1)];
    op.target = caps_[op.object];
    double mix = c.rng.Uniform();
    if (mix < params_.read_share) {
      op.kind = OpKind::kRead;
      op.lower = initial_[op.object] + acked_[op.object];
    } else if (mix < params_.read_share + params_.increment_share) {
      op.kind = OpKind::kIncrement;
      op.delta = 1 + c.rng.Below(params_.max_delta);
      issued_[op.object] += op.delta;
      op.lower = initial_[op.object] + acked_[op.object] + op.delta;
      op.args.AddU64(op.delta);
    } else {
      op.kind = OpKind::kCheckpoint;
    }
    op.args.AddBytes(
        Bytes(c.rng.Below(params_.max_tag_bytes + 1), static_cast<uint8_t>(c.seq++)));
    if (op.kind != OpKind::kRead) {
      // Writes and checkpoints always run at the object's host; a read may
      // be served by a local lease, so it has no floor.
      size_t host = HostOf(op.object);
      if (host != kNoNode && host != IssuingNode(c)) {
        op.remote_node = host;
        op.admin_epoch = admin_epoch_;
        op.floor = Floor(op.args.TotalBytes(), 8);
      }
    }
    return op;
  }

  bool FloorHolds(const Op& op) override {
    return admin_in_flight_ == 0 && admin_epoch_ == op.admin_epoch &&
           HostOf(op.object) == op.remote_node;
  }

  void Check(Client& c, const Op& op, const InvokeResult& result) override {
    if (op.kind == OpKind::kCheckpoint) {
      return;
    }
    auto value = result.results.U64At(0);
    uint64_t upper = initial_[op.object] + issued_[op.object];
    if (!value.ok() || *value < op.lower || *value > upper) {
      c.Fail(std::string(op.kind == OpKind::kRead ? "no stale read"
                                                  : "exactly-once") +
             ": counter " + std::to_string(op.object) + " returned " +
             (value.ok() ? std::to_string(*value) : std::string("nothing")) +
             ", allowed [" + std::to_string(op.lower) + ", " +
             std::to_string(upper) + "]");
    }
    if (op.kind == OpKind::kIncrement) {
      acked_[op.object] += op.delta;
    }
  }

  SimDuration Think(Client& c) override {
    return static_cast<SimDuration>(
        c.rng.Exponential(static_cast<double>(params_.think)));
  }

  Capability SampleTarget() const override { return caps_.front(); }
  InvokeArgs SampleArgs(OpKind kind) const override {
    InvokeArgs args;
    if (kind == OpKind::kIncrement) {
      args.AddU64(1);
    }
    args.AddBytes(Bytes(params_.max_tag_bytes / 2, 0x5a));
    return args;
  }
  InvokeArgs SampleResults(OpKind kind) const override {
    InvokeArgs results;
    if (kind != OpKind::kCheckpoint) {
      results.AddU64(1000);
    }
    return results;
  }

  void BeginWindow() override {
    for (size_t k = 0; k < params_.moves.size(); k++) {
      system_->sim().Schedule(params_.moves[k], [this, k] { StartMove(k); });
    }
  }

  bool AdminPending() const override { return admin_in_flight_ > 0; }

  // Exactly-once: every counter ends at its initial value plus the
  // increments the clients saw acknowledged on it.
  void FinalCheck(std::vector<std::string>* failures) override {
    failures->insert(failures->end(), setup_failures_.begin(),
                     setup_failures_.end());
    for (const std::string& failure : admin_failures_) {
      failures->push_back(failure);
    }
    constexpr size_t kBatch = 256;
    size_t wrong = 0;
    std::string first;
    for (size_t base = 0; base < caps_.size(); base += kBatch) {
      size_t end = std::min(base + kBatch, caps_.size());
      std::vector<eden::Future<InvokeResult>> reads;
      for (size_t i = base; i < end; i++) {
        reads.push_back(system_->node(LiveNode(i))
                            .Invoke(caps_[i], "read", {}, options_invoke_));
      }
      AwaitAll(reads);
      for (size_t i = base; i < end; i++) {
        const eden::Future<InvokeResult>& future = reads[i - base];
        uint64_t want = initial_[i] + acked_[i];
        auto got = future.ready() ? future.Get().results.U64At(0)
                                  : eden::StatusOr<uint64_t>(
                                        eden::UnavailableError("no reply"));
        if (!got.ok() || *got != want) {
          if (wrong++ == 0) {
            first = "exactly-once: counter " + std::to_string(i) +
                    " (created on node " + std::to_string(i % params_.nodes) +
                    ") ends at " +
                    (got.ok() ? std::to_string(*got) : std::string("nothing")) +
                    ", acknowledged increments say " + std::to_string(want);
          }
        }
      }
    }
    if (wrong > 0) {
      failures->push_back(first + " (" + std::to_string(wrong) +
                          " counters wrong)");
    }
  }

  void CollectAdmin(PassResult* out) override { out->move_ms = move_ms_; }

 private:
  // The i-th live member, round robin: clients follow membership changes,
  // as RunClosedLoopElastic's clients do.
  size_t LiveNode(size_t i) {
    live_.clear();
    for (const eden::Member& member : system_->members()) {
      if (!system_->node(member.node).failed()) {
        live_.push_back(member.node);
      }
    }
    return live_.empty() ? 0 : live_[i % live_.size()];
  }

  // The node where the counter is active (not a lease copy), if any.
  size_t HostOf(size_t object) const {
    const eden::ObjectName& name = caps_[object].name();
    for (size_t i = 0; i < system_->node_count(); i++) {
      if (system_->node(i).failed()) {
        continue;
      }
      auto active = system_->node(i).FindActive(name);
      if (active != nullptr && !active->is_replica) {
        return i;
      }
    }
    return kNoNode;
  }

  void StartMove(size_t k) {
    size_t object = by_rank_[k];
    size_t host = HostOf(object);
    if (host == kNoNode) {
      admin_failures_.push_back("move " + std::to_string(k) +
                                ": hot counter has no active host");
      return;
    }
    size_t destination = (host + params_.nodes / 2) % params_.nodes;
    auto active = system_->node(host).FindActive(caps_[object].name());
    BeginAdmin();
    SimTime start = system_->sim().now();
    eden::Future<Status> moved;
    {
      HostSpanScope span(*spans_, "move");
      moved = system_->node(host).MoveObject(
          active, system_->node(destination).station());
    }
    moved.OnReadyValue([this, k, start](const Status& status) {
      EndAdmin();
      move_ms_.push_back(
          static_cast<double>(system_->sim().now() - start) / 1e6);
      if (!status.ok()) {
        admin_failures_.push_back("move " + std::to_string(k) + " failed: " +
                                  status.ToString());
      }
    });
  }

  void BeginAdmin() {
    admin_in_flight_++;
    admin_epoch_++;
  }
  void EndAdmin() {
    admin_in_flight_--;
    admin_epoch_++;
  }

  ZipfParams params_;
  std::vector<Capability> caps_;
  std::vector<uint64_t> initial_;
  std::vector<uint64_t> issued_;
  std::vector<uint64_t> acked_;
  std::vector<size_t> by_rank_;
  std::vector<double> cdf_;
  std::vector<size_t> live_;
  std::vector<std::string> setup_failures_;
  std::vector<std::string> admin_failures_;
  int admin_in_flight_ = 0;
  uint64_t admin_epoch_ = 0;
  std::vector<double> move_ms_;
};

// ---------------------------------------------------------------------------
// Workload table and parameters (README.md, "Inputs").
// ---------------------------------------------------------------------------

size_t BulkShards() {
  size_t cores = std::max<size_t>(1, std::thread::hardware_concurrency());
  return std::min<size_t>(4, cores);
}

RingParams RingSmallParams() {
  RingParams params;
  params.nodes = 16;
  params.payload_min = 128;
  params.payload_max = 128;
  params.warm = Seconds(8);
  params.virtual_per_second = Seconds(25);
  params.min_window = Seconds(2);
  return params;
}

RingParams BulkParams() {
  RingParams params;
  params.nodes = 64;
  params.payload_min = 2048;
  params.payload_max = 6144;
  params.shards = BulkShards();
  params.await_pairs = 32;
  params.virtual_per_second = Milliseconds(2200);
  params.min_window = Seconds(1);
  return params;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       PassOptions options, HostSpans* spans) {
  if (name == "ring_small") {
    return std::make_unique<RingWorkload>(RingSmallParams(), seed, options,
                                          spans);
  }
  if (name == "bulk_sharded") {
    return std::make_unique<RingWorkload>(BulkParams(), seed, options, spans);
  }
  if (name == "zipf_mixed") {
    return std::make_unique<ZipfWorkload>(ZipfParams{}, seed, options, spans);
  }
  return nullptr;
}

// One full pass: set-up, timed window, drain and oracles.
PassResult RunPass(const RunConfig& config, PassOptions options,
                   HostSpans* spans) {
  auto workload = MakeWorkload(config.workload, config.seed, options, spans);
  workload->SetUp(HostClock::now());
  return workload->RunTimed();
}

void AddVirtual(const PassResult& pass, MetricList* m) {
  m->Add("inv_per_vs",
         Ratio(static_cast<double>(pass.window_completions()),
               eden::ToSeconds(pass.window)),
         "1/s");
  m->Add("inv_p50_ms", pass.all.PercentileMs(0.50), "ms");
  m->Add("inv_p99_ms", pass.all.PercentileMs(0.99), "ms");
  m->Add("read_p99_ms", pass.reads.PercentileMs(0.99), "ms");
  m->Add("write_p99_ms", pass.writes.PercentileMs(0.99), "ms");
}

// What the traced run must reproduce exactly: the virtual metrics, the
// per-kind completion counts and every shard's event-order digest. Node
// digests cannot be part of it: they hash whole messages, and a traced run's
// messages carry span ids (tests/parallel_sim_test.cc says the same).
std::string VirtualFingerprint(const PassResult& pass) {
  MetricList virtual_metrics;
  AddVirtual(pass, &virtual_metrics);
  std::string out;
  char buffer[64];
  for (const Metric& metric : virtual_metrics.all()) {
    std::snprintf(buffer, sizeof(buffer), "%s=%.9g ", metric.name.c_str(),
                  metric.value);
    out += buffer;
  }
  for (size_t k = 0; k < kOpKinds; k++) {
    out += kOpNames[k] + "=" + std::to_string(pass.window_ops[k]) + " ";
  }
  out += "attempted=" + std::to_string(pass.attempted) + " event_digests=";
  for (uint64_t digest : pass.event_digests) {
    std::snprintf(buffer, sizeof(buffer), "%016llx,",
                  static_cast<unsigned long long>(digest));
    out += buffer;
  }
  return out;
}

uint64_t CounterDelta(const PassResult& pass, const std::string& name) {
  return pass.after.rollup.CounterValue(name) -
         pass.before.rollup.CounterValue(name);
}

eden::Histogram HistogramDelta(const PassResult& pass,
                               const std::string& name) {
  const eden::Histogram* after = pass.after.rollup.FindHistogram(name);
  if (after == nullptr) {
    return eden::Histogram();
  }
  const eden::Histogram* before = pass.before.rollup.FindHistogram(name);
  return before == nullptr ? *after : after->DeltaSince(*before);
}

// What the sharded and telemetry comparisons measured (1 and 0 where the
// workload has neither).
struct Comparisons {
  double shard_speedup = 1;
  double layout_completion_ratio = 1;
  double telemetry_overhead_us = 0;
};

// The per-layer ledger (README.md, "Per-layer metrics"), from the traced
// pass's before/after snapshots and replays of its own inputs. Host-clock
// set-up figures come from the untraced pass.
void AddLayers(const PassResult& traced, const PassResult& untraced,
               const HostSpans& untraced_spans, const Comparisons& compared,
               uint64_t seed, MetricList* m) {
  double inv = static_cast<double>(traced.window_completions());
  auto per_inv = [&](const std::string& counter) {
    return Ratio(static_cast<double>(CounterDelta(traced, counter)), inv);
  };
  auto per_kinv = [&](const std::string& counter) {
    return 1000 * per_inv(counter);
  };
  auto us_per_inv = [&](double seconds) { return Ratio(seconds * 1e6, inv); };

  // sim
  uint64_t events = traced.after.events - traced.before.events;
  m->Add("sim.events_per_inv", Ratio(static_cast<double>(events), inv),
         "count");
  m->Add("sim.pending_events_max", static_cast<double>(traced.pending_max),
         "count");
  m->Add("sim.queue_replay_us_per_inv",
         us_per_inv(ReplayQueue(events,
                                static_cast<size_t>(traced.pending_mean + 0.5),
                                seed)),
         "us");
  m->Add("sim.shard_speedup", compared.shard_speedup, "ratio");
  m->Add("sim.layout_completion_ratio", compared.layout_completion_ratio,
         "ratio");

  // common: the frames the wire probe saw, or on the switched LAN (which has
  // no probe) the run's frame count at its mean size.
  SizeMix frames = traced.frames;
  uint64_t frames_sent = CounterDelta(traced, "lan.frames_sent");
  uint64_t wire_bytes = CounterDelta(traced, "lan.bytes_on_wire");
  if (traced.sharded && frames_sent > 0) {
    frames[wire_bytes / frames_sent] = frames_sent;
  }
  m->Add("bytes.crc_replay_us_per_inv", us_per_inv(ReplayCrc(frames)), "us");
  m->Add("bytes.fnv_replay_us_per_inv", us_per_inv(ReplayFnv(frames)), "us");

  // net: lan
  m->Add("lan.frames_per_inv", per_inv("lan.frames_sent"), "count");
  m->Add("lan.bytes_per_inv", per_inv("lan.bytes_on_wire"), "bytes");
  m->Add("lan.collisions_per_inv", per_inv("lan.collisions"), "count");
  m->Add("lan.transmit_failures_per_kinv", per_kinv("lan.transmit_failures"),
         "count");
  m->Add("lan.queue_delay_p99_ms",
         static_cast<double>(
             HistogramDelta(traced, "lan.queue_delay").Percentile(0.99)) /
             1e6,
         "ms");

  // net: transport
  m->Add("transport.retransmits_per_inv", per_inv("transport.retransmits"),
         "count");
  m->Add("transport.acks_per_inv", per_inv("transport.acks_sent"), "count");
  m->Add("transport.fragments_per_inv", per_inv("transport.fragments_sent"),
         "count");
  m->Add("transport.duplicates_per_kinv",
         per_kinv("transport.duplicates_suppressed"), "count");
  m->Add("transport.replay_us_per_inv",
         us_per_inv(ReplayTransport(MessageSizes(traced.codec), seed,
                                    traced.sharded)),
         "us");

  // kernel: codec and dispatch
  m->Add("kernel.codec_replay_us_per_inv", us_per_inv(ReplayCodec(traced.codec)),
         "us");
  m->Add("kernel.dispatches_per_inv", per_inv("kernel.dispatches"), "count");

  // kernel: location
  double queries =
      static_cast<double>(CounterDelta(traced, "kernel.locate.queries.broadcast") +
                          CounterDelta(traced, "kernel.locate.queries.directory"));
  double cache_hits =
      static_cast<double>(CounterDelta(traced, "kernel.locate.cache_hits"));
  m->Add("kernel.locate_queries_per_inv", Ratio(queries, inv), "count");
  m->Add("kernel.directory_lookups_per_inv", per_inv("kernel.directory.lookups"),
         "count");
  m->Add("kernel.directory_fallbacks_per_kinv",
         per_kinv("kernel.directory.fallbacks"), "count");
  m->Add("kernel.redirects_per_kinv", per_kinv("kernel.redirects_followed"),
         "count");
  m->Add("kernel.locate_cache_hit_ratio", Ratio(cache_hits, cache_hits + queries),
         "ratio");

  // kernel: leases
  double reads = static_cast<double>(
      traced.window_ops[static_cast<size_t>(OpKind::kGet)] +
      traced.window_ops[static_cast<size_t>(OpKind::kRead)]);
  double writes = static_cast<double>(
      traced.window_ops[static_cast<size_t>(OpKind::kPut)] +
      traced.window_ops[static_cast<size_t>(OpKind::kIncrement)]);
  double local_reads =
      static_cast<double>(CounterDelta(traced, "kernel.lease.local_reads"));
  m->Add("kernel.lease_local_read_ratio", Ratio(local_reads, reads), "ratio");
  m->Add("kernel.lease_local_reads_per_grant",
         Ratio(local_reads,
               static_cast<double>(CounterDelta(traced, "kernel.lease.grants"))),
         "ratio");
  m->Add("kernel.lease_recalls_per_write",
         Ratio(static_cast<double>(CounterDelta(traced, "kernel.lease.recalls")),
               writes),
         "count");

  // kernel: move and membership
  auto mean = [](const std::vector<double>& values) {
    double total = 0;
    for (double v : values) {
      total += v;
    }
    return Ratio(total, static_cast<double>(values.size()));
  };
  m->Add("kernel.move_ms", mean(traced.move_ms), "ms");
  // GracefulRestart is left out of zipf_mixed until restarts stop losing
  // acknowledged increments (README.md, "Faults"); the metric stays in the
  // ledger so the restart can return without a schema change.
  m->Add("kernel.restart_ms", 0, "ms");

  // storage
  double checkpoints =
      static_cast<double>(CounterDelta(traced, "kernel.checkpoints"));
  m->Add("store.writes_per_ckpt",
         Ratio(static_cast<double>(CounterDelta(traced, "store.writes")),
               checkpoints),
         "count");
  m->Add("store.bytes_per_ckpt",
         Ratio(static_cast<double>(CounterDelta(traced, "store.written_bytes")),
               checkpoints),
         "bytes");
  m->Add("store.batch_ops_per_flush",
         Ratio(static_cast<double>(CounterDelta(traced, "store.batched_writes")),
               static_cast<double>(CounterDelta(traced, "store.batch_flushes"))),
         "count");
  m->Add("store.write_latency_p99_ms",
         static_cast<double>(
             HistogramDelta(traced, "store.write.latency").Percentile(0.99)) /
             1e6,
         "ms");

  // trace: the critical-path phase split of every trace the window finished
  const eden::SpanKind kPhases[] = {
      eden::SpanKind::kWire,       eden::SpanKind::kDispatch,
      eden::SpanKind::kLocate,     eden::SpanKind::kDirectory,
      eden::SpanKind::kLease,      eden::SpanKind::kActivation,
      eden::SpanKind::kStoreRead,  eden::SpanKind::kStoreWrite,
      eden::SpanKind::kCheckpoint, eden::SpanKind::kMove};
  double phase_total = 0;
  double phase_sum[eden::kSpanKindCount] = {};
  for (size_t k = 0; k < eden::kSpanKindCount; k++) {
    std::string name = "trace.phase." +
                       std::string(eden::SpanKindName(
                           static_cast<eden::SpanKind>(k))) +
                       ".latency";
    phase_sum[k] = static_cast<double>(HistogramDelta(traced, name).sum());
    phase_total += phase_sum[k];
  }
  for (eden::SpanKind kind : kPhases) {
    m->Add("phase." + std::string(eden::SpanKindName(kind)) + "_share",
           Ratio(phase_sum[static_cast<size_t>(kind)], phase_total), "ratio");
  }
  m->Add("trace.spans_per_inv",
         Ratio(static_cast<double>(traced.after.spans_started -
                                   traced.before.spans_started),
               inv),
         "count");

  // telemetry
  m->Add("telemetry.scrapes_per_vs",
         Ratio(static_cast<double>(CounterDelta(traced, "telemetry.scrapes")),
               eden::ToSeconds(traced.window)),
         "1/s");
  m->Add("telemetry.overhead_us_per_inv", compared.telemetry_overhead_us, "us");

  // workload set-up (host clock, untraced pass)
  double objects = static_cast<double>(untraced.objects);
  m->Add("setup.create_us_per_obj",
         Ratio(untraced_spans.Seconds("create") * 1e6, objects), "us");
  m->Add("setup.checkpoint_us_per_obj",
         Ratio(untraced_spans.Seconds("checkpoint") * 1e6, objects), "us");
  m->Add("setup.warm_s", untraced_spans.Seconds("warm"), "s");
}

// Conservation: every timed invocation completed or failed, and none failed.
void CheckConservation(const PassResult& pass, std::vector<std::string>* out) {
  if (pass.attempted != pass.completed + pass.failed) {
    out->push_back("conservation: attempted " + std::to_string(pass.attempted) +
                   " != completed " + std::to_string(pass.completed) +
                   " + failed " + std::to_string(pass.failed));
  }
  if (pass.failed != 0) {
    out->push_back("conservation: " + std::to_string(pass.failed) +
                   " invocations failed");
  }
  if (pass.attempted == 0) {
    out->push_back("conservation: no invocation was attempted");
  }
}

void AddSampleCounts(const PassResult& pass, MetricList* info) {
  info->Add("window_vs", eden::ToSeconds(pass.window), "s");
  info->Add("samples_all", static_cast<double>(pass.all.size()), "count");
  info->Add("samples_read", static_cast<double>(pass.reads.size()), "count");
  info->Add("samples_write", static_cast<double>(pass.writes.size()), "count");
}

// Set-ups per plain run; set-up time is their median.
constexpr int kSetups = 3;

RunOutput RunPlain(const RunConfig& config) {
  RunOutput out;
  PassOptions options;
  options.seconds = config.seconds;
  HostSpans spans(false);
  std::vector<double> setups;
  for (int i = 0; i + 1 < kSetups; i++) {
    auto workload = MakeWorkload(config.workload, config.seed, options, &spans);
    setups.push_back(workload->SetUp(i == 0 ? ProcessStart() : HostClock::now()));
    std::vector<std::string> ignored;  // the timed set-up below checks it all
    workload->StopAndDrain(&ignored);
  }
  auto workload = MakeWorkload(config.workload, config.seed, options, &spans);
  setups.push_back(workload->SetUp(HostClock::now()));
  PassResult pass = workload->RunTimed();
  workload.reset();

  out.metrics.Add("inv_per_s", pass.window_rate(), "1/s");
  out.metrics.Add("cpu_us_per_inv", pass.window_cpu_us_per_inv(), "us");
  out.metrics.Add("setup_s", Median(setups), "s");
  out.metrics.Add("peak_rss_mb", pass.peak_rss_mb, "MB");
  AddVirtual(pass, &out.metrics);
  out.attempted = pass.attempted;
  out.failed = pass.failed;
  out.oracle_failures = pass.oracle_failures;
  CheckConservation(pass, &out.oracle_failures);
  AddSampleCounts(pass, &out.info);
  out.info.Add("window_wall_s", pass.window_wall_s, "s");
  return out;
}

RunOutput RunTraced(const RunConfig& config) {
  RunOutput out;
  PassOptions plain;
  plain.seconds = config.seconds;
  HostSpans untraced_spans(true);
  PassResult untraced = RunPass(config, plain, &untraced_spans);
  PassOptions traced_options = plain;
  traced_options.traced = true;
  HostSpans traced_spans(true);
  PassResult traced = RunPass(config, traced_options, &traced_spans);
  // Every pass checks its own outputs; a failure in any of them counts.
  auto keep_failures = [&out](const PassResult& pass) {
    out.oracle_failures.insert(out.oracle_failures.end(),
                               pass.oracle_failures.begin(),
                               pass.oracle_failures.end());
  };
  keep_failures(traced);
  keep_failures(untraced);

  Comparisons compared;
  if (config.workload == "bulk_sharded") {
    // The layout probes run the shortest window: they compare counts, and
    // the one-shard pass is the slowest pass of all.
    HostSpans spans(false);
    PassOptions one_shard = plain;
    one_shard.seconds = 0;
    one_shard.shards = 1;
    PassResult single = RunPass(config, one_shard, &spans);
    // The same inputs with the window straight after the Await-ed warm-up,
    // as users write it.
    PassOptions unaligned = one_shard;
    unaligned.shards = 0;
    unaligned.align_shards = false;
    PassResult as_written = RunPass(config, unaligned, &spans);
    compared.shard_speedup = Ratio(untraced.window_rate(), single.window_rate());
    // Smaller over larger, so 1.0 is layout-invariant whichever way the
    // counts part.
    double a = static_cast<double>(as_written.window_completions());
    double b = static_cast<double>(single.window_completions());
    compared.layout_completion_ratio = Ratio(std::min(a, b), std::max(a, b));
    out.info.Add("one_shard_window_completions",
                 static_cast<double>(single.window_completions()), "count");
    out.info.Add("unaligned_window_completions",
                 static_cast<double>(as_written.window_completions()), "count");
    keep_failures(single);
    keep_failures(as_written);
  }
  if (config.workload == "zipf_mixed") {
    PassOptions quiet = plain;
    quiet.telemetry = false;
    HostSpans spans(false);
    PassResult off = RunPass(config, quiet, &spans);
    keep_failures(off);
    compared.telemetry_overhead_us =
        untraced.window_cpu_us_per_inv() - off.window_cpu_us_per_inv();
    if (off.digests != untraced.digests) {
      out.oracle_failures.push_back(
          "telemetry: node digests with telemetry off differ from the run "
          "with telemetry on");
    }
  }

  AddLayers(traced, untraced, untraced_spans, compared, config.seed,
            &out.metrics);
  out.attempted = traced.attempted;
  out.failed = traced.failed;
  CheckConservation(traced, &out.oracle_failures);
  std::string plain_print = VirtualFingerprint(untraced);
  std::string traced_print = VirtualFingerprint(traced);
  if (plain_print != traced_print) {
    out.oracle_failures.push_back("traced run: virtual results differ from "
                                  "the untraced run: untraced {" +
                                  plain_print + "} traced {" + traced_print +
                                  "}");
  }
  AddSampleCounts(traced, &out.info);
  out.info.Add("node_digests_equal",
               traced.digests == untraced.digests ? 1 : 0, "bool");
  out.info.Add("untraced_window_inv_per_s", untraced.window_rate(), "1/s");
  out.info.Add("traced_window_inv_per_s", traced.window_rate(), "1/s");
  out.info.Add("tracing_overhead",
               1 - Ratio(traced.window_rate(), untraced.window_rate()), "ratio");
  out.host_spans_json = "{\"untraced\":" + untraced_spans.ToJson() +
                        ",\"traced\":" + traced_spans.ToJson() + "}";
  return out;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "ring_small" || name == "zipf_mixed" ||
         name == "bulk_sharded";
}

RunOutput RunWorkload(const RunConfig& config) {
  return config.trace ? RunTraced(config) : RunPlain(config);
}

}  // namespace perf
