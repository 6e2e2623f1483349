// Causal spans: cross-node invocation tracing (DESIGN.md §12).
//
// Per-event counts live in each node's MetricsRegistry (kernel.*); they
// cannot say where a location-independent invocation spent its time once the
// kernel fans out across locates, redirects, activations, checkpoint writes
// and retries on several nodes. Spans do: every unit of kernel work is a Span
// with a causal parent, identified by a SpanContext that rides inside the
// kernel's wire messages, so work performed on a remote node links to the
// invocation (or checkpoint, or move) that caused it. A SpanCollector shared
// by all node kernels assembles the spans of one trace into a tree,
// attributes the end-to-end latency to typed phases along the critical path,
// feeds trace.phase.* histograms, exports flame-style Chrome trace JSON with
// flow events between nodes, and keeps the K worst complete traces as
// exemplars. Together with the registry counters it is the only record of
// kernel events.
//
// Determinism contract (determinism_test relies on this): tracing never
// schedules simulation events, never consumes simulation randomness (span
// ids come from a collector-private counter), and SpanContext encodes
// FIXED-WIDTH on the wire — zeros when tracing is off — so message sizes,
// serialize costs, fragmentation and therefore the execution trace are
// bit-identical whether a collector is attached or not.
#ifndef EDEN_SRC_TRACE_SPAN_H_
#define EDEN_SRC_TRACE_SPAN_H_

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/kernel/name.h"
#include "src/metrics/metrics.h"
#include "src/net/lan.h"
#include "src/sim/time.h"

namespace eden {

// The causal identity carried on kernel messages. A zero span_id means "no
// tracing"; receivers then create no child spans.
struct SpanContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  // Local-only hint: index of this span in its trace's span array. Spans are
  // append-only while live, so the index is stable. NOT encoded on the wire;
  // a decoded context (slot unknown) is only ever used as a parent. EndSpan/
  // Annotate verify span_id before trusting it.
  uint32_t slot = 0;

  bool valid() const { return span_id != 0; }

  // Fixed-width (3 x u64, zeros when tracing is disabled) so message byte
  // sizes never depend on whether a collector is attached.
  void Encode(BufferWriter& writer) const;
  static StatusOr<SpanContext> Decode(BufferReader& reader);
};

// The typed phases of a distributed invocation. Each span has exactly one
// kind; critical-path attribution buckets time by kind, so these are also
// the trace.phase.* histogram names.
enum class SpanKind : uint8_t {
  kInvocation = 0,  // client-side Invoke: accepted -> completion (root/nested)
  kLocate = 1,      // location broadcast rounds on the invoking kernel
  kWire = 2,        // reliable send: first transmit -> ACK (or give-up)
  kDispatch = 3,    // coordinator: request accepted -> reply sent (incl. queue)
  kActivation = 4,  // passive -> active reincarnation
  kStoreRead = 5,   // stable-store read service (queue + seek + transfer)
  kStoreWrite = 6,  // stable-store write/delete service
  kCheckpoint = 7,  // one checkpoint operation (local or remote site)
  kMove = 8,        // object transfer, source side
  kDirectory = 9,   // one partitioned-directory lookup round (DESIGN.md §13)
  kLease = 10,      // lease recall window: write blocked -> leases cleared
};
constexpr size_t kSpanKindCount = 11;

std::string_view SpanKindName(SpanKind kind);

// A timestamped note on a span: retransmits, redirects followed, injected
// faults, backoff decisions.
struct SpanNote {
  SimTime when = 0;
  std::string text;
};

struct Span {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;  // 0 for a trace root
  SpanKind kind = SpanKind::kInvocation;
  StationId node = 0;
  ObjectName object;   // null when not applicable
  std::string label;   // operation, store key, peer, ...
  SimTime start = 0;
  SimTime end = 0;
  bool open = true;
  // Empty = closed clean; otherwise a short status ("timeout", "reset", ...).
  std::string status;
  std::vector<SpanNote> notes;

  SimDuration duration() const { return end - start; }
};

struct SpanCollectorConfig {
  // K worst complete traces kept (by root duration) for post-run dumps.
  size_t slow_exemplars = 4;
  // Most recent complete traces retained for export/inspection. Kept modest
  // by default: the retained trees are the traced hot path's largest cache
  // footprint (every finalized trace cycles through this window).
  size_t retain_completed = 64;
  // Safety caps; beyond them spans are counted as dropped, not recorded.
  size_t max_live_traces = 4096;
  size_t max_spans_per_trace = 512;

  // --- Flight recorder: tail-based retention (DESIGN.md §17) -----------------
  // When enabled, a finalized root trace is *retained* — critical-path
  // attribution, phase histograms, exemplar ranking, the completed() window —
  // only if it is interesting: slow (its end-to-end duration reaches the
  // top_p tail of the durations seen so far), annotated (any span closed
  // with a non-empty status or carries notes: faults, retries, timeouts),
  // or 1-in-N sampled by trace id (seed-stable — ids come from the
  // collector-private counter, never from simulation randomness). Every
  // other trace records its e2e latency (that histogram stays complete) and
  // is recycled on the spot, skipping the O(spans²) critical-path sweep —
  // the steady-state cost and memory of always-on tracing. Phase histograms
  // are therefore tail-sampled while this is on. Applies only to rooted
  // traces in an unsharded collector; per-shard fragment collectors keep
  // everything for Absorb to rejoin.
  struct Tail {
    bool enabled = false;
    double top_p = 0.05;     // retain the slowest top_p fraction
    uint64_t one_in_n = 64;  // deterministic baseline sample; 0 disables
    uint64_t warmup = 128;   // retain everything until this many roots seen
  };
  Tail tail;
};

struct SpanCollectorStats {
  uint64_t spans_started = 0;
  uint64_t spans_closed = 0;
  uint64_t traces_started = 0;
  uint64_t traces_completed = 0;
  uint64_t spans_dropped = 0;   // cap overflow
  uint64_t orphan_events = 0;   // End/Annotate for an unknown span
  // Flight-recorder accounting (zero unless tail.enabled): finalized root
  // traces kept vs recycled by the retention policy, and the most spans the
  // collector ever held at once (live + completed window + exemplar copies)
  // — the bounded-memory witness bench_tracing reports.
  uint64_t traces_retained = 0;
  uint64_t traces_discarded = 0;
  uint64_t spans_held_high_water = 0;
};

// Latency attribution for one trace: for every instant of the root span's
// lifetime, the time is charged to the kind of the *deepest* span covering
// that instant (ties: the later-started span). The per-kind times therefore
// sum exactly to the root's end-to-end duration. For a synchronous RPC chain
// this is the critical path; concurrent subtrees (e.g. mirrored checkpoint
// writes) are approximated by depth.
struct PhaseBreakdown {
  SimDuration by_kind[kSpanKindCount] = {};
  SimDuration total = 0;

  SimDuration of(SpanKind kind) const {
    return by_kind[static_cast<size_t>(kind)];
  }
};

// One assembled trace: every span sharing a trace_id, root first.
struct TraceTree {
  uint64_t trace_id = 0;
  std::vector<Span> spans;

  const Span* root() const { return spans.empty() ? nullptr : &spans[0]; }
  const Span* Find(uint64_t span_id) const;
};

// Shared by every node kernel (they are all one process); null pointers at
// the instrumentation sites mean tracing is off and cost one branch.
class SpanCollector {
 public:
  explicit SpanCollector(SpanCollectorConfig config = {});

  // Opens a span. An invalid `parent` starts a new trace rooted here.
  // Text parameters are string_views copied into the span only here, so hot
  // call sites pay no temporary std::string construction.
  SpanContext StartSpan(const SpanContext& parent, SpanKind kind,
                        StationId node, const ObjectName& object,
                        std::string_view label, SimTime now);
  void Annotate(const SpanContext& ctx, SimTime now, std::string_view note);
  // Closes a span; empty status = success. When this closes the last open
  // span of a trace whose root is closed, the trace is finalized: phase
  // histograms are recorded and the tree moves to completed()/exemplars.
  void EndSpan(const SpanContext& ctx, SimTime now,
               std::string_view status = {});

  // Force-closes every still-open span (status "unclosed") and finalizes
  // root-closed traces. Call after a run involving node failures, where
  // server-side spans on a dead node can never close normally.
  void Flush(SimTime now);

  // Completed traces, oldest first (bounded by retain_completed).
  const std::deque<TraceTree>& completed() const { return completed_; }
  // The K worst complete traces by root duration, worst first.
  const std::vector<TraceTree>& slow_exemplars() const { return exemplars_; }
  // Looks in completed traces first, then live ones; nullptr if unknown.
  // The returned tree for a live trace is a snapshot copy into `scratch`.
  const TraceTree* FindTrace(uint64_t trace_id, TraceTree& scratch) const;

  static PhaseBreakdown CriticalPath(const TraceTree& tree);

  // Human-readable per-phase table for one breakdown ("  wire 3.2ms 41%").
  static std::string FormatBreakdown(const PhaseBreakdown& breakdown);
  // Human-readable dump of the slow exemplars: per-trace span tree plus its
  // critical-path breakdown.
  std::string DumpSlowTraces() const;

  // Chrome trace-event JSON over the completed traces: every span is an "X"
  // slice (pid = node, tid = trace id), cross-node parent->child edges are
  // flow events, notes are instant events. Loadable in chrome://tracing.
  std::string ExportChromeTrace() const;

  // Mirrors phase attributions into `registry` as trace.phase.<kind>
  // histograms plus trace.e2e.latency, recorded when each trace finalizes,
  // and — when tail retention is on — trace.tail.{retained,discarded}
  // counters plus the trace.spans.{held,high_water} gauges. The registry
  // must outlive this collector; nullptr detaches.
  void set_metrics(MetricsRegistry* registry);

  const SpanCollectorConfig& config() const { return config_; }
  // Spans currently held (live + completed window + exemplar copies).
  size_t spans_held() const { return held_spans_; }

  // --- Shard-local collection (DESIGN.md §14) --------------------------------
  // Under the parallel engine each shard gets its own collector (collectors
  // are not thread-safe). set_id_base partitions the id space — shard s uses
  // (s << 56) | 1 — so span/trace ids never collide across collectors.
  void set_id_base(uint64_t base) { next_id_ = base; }
  // Fragment mode: a child span whose parent trace is unknown (its root
  // lives in another shard's collector) is recorded locally as a trace
  // fragment instead of being dropped; Absorb reunites fragments with their
  // roots by trace_id. Off by default — a plain collector keeps the legacy
  // late-child-is-dropped policy.
  void set_fragments_enabled(bool on) { fragments_enabled_ = on; }
  // Merges `other`'s completed traces (and stats) into this collector,
  // joining same-trace_id trees so cross-shard traces export as one tree,
  // and re-ranks the slow exemplars over the merged retained window.
  // `other` is left empty of completed traces. Flush `other` first if open
  // spans should be force-closed.
  void Absorb(SpanCollector& other);

  const SpanCollectorStats& stats() const { return stats_; }
  size_t live_traces() const { return live_.size(); }
  void Clear();

 private:
  struct LiveTrace {
    TraceTree tree;
    size_t open_spans = 0;
    bool root_closed = false;
    // Root lives in another shard's collector (see set_fragments_enabled);
    // finalizes when its local spans close, without a root.
    bool fragment = false;
  };
  using LiveMap = std::unordered_map<uint64_t, LiveTrace>;

  Span* FindOpen(LiveTrace* trace, uint64_t span_id);
  Span* FindOpen(LiveTrace* trace, const SpanContext& ctx);
  LiveTrace* FindLive(const SpanContext& ctx);
  // live_ lookup-cache maintenance (see live_cache_ below).
  void CacheLive(uint64_t trace_id, LiveTrace* trace) {
    size_t slot = trace_id & (kLiveCacheSize - 1);
    live_cache_ids_[slot] = trace_id;
    live_cache_[slot] = trace;
  }
  void UncacheLive(uint64_t trace_id) {
    size_t slot = trace_id & (kLiveCacheSize - 1);
    if (live_cache_ids_[slot] == trace_id) {
      live_cache_ids_[slot] = 0;
      live_cache_[slot] = nullptr;
    }
  }
  void MaybeFinalize(uint64_t trace_id, LiveTrace& trace);
  void Finalize(uint64_t trace_id, LiveTrace&& trace);
  // Flight-recorder decision for a finalized root trace (see config_.tail).
  // Records `e2e` into the tail-duration distribution either way.
  bool RetainUnderTailPolicy(const TraceTree& tree, SimDuration e2e);
  void RecordPhaseMetrics(const PhaseBreakdown& breakdown);
  void KeepExemplar(const TraceTree& tree);
  // held_spans_ bookkeeping: every span entering / leaving retained storage
  // passes through these, and the high-water mark updates on growth.
  void HoldSpans(size_t n);
  void ReleaseSpans(size_t n);
  // Rebuilds held_spans_ from retained storage after Absorb moves trees
  // wholesale between collectors.
  void RecountHeldSpans();
  // Returns a retiring tree's span storage to spare_spans_, so the traced
  // steady state allocates no per-trace vectors.
  void Recycle(TraceTree&& tree);

  SpanCollectorConfig config_;
  SpanCollectorStats stats_;
  uint64_t next_id_ = 1;
  bool fragments_enabled_ = false;

  LiveMap live_;
  // Direct-mapped lookup cache over live_: at saturation a closed-loop
  // client per node keeps that many traces interleaved, so a one-entry
  // cache thrashes while a small table keeps every in-flight trace's probe
  // a single compare. Node-based map pointers are stable across rehash and
  // insertion; extraction (finalize) and Clear invalidate the slot.
  static constexpr size_t kLiveCacheSize = 64;  // power of two
  std::array<uint64_t, kLiveCacheSize> live_cache_ids_ = {};
  std::array<LiveTrace*, kLiveCacheSize> live_cache_ = {};
  std::deque<TraceTree> completed_;
  std::vector<TraceTree> exemplars_;  // sorted worst-first
  // Recycled storage: the traced steady state starts a trace without any
  // allocation — map nodes and span vectors both come from retired traces.
  std::vector<std::vector<Span>> spare_spans_;
  std::vector<LiveMap::node_type> spare_nodes_;

  // Tail-retention state: the distribution of every finalized root's e2e
  // duration (fed whether or not the trace was retained — the top-p slow
  // threshold must see the full population), and the span-held accounting.
  Histogram tail_durations_;
  // Cached top-p slow threshold, refreshed every kTailThresholdRefresh
  // finalized roots (-1 = not yet computed). The refresh cadence is keyed on
  // tail_durations_.count(), so the retention decisions remain a pure
  // function of the execution.
  static constexpr uint64_t kTailThresholdRefresh = 64;
  SimDuration tail_threshold_ = -1;
  size_t held_spans_ = 0;

  MetricsRegistry* registry_ = nullptr;
  Histogram* phase_hist_[kSpanKindCount] = {};
  Histogram* e2e_hist_ = nullptr;
  Counter* traces_completed_counter_ = nullptr;
  Counter* tail_retained_counter_ = nullptr;
  Counter* tail_discarded_counter_ = nullptr;
  Gauge* spans_held_gauge_ = nullptr;
  Gauge* spans_high_water_gauge_ = nullptr;
};

}  // namespace eden

#endif  // EDEN_SRC_TRACE_SPAN_H_
