// Tests for the kernel's event record: the registry counters every kernel
// event increments, and the causal spans (DESIGN.md §12).
#include <gtest/gtest.h>

#include <set>

#include "src/kernel/eden_system.h"
#include "src/trace/span.h"
#include "src/types/standard_types.h"

namespace eden {
namespace {

class TraceFixture : public ::testing::Test {
 protected:
  TraceFixture() {
    RegisterStandardTypes(system_);
    system_.AddNodes(3);
  }

  // `name` summed over every node's registry.
  uint64_t Count(const std::string& name) const {
    return system_.Rollup().CounterValue(name);
  }

  EdenSystem system_;
};

TEST_F(TraceFixture, InvocationLifecycleIsRecorded) {
  auto cap = system_.node(0).CreateObject("std.counter", Representation{});
  ASSERT_TRUE(cap.ok());
  system_.Await(system_.node(1).Invoke(*cap, "increment"));

  EXPECT_GE(Count("kernel.invoke.started"), 1u);
  EXPECT_GE(Count("kernel.invoke.completed"), 1u);
  EXPECT_GE(Count("kernel.dispatches"), 1u);
  // The default backend resolves through the partitioned directory.
  EXPECT_GE(Count("kernel.directory.lookups"), 1u);
}

TEST_F(TraceFixture, MeanInvocationLatencyMatchesPairs) {
  auto cap = system_.node(0).CreateObject("std.counter", Representation{});
  ASSERT_TRUE(cap.ok());
  for (int i = 0; i < 5; i++) {
    system_.Await(system_.node(1).Invoke(*cap, "increment"));
  }
  MetricsRegistry rollup = system_.Rollup();
  const Histogram* remote = rollup.FindHistogram("kernel.invoke.latency.remote");
  ASSERT_NE(remote, nullptr);
  EXPECT_EQ(remote->count(), 5u);
  // Remote invocations in the default configuration land near 700-900 us.
  EXPECT_GT(remote->mean(), Microseconds(400));
  EXPECT_LT(remote->mean(), Milliseconds(5));
}

TEST_F(TraceFixture, LifecycleEventsForCheckpointCrashActivation) {
  auto cap = system_.node(0).CreateObject("std.counter", Representation{});
  ASSERT_TRUE(cap.ok());
  system_.Await(system_.node(0).CheckpointObject(cap->name()));
  system_.Await(system_.node(0).Invoke(*cap, "crash"));
  system_.Await(system_.node(1).Invoke(*cap, "read"));

  EXPECT_EQ(Count("kernel.checkpoints"), 1u);
  EXPECT_EQ(Count("kernel.crashes"), 1u);
  EXPECT_EQ(Count("kernel.activations"), 1u);
}

TEST_F(TraceFixture, NodeFailureAndMoveAreTraced) {
  auto cap = system_.node(0).CreateObject("std.counter", Representation{});
  auto object = system_.node(0).FindActive(cap->name());
  system_.Await(system_.node(0).MoveObject(object, system_.node(2).station()));
  system_.RunFor(Milliseconds(10));
  system_.node(1).FailNode();
  EXPECT_TRUE(system_.node(1).failed());
  system_.node(1).RestartNode();
  EXPECT_FALSE(system_.node(1).failed());

  EXPECT_EQ(Count("kernel.moves_out"), 1u);
  EXPECT_EQ(Count("kernel.moves_in"), 1u);
}

// ---------------------------------------------------------------------------
// Causal spans (DESIGN.md §12).

class SpanFixture : public ::testing::Test {
 protected:
  SpanFixture() {
    RegisterStandardTypes(system_);
    system_.set_span_collector(&spans_);
    system_.AddNodes(3);
  }

  // Every trace finalizes only once its reply-ACK wire spans close, a little
  // after the invocation future resolves — give the simulation time to drain.
  void Drain() { system_.RunFor(Milliseconds(20)); }

  EdenSystem system_;
  SpanCollector spans_;
};

// The PR's acceptance shape: a cross-node invocation that needs a location
// broadcast and an on-demand activation produces ONE span tree, fully
// parent-linked across all three kernels, whose per-phase critical-path
// durations sum exactly to the end-to-end latency.
TEST_F(SpanFixture, CrossNodeActivationTreeSumsToEndToEndLatency) {
  auto cap = system_.node(0).CreateObject("std.counter", Representation{});
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(system_.Await(system_.node(0).CheckpointObject(cap->name())).ok());
  system_.Await(system_.node(0).Invoke(*cap, "crash"));
  Drain();
  spans_.Clear();  // Drop the setup traces; measure only the next invocation.

  SimTime before = system_.sim().now();
  ASSERT_TRUE(system_.Await(system_.node(2).Invoke(*cap, "read")).ok());
  SimTime after = system_.sim().now();
  Drain();

  ASSERT_EQ(spans_.completed().size(), 1u);
  EXPECT_EQ(spans_.live_traces(), 0u);
  const TraceTree& tree = spans_.completed().front();
  const Span* root = tree.root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->kind, SpanKind::kInvocation);
  EXPECT_EQ(root->parent_span_id, 0u);
  EXPECT_EQ(root->node, system_.node(2).station());

  // Every non-root span links to a parent inside the same tree, and the
  // phases cross at least the invoking and activating kernels.
  std::set<SpanKind> kinds;
  std::set<StationId> nodes;
  for (const Span& span : tree.spans) {
    EXPECT_FALSE(span.open);
    kinds.insert(span.kind);
    nodes.insert(span.node);
    if (span.span_id != root->span_id) {
      EXPECT_NE(tree.Find(span.parent_span_id), nullptr)
          << "unlinked " << SpanKindName(span.kind) << " span";
    }
  }
  EXPECT_TRUE(kinds.count(SpanKind::kLocate));
  EXPECT_TRUE(kinds.count(SpanKind::kWire));
  EXPECT_TRUE(kinds.count(SpanKind::kDispatch));
  EXPECT_TRUE(kinds.count(SpanKind::kActivation));
  EXPECT_TRUE(kinds.count(SpanKind::kStoreRead));
  EXPECT_GE(nodes.size(), 2u);

  // Attribution is exhaustive: the typed phases partition the root interval.
  PhaseBreakdown breakdown = SpanCollector::CriticalPath(tree);
  SimDuration sum = 0;
  for (size_t k = 0; k < kSpanKindCount; k++) {
    sum += breakdown.by_kind[k];
  }
  EXPECT_EQ(sum, root->duration());
  EXPECT_EQ(breakdown.total, root->duration());
  // ...and the root interval is the end-to-end latency the caller saw.
  EXPECT_GE(root->start, before);
  EXPECT_LE(root->end, after);
  EXPECT_EQ(root->duration(), after - before);
  // Activation work shows up either as the activation phase itself or as the
  // deeper store reads it issues (attribution charges the deepest span).
  EXPECT_GT(breakdown.of(SpanKind::kActivation) +
                breakdown.of(SpanKind::kStoreRead),
            SimDuration{0});
}

TEST_F(SpanFixture, RedirectAfterMoveIsAnnotatedOnTheInvocationSpan) {
  auto cap = system_.node(0).CreateObject("std.counter", Representation{});
  ASSERT_TRUE(cap.ok());
  // Warm node2's location cache, then move the object out from under it.
  ASSERT_TRUE(system_.Await(system_.node(2).Invoke(*cap, "increment")).ok());
  auto object = system_.node(0).FindActive(cap->name());
  ASSERT_NE(object, nullptr);
  ASSERT_TRUE(
      system_
          .Await(system_.node(0).MoveObject(object, system_.node(1).station()))
          .ok());
  Drain();
  spans_.Clear();

  ASSERT_TRUE(system_.Await(system_.node(2).Invoke(*cap, "read")).ok());
  Drain();

  ASSERT_GE(spans_.completed().size(), 1u);
  const TraceTree& tree = spans_.completed().back();
  bool redirect_noted = false;
  for (const Span& span : tree.spans) {
    for (const SpanNote& note : span.notes) {
      redirect_noted |= note.text.find("redirect") != std::string::npos;
    }
  }
  EXPECT_TRUE(redirect_noted);
}

// Spans must close even when the kernel path fails: invoking a dead node's
// object runs locate timeouts, wire give-ups and a failed invocation, and
// after the dust settles no span may still be open.
TEST_F(SpanFixture, FailureAndTimeoutPathsCloseEverySpan) {
  auto cap = system_.node(0).CreateObject("std.counter", Representation{});
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(system_.Await(system_.node(1).Invoke(*cap, "increment")).ok());
  Drain();
  system_.node(0).FailNode();

  auto result = system_.Await(system_.node(1).Invoke(
      *cap, "read", InvokeArgs{}, InvokeOptions::WithTimeout(Seconds(5))));
  EXPECT_FALSE(result.ok());
  system_.RunFor(Seconds(10));  // Let retransmits give up.
  spans_.Flush(system_.sim().now());

  EXPECT_EQ(spans_.live_traces(), 0u);
  EXPECT_EQ(spans_.stats().spans_started, spans_.stats().spans_closed);
  // The failed invocation's root must carry a non-empty status.
  bool saw_failed_root = false;
  for (const TraceTree& tree : spans_.completed()) {
    const Span* root = tree.root();
    if (root->kind == SpanKind::kInvocation && !root->status.empty()) {
      saw_failed_root = true;
    }
  }
  EXPECT_TRUE(saw_failed_root);
}

TEST_F(SpanFixture, PhaseHistogramsLandInSystemMetrics) {
  auto cap = system_.node(0).CreateObject("std.counter", Representation{});
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(system_.Await(system_.node(1).Invoke(*cap, "increment")).ok());
  Drain();

  const Histogram* e2e = system_.metrics().FindHistogram("trace.e2e.latency");
  ASSERT_NE(e2e, nullptr);
  EXPECT_GE(e2e->count(), 1u);
  const Histogram* wire =
      system_.metrics().FindHistogram("trace.phase.wire.latency");
  ASSERT_NE(wire, nullptr);
  EXPECT_GE(wire->count(), 1u);
  EXPECT_NE(system_.MetricsJson().find("trace.phase.dispatch"),
            std::string::npos);
}

TEST_F(SpanFixture, ChromeExportAndSlowDumpAreWellFormed) {
  auto cap = system_.node(0).CreateObject("std.counter", Representation{});
  ASSERT_TRUE(cap.ok());
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(system_.Await(system_.node(1).Invoke(*cap, "increment")).ok());
  }
  Drain();

  std::string chrome = spans_.ExportChromeTrace();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"X\""), std::string::npos);  // span slices
  EXPECT_NE(chrome.find("\"s\""), std::string::npos);  // cross-node flow start
  EXPECT_NE(chrome.find("\"f\""), std::string::npos);  // flow finish

  EXPECT_FALSE(spans_.slow_exemplars().empty());
  std::string dump = spans_.DumpSlowTraces();
  EXPECT_NE(dump.find("critical path:"), std::string::npos);
  EXPECT_NE(dump.find("invoke"), std::string::npos);
}

// Lease traffic is its own phase (DESIGN.md §15): a write that must recall an
// outstanding read lease produces a kLease span inside its invocation tree,
// and the typed phases still partition the end-to-end latency exactly.
TEST(LeaseSpanTest, RecallWindowIsAttributedToLeasePhaseAndSumsToEndToEnd) {
  SystemConfig config;
  config.kernel.lease_reads = true;
  EdenSystem system(config);
  SpanCollector spans;
  system.set_span_collector(&spans);
  RegisterStandardTypes(system);
  system.AddNodes(3);

  auto cap = system.node(0).CreateObject("std.counter", Representation{});
  ASSERT_TRUE(cap.ok());
  // A remote read picks up a lease; let the grant land and setup traces close.
  ASSERT_TRUE(system.Await(system.node(1).Invoke(*cap, "read")).ok());
  system.RunFor(Milliseconds(20));
  spans.Clear();

  SimTime before = system.sim().now();
  ASSERT_TRUE(system.Await(system.node(2).Invoke(*cap, "increment")).ok());
  SimTime after = system.sim().now();
  system.RunFor(Milliseconds(20));

  // Find the write's tree: rooted at node 2's invocation.
  const TraceTree* write_tree = nullptr;
  for (const TraceTree& tree : spans.completed()) {
    const Span* root = tree.root();
    if (root != nullptr && root->kind == SpanKind::kInvocation &&
        root->node == system.node(2).station()) {
      write_tree = &tree;
    }
  }
  ASSERT_NE(write_tree, nullptr);
  const Span* root = write_tree->root();
  EXPECT_EQ(root->duration(), after - before);

  // The recall span is present, closed, and parent-linked into this tree.
  bool saw_lease_span = false;
  for (const Span& span : write_tree->spans) {
    EXPECT_FALSE(span.open);
    if (span.kind == SpanKind::kLease) {
      saw_lease_span = true;
      EXPECT_NE(write_tree->Find(span.parent_span_id), nullptr);
    }
  }
  EXPECT_TRUE(saw_lease_span);

  // Attribution stays exhaustive with the new phase in play, and the recall
  // window actually charges time to it.
  PhaseBreakdown breakdown = SpanCollector::CriticalPath(*write_tree);
  SimDuration sum = 0;
  for (size_t k = 0; k < kSpanKindCount; k++) {
    sum += breakdown.by_kind[k];
  }
  EXPECT_EQ(sum, root->duration());
  EXPECT_GT(breakdown.of(SpanKind::kLease), SimDuration{0});
}

// A collector with tracing spanning checkpoints and moves: driver-initiated
// checkpoints and moves root their own traces and close cleanly.
TEST_F(SpanFixture, CheckpointAndMoveRootTheirOwnTraces) {
  auto cap = system_.node(0).CreateObject("std.counter", Representation{});
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(system_.Await(system_.node(0).CheckpointObject(cap->name())).ok());
  auto object = system_.node(0).FindActive(cap->name());
  ASSERT_NE(object, nullptr);
  ASSERT_TRUE(
      system_
          .Await(system_.node(0).MoveObject(object, system_.node(2).station()))
          .ok());
  Drain();

  bool saw_checkpoint_root = false;
  bool saw_move_root = false;
  for (const TraceTree& tree : spans_.completed()) {
    const Span* root = tree.root();
    saw_checkpoint_root |= root->kind == SpanKind::kCheckpoint;
    saw_move_root |= root->kind == SpanKind::kMove;
  }
  EXPECT_TRUE(saw_checkpoint_root);
  EXPECT_TRUE(saw_move_root);
  EXPECT_EQ(spans_.live_traces(), 0u);
}

}  // namespace
}  // namespace eden
