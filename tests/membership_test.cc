// Elastic membership (DESIGN.md §16): live join/leave/drain, the background
// rebalancer, directory partition handoff, and rolling restarts with zero
// lost or duplicated invocations. The RollingRestart cases are the
// acceptance scenario for ROADMAP item 5: every node of a 16-node
// installation is drained, restarted and refilled under continuous
// closed-loop traffic, and the run must lose nothing, duplicate nothing, and
// reproduce bit-identically under the same seed.
#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <set>
#include <vector>

#include "src/fault/fault.h"
#include "src/kernel/eden_system.h"
#include "src/kernel/location.h"
#include "src/kernel/message.h"
#include "src/kernel/placement.h"
#include "src/workload/workload.h"
#include "tests/test_util.h"

namespace eden {
namespace {

InvokeResult Call(EdenSystem& system, NodeKernel& from, const Capability& cap,
                  const std::string& op, InvokeArgs args = {}) {
  return system.Await(from.Invoke(cap, op, std::move(args)));
}

uint64_t CounterValue(EdenSystem& system, NodeKernel& from,
                      const Capability& cap) {
  InvokeResult result = Call(system, from, cap, "read");
  EXPECT_TRUE(result.ok()) << result.status;
  return result.results.U64At(0).value_or(0);
}

uint64_t SumCounter(EdenSystem& system, const std::string& name) {
  uint64_t total = 0;
  for (size_t i = 0; i < system.node_count(); i++) {
    total += system.node(i).metrics().counter(name).value();
  }
  return total;
}

// ---------------------------------------------------------------------------
// Lifecycle basics
// ---------------------------------------------------------------------------

TEST(Membership, LifecycleTransitionsAndMemberSet) {
  EdenSystem system;
  system.RegisterType(MakeCounterType());
  system.AddNodes(4);
  EXPECT_EQ(system.members().size(), 4u);
  for (size_t i = 0; i < 4; i++) {
    EXPECT_EQ(system.lifecycle(i), NodeLifecycle::kActive);
  }
  uint64_t epoch_before = system.membership_epoch();

  // Give the drainer something to evacuate so the drain is observable.
  ASSERT_TRUE(system.node(3).CreateObject("counter", CounterRep()).ok());

  Future<Status> left = system.LeaveNode(3);
  EXPECT_EQ(system.lifecycle(3), NodeLifecycle::kDraining);
  EXPECT_EQ(system.members().size(), 3u);  // drainer leaves immediately
  EXPECT_GT(system.membership_epoch(), epoch_before);
  Status status = system.Await(left);
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ(system.lifecycle(3), NodeLifecycle::kDeparted);
  EXPECT_TRUE(system.node(3).failed());

  // Double-leave is refused.
  Status again = system.Await(system.LeaveNode(3));
  EXPECT_FALSE(again.ok());

  // Departed nodes can rejoin; they warm up as joining first.
  ASSERT_TRUE(system.RejoinNode(3).ok());
  EXPECT_EQ(system.lifecycle(3), NodeLifecycle::kJoining);
  EXPECT_EQ(system.members().size(), 4u);  // joining nodes are members
  system.RunFor(system.config().membership.join_warmup + Milliseconds(1));
  EXPECT_EQ(system.lifecycle(3), NodeLifecycle::kActive);
}

TEST(Membership, JoinNodeWarmsUpIntoTheMemberSet) {
  EdenSystem system;
  system.RegisterType(MakeCounterType());
  system.AddNodes(3);

  NodeKernel& late = system.JoinNode("latecomer");
  size_t index = system.node_count() - 1;
  EXPECT_EQ(system.lifecycle(index), NodeLifecycle::kJoining);
  EXPECT_EQ(system.members().size(), 4u);
  EXPECT_FALSE(late.failed());
  system.RunFor(system.config().membership.join_warmup + Milliseconds(1));
  EXPECT_EQ(system.lifecycle(index), NodeLifecycle::kActive);

  // The newcomer serves traffic like any other node.
  auto cap = system.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  EXPECT_TRUE(Call(system, late, *cap, "increment").ok());
}

// ---------------------------------------------------------------------------
// Drain correctness
// ---------------------------------------------------------------------------

TEST(Membership, DrainMovesObjectsOffAndKeepsThemInvokable) {
  EdenSystem system;
  system.RegisterType(MakeCounterType());
  system.AddNodes(4);

  std::vector<Capability> caps;
  for (int k = 0; k < 8; k++) {
    auto cap = system.node(1).CreateObject("counter", CounterRep());
    ASSERT_TRUE(cap.ok());
    caps.push_back(*cap);
    EXPECT_TRUE(
        Call(system, system.node(0), *cap, "increment", InvokeArgs{}.AddU64(k + 1))
            .ok());
  }
  // Half of them also have durable chains on the drainer's store.
  for (int k = 0; k < 4; k++) {
    EXPECT_TRUE(Call(system, system.node(0), caps[k], "checkpoint").ok());
  }
  ASSERT_EQ(system.node(1).active_count(), 8u);
  ASSERT_EQ(system.node(1).CheckpointInventory().size(), 4u);

  Status status = system.Await(system.LeaveNode(1));
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ(system.lifecycle(1), NodeLifecycle::kDeparted);

  // Every object survived the evacuation with its state, and nothing refers
  // to the departed store any more.
  for (int k = 0; k < 8; k++) {
    EXPECT_EQ(CounterValue(system, system.node(0), caps[k]),
              static_cast<uint64_t>(k + 1));
  }
  for (size_t i = 0; i < system.node_count(); i++) {
    if (i == 1) {
      continue;
    }
    for (const ObjectName& name : system.node(i).ActiveObjects()) {
      auto object = system.node(i).FindActive(name);
      ASSERT_NE(object, nullptr);
      EXPECT_NE(object->policy.primary_site, system.node(1).station())
          << "checkpoint chain still anchored at the departed store";
    }
  }
  EXPECT_GT(SumCounter(system, "kernel.moves_in"), 0u);
}

TEST(Membership, HardLeaveFallsBackToCheckpointedState) {
  EdenSystem system;
  system.RegisterType(MakeCounterType());
  system.AddNodes(3);

  // Long-term state deliberately lives on node0, not on the node we yank.
  CreateOptions options;
  options.policy = CheckpointPolicy{system.node(0).station(),
                                    ReliabilityLevel::kLocal, 0};
  auto cap = system.node(1).CreateObject("counter", CounterRep(), options);
  ASSERT_TRUE(cap.ok());
  EXPECT_TRUE(Call(system, system.node(2), *cap, "increment",
                   InvokeArgs{}.AddU64(7))
                  .ok());
  EXPECT_TRUE(Call(system, system.node(2), *cap, "checkpoint").ok());
  // This tail increment is volatile-only; a hard departure may lose it.
  EXPECT_TRUE(Call(system, system.node(2), *cap, "increment").ok());

  Status status = system.Await(system.LeaveNode(1, /*drain=*/false));
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_TRUE(system.node(1).failed());

  // The object reincarnates from its checkpoint: acked durable state
  // survives, the unsynced tail rolls back (same contract as a crash).
  EXPECT_EQ(CounterValue(system, system.node(2), *cap), 7u);
}

TEST(Membership, GracefulRestartPreservesLocalCheckpoints) {
  EdenSystem system;
  system.RegisterType(MakeCounterType());
  system.AddNodes(3);

  auto cap = system.node(1).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  EXPECT_TRUE(Call(system, system.node(0), *cap, "increment",
                   InvokeArgs{}.AddU64(3))
                  .ok());
  EXPECT_TRUE(Call(system, system.node(0), *cap, "checkpoint").ok());

  Status status = system.Await(system.GracefulRestart(1, Milliseconds(50)));
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ(system.lifecycle(1), NodeLifecycle::kJoining);
  system.RunFor(system.config().membership.join_warmup + Milliseconds(1));
  EXPECT_EQ(system.lifecycle(1), NodeLifecycle::kActive);
  EXPECT_FALSE(system.node(1).failed());

  // The drain moved the object off (it was active), so the value is intact —
  // including the unsynced tail, because nothing ever crashed while hosting.
  EXPECT_EQ(CounterValue(system, system.node(0), *cap), 3u);
  // The restart scan found the (now stale) chain still on node1's store and
  // its epoch-0 re-publish did NOT displace the live residence: the object
  // still answers with the live state from its new host.
  EXPECT_TRUE(system.node(1).HasCheckpoint(cap->name()));
}

// ---------------------------------------------------------------------------
// Directory handoff (satellite: fanout auto-flip + zero-fallback lookups)
// ---------------------------------------------------------------------------

TEST(Membership, DrainHandsOffDirectoryPartitionsWithoutFallbacks) {
  EdenSystem system;
  system.RegisterType(MakeCounterType());
  system.AddNodes(8);

  std::vector<Capability> caps;
  for (int k = 0; k < 20; k++) {
    auto cap = system.node(0).CreateObject("counter", CounterRep());
    ASSERT_TRUE(cap.ok());
    caps.push_back(*cap);
  }
  system.RunFor(Milliseconds(10));  // let the creation publishes land

  size_t drained_entries = system.node(3).location().directory_entries();
  Status status = system.Await(system.LeaveNode(3));
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ(system.node(3).location().directory_entries(), 0u);
  if (drained_entries > 0) {
    EXPECT_GT(SumCounter(system, "kernel.directory.handoffs"), 0u);
  }
  system.RunFor(Milliseconds(10));  // handoff pushes in flight

  // Cold-cache lookups for every object must all hit the directory: the
  // records that were homed on the drained node were handed off, not lost.
  uint64_t fallbacks_before = SumCounter(system, "kernel.directory.fallbacks");
  for (const Capability& cap : caps) {
    EXPECT_TRUE(Call(system, system.node(5), cap, "increment").ok());
  }
  EXPECT_EQ(SumCounter(system, "kernel.directory.fallbacks"), fallbacks_before);
}

TEST(Membership, AutoFanoutSurvivesHomeCrashDuringDrain) {
  // At >= 16 members the directory fanout default flips to 2: every
  // residence is recorded at two homes, so one home crashing mid-drain costs
  // nothing. 17 nodes so the member count stays at the threshold after the
  // drain and the redundancy holds through the membership change.
  EdenSystem system;
  system.RegisterType(MakeCounterType());
  system.AddNodes(17);

  auto cap = system.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  system.RunFor(Milliseconds(10));

  std::vector<StationId> homes = system.node(0).location().HomesOf(cap->name());
  ASSERT_EQ(homes.size(), 2u) << ">= 16 members should auto-flip fanout to 2";

  // Drain some non-home bystander; while it drains, crash one of the homes.
  size_t drain_index = 0;
  for (size_t i = 1; i < system.node_count(); i++) {
    StationId st = system.node(i).station();
    if (st != homes[0] && st != homes[1] && st != system.node(0).station()) {
      drain_index = i;
      break;
    }
  }
  ASSERT_NE(drain_index, 0u);
  Future<Status> left = system.LeaveNode(drain_index);
  NodeKernel* dead_home = system.NodeAt(homes[0]);
  ASSERT_NE(dead_home, nullptr);
  dead_home->FailNode();

  Status status = system.Await(left);
  EXPECT_TRUE(status.ok()) << status;
  // Let the membership-change handoffs finish: the crashed home's sends died
  // with it, and the surviving home's first frame may have collided with
  // them, so cover at least one transport retransmit interval.
  system.RunFor(Milliseconds(50));

  std::vector<StationId> homes_after =
      system.node(0).location().HomesOf(cap->name());
  EXPECT_EQ(homes_after.size(), 2u) << "fanout must stay 2 after the drain";

  // A cold-cache client resolves via a surviving home: no fallback
  // broadcast anywhere.
  uint64_t fallbacks_before = SumCounter(system, "kernel.directory.fallbacks");
  NodeKernel* client = nullptr;
  for (size_t i = 1; i < system.node_count(); i++) {
    StationId st = system.node(i).station();
    if (i != drain_index && st != homes[0] && st != homes[1] &&
        st != system.node(0).station()) {
      client = &system.node(i);
      break;
    }
  }
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(Call(system, *client, *cap, "increment").ok());
  EXPECT_EQ(SumCounter(system, "kernel.directory.fallbacks"), fallbacks_before);
}

// ---------------------------------------------------------------------------
// Placement policies
// ---------------------------------------------------------------------------

TEST(Membership, ConsistentHashMovesFarFewerHomesOnChurn) {
  std::vector<Member> members;
  for (size_t i = 0; i < 16; i++) {
    members.push_back(Member{i, static_cast<StationId>(100 + i)});
  }
  std::vector<Member> without_one = members;
  without_one.erase(without_one.begin() + 7);

  auto churn = [&](PlacementPolicyKind kind) {
    auto placement = Placement::Create(kind);
    int changed = 0;
    for (int k = 0; k < 400; k++) {
      ObjectName name(static_cast<uint32_t>(k % 16),
                      static_cast<uint64_t>(k) * 1315423911ull + 7,
                      static_cast<uint32_t>(k));
      placement->OnMembershipChange(members);
      auto before = placement->HomesOf(name, members, 1);
      placement->OnMembershipChange(without_one);
      auto after = placement->HomesOf(name, without_one, 1);
      if (before != after) {
        changed++;
      }
    }
    return changed;
  };

  int modulo_changed = churn(PlacementPolicyKind::kModulo);
  int ring_changed = churn(PlacementPolicyKind::kConsistentHash);
  // Removing 1 of 16 members reshuffles nearly everything under modulo but
  // only ~1/16th of the names under the ring.
  EXPECT_GT(modulo_changed, 300);
  EXPECT_LT(ring_changed, 100);
  EXPECT_LT(ring_changed * 3, modulo_changed);
}

TEST(Membership, SpreadPassRefillsALeanNode) {
  EdenSystem system;
  system.RegisterType(MakeCounterType());
  system.AddNodes(3);

  for (int k = 0; k < 9; k++) {
    ASSERT_TRUE(system.node(0).CreateObject("counter", CounterRep()).ok());
  }
  ASSERT_EQ(system.node(0).active_count(), 9u);

  system.rebalancer().set_spread_gap(1);
  system.rebalancer().EnsureRunning();
  system.RunFor(Seconds(2));

  size_t max_count = 0, min_count = SIZE_MAX;
  for (size_t i = 0; i < 3; i++) {
    max_count = std::max(max_count, system.node(i).active_count());
    min_count = std::min(min_count, system.node(i).active_count());
  }
  EXPECT_LE(max_count - min_count, 2u)
      << "spread pass should level 9 objects across 3 nodes";
}

// ---------------------------------------------------------------------------
// At-most-once: the reply cache, its acknowledgement floors, and moves
// ---------------------------------------------------------------------------

TEST(Membership, ReplyCacheTravelsWithMove) {
  EdenSystem system;
  system.RegisterType(MakeCounterType());
  system.AddNodes(3);

  auto cap = system.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());

  // A hand-rolled request with a fixed invocation id, delivered straight to
  // the object's host — standing in for a client whose ack got lost and who
  // will retry the identical message later.
  InvokeRequestMsg request;
  request.invocation_id = (999ull << 40) | 1;
  request.reply_to = system.node(2).station();
  request.target = *cap;
  request.operation = "increment";
  request.args = InvokeArgs{}.AddU64(5);
  Bytes wire = request.Encode();

  system.node(2).transport().SendReliable(system.node(0).station(),
                                          Bytes(wire));
  system.RunFor(Milliseconds(20));
  EXPECT_EQ(CounterValue(system, system.node(1), *cap), 5u);

  // The object moves; the at-most-once cache entries ride the transfer.
  auto object = system.node(0).FindActive(cap->name());
  ASSERT_NE(object, nullptr);
  Status moved = system.Await(
      system.node(0).MoveObject(object, system.node(1).station()));
  ASSERT_TRUE(moved.ok()) << moved;

  // The "retry" lands at the NEW home: it must be re-answered from the
  // carried cache, not re-executed.
  uint64_t dups_before =
      system.node(1).metrics().counter("kernel.duplicate_requests").value();
  system.node(2).transport().SendReliable(system.node(1).station(),
                                          Bytes(wire));
  system.RunFor(Milliseconds(20));
  EXPECT_EQ(CounterValue(system, system.node(2), *cap), 5u)
      << "retried increment was re-executed after the move";
  EXPECT_EQ(
      system.node(1).metrics().counter("kernel.duplicate_requests").value(),
      dups_before + 1);
}

// A hand-rolled increment from a client that does not exist (station 999),
// so the test alone decides its invocation ids and low-water marks.
Bytes FakeClientIncrement(EdenSystem& system, const Capability& cap,
                          uint64_t seq, uint64_t low_water_seq) {
  InvokeRequestMsg request;
  request.invocation_id = (999ull << kInvocationSeqBits) | seq;
  request.low_water = (999ull << kInvocationSeqBits) | low_water_seq;
  request.reply_to = system.node(2).station();
  request.target = cap;
  request.operation = "increment";
  request.args = InvokeArgs{}.AddU64(5);
  return request.Encode();
}

uint64_t Metric(NodeKernel& node, const std::string& name) {
  return node.metrics().counter(name).value();
}

// ROADMAP item 4's acceptance: the cache is bounded by acknowledgement, not
// by age, so a retry still finds its reply after far more than
// reply_cache_capacity other invocations have passed through the host.
TEST(Membership, RetryAfterManyInterveningInvocationsIsNotReExecuted) {
  EdenSystem system;
  system.RegisterType(MakeCounterType());
  system.AddNodes(3);
  auto cap = system.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());

  Bytes wire = FakeClientIncrement(system, *cap, /*seq=*/1, /*low_water=*/1);
  system.node(2).transport().SendReliable(system.node(0).station(),
                                          Bytes(wire));
  system.RunFor(Milliseconds(20));
  ASSERT_EQ(CounterValue(system, system.node(1), *cap), 5u);

  const size_t intervening =
      system.node(0).config().reply_cache_capacity + 100;
  for (size_t i = 0; i < intervening; i++) {
    ASSERT_TRUE(Call(system, system.node(1), *cap, "increment",
                     InvokeArgs{}.AddU64(1))
                    .ok());
  }
  uint64_t expected = 5 + intervening;
  ASSERT_EQ(CounterValue(system, system.node(1), *cap), expected);
  // Node 1's own replies left as its low-water mark passed them.
  EXPECT_LT(system.node(0).metrics().gauge("kernel.reply_cache.entries").value(),
            10);
  EXPECT_EQ(Metric(system.node(0), "kernel.reply_cache.cap_evictions"), 0u);

  uint64_t dups_before = Metric(system.node(0), "kernel.duplicate_requests");
  system.node(2).transport().SendReliable(system.node(0).station(),
                                          Bytes(wire));
  system.RunFor(Milliseconds(20));
  EXPECT_EQ(CounterValue(system, system.node(1), *cap), expected)
      << "the late retry executed a second time";
  EXPECT_EQ(Metric(system.node(0), "kernel.duplicate_requests"),
            dups_before + 1);
}

// Once a client's low-water mark passes an invocation, its reply is gone and
// a retry of it is dropped and counted, never executed.
TEST(Membership, RequestBelowTheClientFloorIsDropped) {
  EdenSystem system;
  system.RegisterType(MakeCounterType());
  system.AddNodes(3);
  auto cap = system.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  NodeKernel& host = system.node(0);
  Gauge& entries = host.metrics().gauge("kernel.reply_cache.entries");

  Bytes first = FakeClientIncrement(system, *cap, /*seq=*/2, /*low_water=*/2);
  system.node(2).transport().SendReliable(host.station(), Bytes(first));
  system.RunFor(Milliseconds(20));
  EXPECT_EQ(entries.value(), 1);

  // The client's next call says "everything below 10 has finished".
  system.node(2).transport().SendReliable(
      host.station(), FakeClientIncrement(system, *cap, 10, 10));
  system.RunFor(Milliseconds(20));
  EXPECT_EQ(entries.value(), 1) << "reply 2 should have left with the mark";
  ASSERT_EQ(CounterValue(system, system.node(1), *cap), 10u);

  system.node(2).transport().SendReliable(host.station(), Bytes(first));
  system.RunFor(Milliseconds(20));
  EXPECT_EQ(CounterValue(system, system.node(1), *cap), 10u);
  EXPECT_EQ(Metric(host, "kernel.reply_cache.stale_requests"), 1u);
}

// Past the safety cap the lowest id goes, and the lapse is counted.
TEST(Membership, ReplyCacheCapEvictsTheLowestIdAndCountsIt) {
  SystemConfig config;
  config.kernel.reply_cache_capacity = 2;
  EdenSystem system(config);
  system.RegisterType(MakeCounterType());
  system.AddNodes(3);
  auto cap = system.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  NodeKernel& host = system.node(0);

  // Three unacknowledged replies (the mark never rises) against a cap of 2.
  for (uint64_t seq : {1, 2, 3}) {
    system.node(2).transport().SendReliable(
        host.station(), FakeClientIncrement(system, *cap, seq, 1));
    system.RunFor(Milliseconds(20));
  }
  EXPECT_EQ(host.metrics().gauge("kernel.reply_cache.entries").value(), 2);
  EXPECT_EQ(Metric(host, "kernel.reply_cache.cap_evictions"), 1u);

  // Id 1 was the lowest, so its retry finds no reply and runs again.
  system.node(2).transport().SendReliable(
      host.station(), FakeClientIncrement(system, *cap, 1, 1));
  system.RunFor(Milliseconds(20));
  EXPECT_EQ(CounterValue(system, system.node(1), *cap), 20u);
}

// The floors ride the move, so the same stale retry is refused at the new
// home, which never saw the client.
TEST(Membership, StaleRetryIsDroppedAtTheNewHostAfterAMove) {
  EdenSystem system;
  system.RegisterType(MakeCounterType());
  system.AddNodes(3);
  auto cap = system.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());

  Bytes first = FakeClientIncrement(system, *cap, /*seq=*/2, /*low_water=*/2);
  system.node(2).transport().SendReliable(system.node(0).station(),
                                          Bytes(first));
  system.node(2).transport().SendReliable(
      system.node(0).station(), FakeClientIncrement(system, *cap, 10, 10));
  system.RunFor(Milliseconds(20));
  ASSERT_EQ(CounterValue(system, system.node(1), *cap), 10u);

  auto object = system.node(0).FindActive(cap->name());
  ASSERT_NE(object, nullptr);
  Status moved = system.Await(
      system.node(0).MoveObject(object, system.node(1).station()));
  ASSERT_TRUE(moved.ok()) << moved;

  system.node(2).transport().SendReliable(system.node(1).station(),
                                          Bytes(first));
  system.RunFor(Milliseconds(20));
  EXPECT_EQ(CounterValue(system, system.node(2), *cap), 10u)
      << "stale retry executed at the new home";
  EXPECT_EQ(Metric(system.node(1), "kernel.reply_cache.stale_requests"), 1u);
}

// A local invocation reaches its object a shortcut overhead after it is
// issued. If the move completes inside that gap, the dispatch must follow
// the object to its new host, not fail with "object crashed".
TEST(Membership, LocalDispatchRacingAMoveFollowsTheObject) {
  // Same seed, same steps: the first run learns when the move completes.
  auto run = [](std::optional<SimDuration> invoke_before_done) {
    EdenSystem system;
    system.RegisterType(MakeCounterType());
    system.AddNodes(2);
    auto cap = system.node(0).CreateObject("counter", CounterRep());
    EXPECT_TRUE(cap.ok());
    system.RunFor(Milliseconds(10));
    auto object = system.node(0).FindActive(cap->name());
    SimTime started = system.sim().now();
    Future<Status> moved =
        system.node(0).MoveObject(object, system.node(1).station());
    std::optional<Future<InvokeResult>> raced;
    if (invoke_before_done) {
      system.sim().Schedule(*invoke_before_done, [&] {
        raced = system.node(0).Invoke(*cap, "increment",
                                      InvokeArgs{}.AddU64(1));
      });
    }
    Status status = system.Await(std::move(moved));
    EXPECT_TRUE(status.ok()) << status;
    SimDuration move_took = system.sim().now() - started;
    // Let the new home finish its move-in before the system is torn down.
    system.RunFor(Milliseconds(10));
    if (raced) {
      InvokeResult result = system.Await(std::move(*raced));
      EXPECT_TRUE(result.ok()) << result.status;
      EXPECT_EQ(CounterValue(system, system.node(1), *cap), 1u);
    }
    return move_took;
  };
  SimDuration move_took = run(std::nullopt);
  ASSERT_GT(move_took, Microseconds(100));
  // Issued 100 us before the move completes; dispatched after it.
  run(move_took - Microseconds(100));
}

TEST(Membership, MoveTransferCachedRepliesRoundTrip) {
  MoveTransferMsg msg;
  msg.transfer_id = 42;
  msg.source = 7;
  msg.name = ObjectName(1, 2, 3);
  msg.type_name = "counter";
  msg.cached_replies.push_back(
      {11, InvokeResult::Ok(InvokeArgs{}.AddU64(5)), false});
  msg.cached_replies.push_back({12, InvokeResult::Ok(), true});
  msg.reply_floors.push_back({3, (3ull << kInvocationSeqBits) | 17});

  auto decoded = MoveTransferMsg::Decode(msg.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->cached_replies.size(), 2u);
  EXPECT_EQ(decoded->cached_replies[0].invocation_id, 11u);
  EXPECT_EQ(decoded->cached_replies[0].result.results.U64At(0).value_or(0), 5u);
  EXPECT_FALSE(decoded->cached_replies[0].frozen);
  EXPECT_EQ(decoded->cached_replies[1].invocation_id, 12u);
  EXPECT_TRUE(decoded->cached_replies[1].frozen);
  ASSERT_EQ(decoded->reply_floors.size(), 1u);
  EXPECT_EQ(decoded->reply_floors[0].client, 3u);
  EXPECT_EQ(decoded->reply_floors[0].floor, (3ull << kInvocationSeqBits) | 17);
}

// ---------------------------------------------------------------------------
// Restart republish vs concurrent move (regression)
// ---------------------------------------------------------------------------

TEST(Membership, RestartRepublishDoesNotResurrectStaleResidence) {
  EdenSystem system;
  system.RegisterType(MakeCounterType());
  system.AddNodes(4);

  // Pick an object whose directory home is NOT the node we will crash: the
  // regression under test is the restart scan's passive re-publish losing
  // the merge against a surviving home's newer active record (a home that
  // crashes loses its partition legitimately — that is repair's job).
  std::optional<Capability> cap;
  for (int attempt = 0; attempt < 32 && !cap.has_value(); attempt++) {
    auto candidate = system.node(0).CreateObject("counter", CounterRep());
    ASSERT_TRUE(candidate.ok());
    std::vector<StationId> homes =
        system.node(0).location().HomesOf(candidate->name());
    ASSERT_FALSE(homes.empty());
    if (homes[0] != system.node(0).station()) {
      cap = *candidate;
    }
  }
  ASSERT_TRUE(cap.has_value()) << "no candidate homed off node0 in 32 tries";
  EXPECT_TRUE(Call(system, system.node(2), *cap, "increment",
                   InvokeArgs{}.AddU64(9))
                  .ok());
  EXPECT_TRUE(Call(system, system.node(2), *cap, "checkpoint").ok());

  // Move the live object away; the stale chain stays on node0's store.
  auto object = system.node(0).FindActive(cap->name());
  ASSERT_NE(object, nullptr);
  ASSERT_TRUE(system
                  .Await(system.node(0).MoveObject(object,
                                                   system.node(1).station()))
                  .ok());
  system.RunFor(Milliseconds(10));

  // Crash-restart node0: its checkpoint scan re-publishes the object as
  // passive-at-node0 with epoch 0, racing the directory's newer active
  // record. The epoch merge rule must keep the active residence.
  system.node(0).FailNode();
  system.node(0).RestartNode();
  system.RunFor(Milliseconds(20));

  std::vector<StationId> homes = system.node(1).location().HomesOf(cap->name());
  ASSERT_FALSE(homes.empty());
  for (StationId home : homes) {
    NodeKernel* node = system.NodeAt(home);
    ASSERT_NE(node, nullptr);
    if (const ResidenceRecord* record =
            node->location().DirectoryEntry(cap->name())) {
      EXPECT_TRUE(record->active);
      EXPECT_EQ(record->host, system.node(1).station())
          << "restart scan's passive re-publish clobbered the live record";
    }
  }
  EXPECT_EQ(CounterValue(system, system.node(2), *cap), 9u);
}

// ---------------------------------------------------------------------------
// Rolling restart (the ROADMAP item 5 acceptance scenario)
// ---------------------------------------------------------------------------

struct RollingResult {
  WorkloadStats stats;
  uint64_t object_total = 0;
  std::vector<uint64_t> digests;
  SimDuration p99 = 0;
};

// Drives `restarts` GracefulRestarts, one node at a time, under continuous
// elastic closed-loop increment traffic, then settles and audits.
RollingResult RunRollingRestart(uint64_t seed, size_t nodes, size_t restarts,
                                size_t clients, SimDuration window,
                                const FaultPlan* plan = nullptr) {
  SystemConfig config;
  config.seed = seed;
  config.membership.rebalance.spread_gap = 2;  // refill rejoined nodes
  EdenSystem system(config);
  system.RegisterType(MakeCounterType());
  system.AddNodes(nodes);
  if (plan != nullptr) {
    system.EnableFaults(*plan);
  }

  std::vector<Capability> caps;
  for (size_t i = 0; i < nodes; i++) {
    auto cap = system.node(i).CreateObject("counter", CounterRep());
    EXPECT_TRUE(cap.ok());
    caps.push_back(*cap);
  }
  system.RunFor(Milliseconds(10));

  Promise<Status> rolled;
  [](EdenSystem* system, size_t restarts, Promise<Status> done) -> DetachedTask {
    Status worst = OkStatus();
    for (size_t i = 0; i < restarts; i++) {
      Status status = co_await system->GracefulRestart(i, Milliseconds(40));
      if (!status.ok()) {
        worst = status;
      }
      // Let the rejoined node finish warming up before the next target
      // drains, like a real rolling deploy would.
      co_await SleepFor(system->sim(),
                        system->config().membership.join_warmup);
    }
    done.Set(worst);
  }(&system, restarts, rolled);

  WorkloadStats stats = RunClosedLoopElastic(
      system, clients,
      [&caps](size_t client, uint64_t seq) {
        WorkItem item;
        item.target = caps[(client + seq) % caps.size()];
        item.operation = "increment";
        item.args = InvokeArgs{}.AddU64(1);
        return item;
      },
      window, /*mean_think_time=*/Milliseconds(2));

  Status rolling = system.Await(rolled.GetFuture());
  EXPECT_TRUE(rolling.ok()) << rolling;
  system.RunFor(Milliseconds(500));  // settle in-flight rebalances

  RollingResult result;
  result.stats = stats;
  result.p99 = stats.latency.Percentile(0.99);
  for (const Capability& cap : caps) {
    result.object_total += CounterValue(system, system.node(0), cap);
  }
  for (size_t i = 0; i < system.node_count(); i++) {
    result.digests.push_back(system.node(i).digest().value());
  }
  return result;
}

// The roll must hold on every seed, not just a lucky one: with a 50 ms
// locate round, 9 of these 13 seeds ended some invocations "object not
// found" because a lookup queued behind the busy wire outlived all three
// rounds (DESIGN.md §13, the round budget).
class RollingRestartSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RollingRestartSeeds, SixteenNodesZeroLostZeroDuplicated) {
  RollingResult result =
      RunRollingRestart(/*seed=*/GetParam(), /*nodes=*/16, /*restarts=*/16,
                        /*clients=*/24, /*window=*/Seconds(6));
  EXPECT_GT(result.stats.completed, 1000u);
  EXPECT_EQ(result.stats.failed, 0u) << "lost invocations during the roll";
  // Counter conservation: every completed increment is reflected exactly
  // once — fewer means lost writes, more means duplicated execution.
  EXPECT_EQ(result.object_total, result.stats.completed);
  // The roll may bump tail latency, but it must stay bounded (every move
  // parks writers for at most a quiesce + transfer, and retries mask the
  // directory handoff window).
  EXPECT_LT(result.p99, Seconds(2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RollingRestartSeeds,
                         ::testing::Values(1981, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                           10, 11, 12));

TEST(RollingRestart, SameSeedIsBitIdentical) {
  RollingResult a =
      RunRollingRestart(/*seed=*/77, /*nodes=*/16, /*restarts=*/16,
                        /*clients=*/24, /*window=*/Seconds(4));
  RollingResult b =
      RunRollingRestart(/*seed=*/77, /*nodes=*/16, /*restarts=*/16,
                        /*clients=*/24, /*window=*/Seconds(4));
  EXPECT_EQ(a.stats.completed, b.stats.completed);
  EXPECT_EQ(a.stats.failed, b.stats.failed);
  EXPECT_EQ(a.object_total, b.object_total);
  ASSERT_EQ(a.digests.size(), b.digests.size());
  for (size_t i = 0; i < a.digests.size(); i++) {
    EXPECT_EQ(a.digests[i], b.digests[i]) << "node " << i;
  }
}

// The seeded chaos case ci.sh gates on: the same roll under wire corruption,
// duplication and delay. The reliable transport plus the traveling reply
// cache must still deliver exactly-once, bit-identically per seed.
TEST(RollingRestartChaos, WireFaultsLoseNothingAndReproduce) {
  FaultPlan plan;
  plan.wire.corrupt_probability = 0.01;
  plan.wire.duplicate_probability = 0.02;
  plan.wire.delay_probability = 0.05;
  plan.wire.max_extra_delay = Milliseconds(1);

  RollingResult a = RunRollingRestart(/*seed=*/1981, /*nodes=*/8,
                                      /*restarts=*/8, /*clients=*/12,
                                      /*window=*/Seconds(4), &plan);
  EXPECT_GT(a.stats.completed, 500u);
  EXPECT_EQ(a.stats.failed, 0u);
  EXPECT_EQ(a.object_total, a.stats.completed);

  RollingResult b = RunRollingRestart(/*seed=*/1981, /*nodes=*/8,
                                      /*restarts=*/8, /*clients=*/12,
                                      /*window=*/Seconds(4), &plan);
  EXPECT_EQ(a.object_total, b.object_total);
  ASSERT_EQ(a.digests.size(), b.digests.size());
  for (size_t i = 0; i < a.digests.size(); i++) {
    EXPECT_EQ(a.digests[i], b.digests[i]) << "node " << i;
  }
}

// ---------------------------------------------------------------------------
// Fail-fast guards (satellite: misuse dies loudly, even in release builds)
// ---------------------------------------------------------------------------

using MembershipDeathTest = ::testing::Test;

TEST(MembershipDeathTest, EnableFaultsOnShardedSystemDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SystemConfig config;
        config.shards = 2;
        EdenSystem system(config);
        system.EnableFaults(FaultPlan{});
      },
      "single-threaded");
}

TEST(MembershipDeathTest, WithShardsAfterFaultsDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        EdenSystem system;
        system.EnableFaults(FaultPlan{});
        system.WithShards(2);
      },
      "single-threaded");
}

TEST(MembershipDeathTest, RunOpenLoopOnShardedSystemDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SystemConfig config;
        config.shards = 2;
        EdenSystem system(config);
        system.RegisterType(MakeCounterType());
        system.AddNodes(2);
        RunOpenLoop(system, {0},
                    [](size_t, uint64_t) { return WorkItem{}; }, 100.0,
                    Milliseconds(10));
      },
      "single-threaded");
}

// ---------------------------------------------------------------------------
// Directory fanout hysteresis (DESIGN.md §17 satellite)
// ---------------------------------------------------------------------------

// A membership hovering around the 16-member auto-fanout boundary: 15 stable
// nodes, a flapper joining and leaving three times, with directory records in
// place so a fanout flip would re-fan every record's home set.
uint64_t RunFanoutFlap(SimDuration dwell, int pinned_fanout) {
  SystemConfig config;
  config.seed = 29;
  config.kernel.locate.fanout_dwell = dwell;
  config.kernel.locate.directory_fanout = pinned_fanout;
  EdenSystem system(config);
  system.RegisterType(MakeCounterType());
  system.AddNodes(15);
  for (int k = 0; k < 24; k++) {
    EXPECT_TRUE(
        system.node(k % 15).CreateObject("counter", CounterRep()).ok());
  }
  system.RunFor(Milliseconds(50));  // publishes land, directory populated
  for (int flap = 0; flap < 3; flap++) {
    system.JoinNode("flapper" + std::to_string(flap));  // members: 15 -> 16
    system.RunFor(Milliseconds(20));
    Status left = system.Await(
        system.LeaveNode(system.node_count() - 1));  // members: 16 -> 15
    EXPECT_TRUE(left.ok()) << left;
    system.RunFor(Milliseconds(20));
  }
  MetricsRegistry rollup = system.Rollup();
  const Counter* handoffs = rollup.FindCounter("kernel.directory.handoffs");
  return handoffs == nullptr ? 0 : handoffs->value();
}

TEST(Membership, FanoutDwellSuppressesHandoffWavesWhileHovering) {
  // Pinned fanout 1 is the no-fanout-wave baseline: every handoff it does is
  // membership re-homing, not re-fanning. A dwell longer than any excursion
  // must match it exactly, and the legacy instant flip must pay extra
  // cluster-wide waves on every 15 <-> 16 crossing.
  uint64_t pinned = RunFanoutFlap(/*dwell=*/0, /*pinned_fanout=*/1);
  uint64_t dwelled = RunFanoutFlap(Seconds(5), /*pinned_fanout=*/0);
  uint64_t instant = RunFanoutFlap(/*dwell=*/0, /*pinned_fanout=*/0);
  EXPECT_GT(pinned, 0u);  // the flapper does take (and hand back) partitions
  EXPECT_EQ(dwelled, pinned);
  EXPECT_GT(instant, dwelled);
}

TEST(MembershipDeathTest, MembershipOpOnShardedSystemDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SystemConfig config;
        config.shards = 2;
        EdenSystem system(config);
        system.AddNodes(4);
        system.LeaveNode(1);
      },
      "single-threaded");
}

}  // namespace
}  // namespace eden
