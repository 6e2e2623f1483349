// Unit tests for the simulated Ethernet and the reliable transport.
#include <gtest/gtest.h>

#include "src/net/lan.h"
#include "src/net/transport.h"
#include "src/sim/simulation.h"

namespace eden {
namespace {

TEST(LanTest, UnicastFrameIsDeliveredWithWireDelay) {
  Simulation sim;
  Lan lan(sim);
  Station* a = lan.AttachStation();
  Station* b = lan.AttachStation();

  bool delivered = false;
  b->SetReceiveHandler([&](const Frame& frame) {
    delivered = true;
    EXPECT_EQ(frame.src, a->id());
    EXPECT_EQ(ToString(frame.header), "ping");
  });
  a->Send(Frame{0, b->id(), ToBytes("ping")});
  sim.Run();
  EXPECT_TRUE(delivered);
  // 64-byte minimum frame at 10 Mb/s = 51.2 us + 5 us propagation.
  EXPECT_GE(sim.now(), Microseconds(56));
  EXPECT_LT(sim.now(), Microseconds(80));
  EXPECT_EQ(lan.stats().frames_sent, 1u);
  EXPECT_EQ(lan.stats().frames_delivered, 1u);
}

TEST(LanTest, BroadcastReachesEveryoneButSender) {
  Simulation sim;
  Lan lan(sim);
  Station* sender = lan.AttachStation();
  int received = 0;
  for (int i = 0; i < 4; i++) {
    Station* s = lan.AttachStation();
    s->SetReceiveHandler([&received](const Frame&) { received++; });
  }
  sender->SetReceiveHandler([&received](const Frame&) { received += 100; });
  sender->Send(Frame{0, kBroadcastStation, ToBytes("hello all")});
  sim.Run();
  EXPECT_EQ(received, 4);
}

TEST(LanTest, FramesFromOneStationStayOrdered) {
  Simulation sim;
  Lan lan(sim);
  Station* a = lan.AttachStation();
  Station* b = lan.AttachStation();
  std::vector<std::string> seen;
  b->SetReceiveHandler(
      [&](const Frame& frame) { seen.push_back(ToString(frame.header)); });
  for (int i = 0; i < 10; i++) {
    a->Send(Frame{0, b->id(), ToBytes("m" + std::to_string(i))});
  }
  sim.Run();
  ASSERT_EQ(seen.size(), 10u);
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(seen[i], "m" + std::to_string(i));
  }
}

TEST(LanTest, ContendingStationsAllEventuallyTransmit) {
  Simulation sim;
  Lan lan(sim);
  constexpr int kStations = 8;
  Station* sink = lan.AttachStation();
  int received = 0;
  sink->SetReceiveHandler([&](const Frame&) { received++; });
  std::vector<Station*> stations;
  for (int i = 0; i < kStations; i++) {
    stations.push_back(lan.AttachStation());
  }
  // Everyone transmits "simultaneously": collisions + backoff must resolve.
  for (Station* s : stations) {
    s->Send(Frame{0, sink->id(), Bytes(512)});
  }
  sim.Run();
  EXPECT_EQ(received, kStations);
  EXPECT_EQ(lan.stats().transmit_failures, 0u);
}

TEST(LanTest, LossInjectionDropsFrames) {
  Simulation sim;
  LanConfig config;
  config.loss_probability = 1.0;
  Lan lan(sim, config);
  Station* a = lan.AttachStation();
  Station* b = lan.AttachStation();
  bool delivered = false;
  b->SetReceiveHandler([&](const Frame&) { delivered = true; });
  a->Send(Frame{0, b->id(), ToBytes("doomed")});
  sim.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(lan.stats().frames_lost, 1u);
}

TEST(LanTest, PartitionBlocksCrossGroupTraffic) {
  Simulation sim;
  Lan lan(sim);
  Station* a = lan.AttachStation();
  Station* b = lan.AttachStation();
  Station* c = lan.AttachStation();
  int b_got = 0, c_got = 0;
  b->SetReceiveHandler([&](const Frame&) { b_got++; });
  c->SetReceiveHandler([&](const Frame&) { c_got++; });

  lan.SetPartitionGroup(c->id(), 1);
  a->Send(Frame{0, kBroadcastStation, ToBytes("hi")});
  sim.Run();
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(c_got, 0);

  lan.ClearPartitions();
  a->Send(Frame{0, c->id(), ToBytes("hi again")});
  sim.Run();
  EXPECT_EQ(c_got, 1);
}

TEST(LanTest, DetachedStationIsUnreachable) {
  Simulation sim;
  Lan lan(sim);
  Station* a = lan.AttachStation();
  Station* b = lan.AttachStation();
  int received = 0;
  b->SetReceiveHandler([&](const Frame&) { received++; });
  lan.DetachStation(b->id());
  a->Send(Frame{0, b->id(), ToBytes("void")});
  sim.Run();
  EXPECT_EQ(received, 0);
  lan.ReattachStation(b->id());
  a->Send(Frame{0, b->id(), ToBytes("back")});
  sim.Run();
  EXPECT_EQ(received, 1);
}

TEST(LanTest, FrameTimeScalesWithSize) {
  Simulation sim;
  Lan lan(sim);
  SimDuration small = lan.FrameTime(64);
  SimDuration big = lan.FrameTime(1500);
  EXPECT_GT(big, small);
  // 1500+38 bytes at 10 Mb/s = ~1230 us.
  EXPECT_NEAR(static_cast<double>(big), 1230.4e3, 1e3);
}

class TransportFixture : public ::testing::Test {
 protected:
  TransportFixture() : lan_(sim_) {}

  Simulation sim_;
  Lan lan_;
};

TEST_F(TransportFixture, SmallMessageRoundTrip) {
  Transport a(sim_, lan_), b(sim_, lan_);
  std::string received;
  b.SetHandler([&](StationId src, BytesView message) {
    EXPECT_EQ(src, a.station_id());
    received = ToString(message);
  });
  a.SendReliable(b.station_id(), ToBytes("kernel message"));
  sim_.Run();
  EXPECT_EQ(received, "kernel message");
  EXPECT_EQ(b.stats().messages_delivered, 1u);
}

TEST_F(TransportFixture, LargeMessageIsFragmentedAndReassembled) {
  Transport a(sim_, lan_), b(sim_, lan_);
  Bytes big(100 * 1024);
  for (size_t i = 0; i < big.size(); i++) {
    big[i] = static_cast<uint8_t>(i * 31);
  }
  Bytes received;
  b.SetHandler([&](StationId, BytesView message) { received = message.ToBytes(); });
  a.SendReliable(b.station_id(), big);
  sim_.Run();
  EXPECT_EQ(received, big);
  EXPECT_GT(a.stats().fragments_sent, 60u);  // ~1.5 KB MTU
}

TEST_F(TransportFixture, LossyWireIsSurvivedByRetransmission) {
  lan_.set_loss_probability(0.2);
  Transport a(sim_, lan_), b(sim_, lan_);
  int delivered = 0;
  b.SetHandler([&](StationId, BytesView) { delivered++; });
  for (int i = 0; i < 20; i++) {
    a.SendReliable(b.station_id(), Bytes(3000));
  }
  sim_.Run();
  EXPECT_EQ(delivered, 20);
  EXPECT_GT(a.stats().retransmits, 0u);
}

TEST_F(TransportFixture, DuplicatesAreSuppressedExactlyOnceDelivery) {
  // Drop many frames so acks get lost and retransmissions duplicate.
  lan_.set_loss_probability(0.3);
  Transport a(sim_, lan_), b(sim_, lan_);
  int delivered = 0;
  b.SetHandler([&](StationId, BytesView) { delivered++; });
  for (int i = 0; i < 30; i++) {
    a.SendReliable(b.station_id(), ToBytes("msg" + std::to_string(i)));
  }
  sim_.Run();
  EXPECT_EQ(delivered, 30);  // never more than once each
}

TEST_F(TransportFixture, BestEffortBroadcastReachesAll) {
  Transport a(sim_, lan_), b(sim_, lan_), c(sim_, lan_);
  int received = 0;
  b.SetHandler([&](StationId, BytesView) { received++; });
  c.SetHandler([&](StationId, BytesView) { received++; });
  a.SendBestEffort(kBroadcastStation, ToBytes("who has object 42?"));
  sim_.Run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(a.stats().acks_sent, 0u);
  EXPECT_EQ(b.stats().acks_sent, 0u);
}

TEST_F(TransportFixture, GivesUpAfterMaxRetransmits) {
  Transport a(sim_, lan_), b(sim_, lan_);
  lan_.DetachStation(b.station_id());
  a.SendReliable(b.station_id(), ToBytes("into the void"));
  sim_.Run();
  EXPECT_EQ(a.stats().send_failures, 1u);
  EXPECT_EQ(b.stats().messages_delivered, 0u);
}

// --- ACK coalescing ----------------------------------------------------------

TEST_F(TransportFixture, PiggybackedAckSuppressesStandaloneAckAndRetransmit) {
  // ACK delay far beyond the retransmit timeout: if the ACK had to wait for
  // its own frame, the sender would retransmit. Reverse data traffic carries
  // it in time instead.
  TransportConfig config;
  config.ack_delay = Milliseconds(50);
  Transport a(sim_, lan_, config), b(sim_, lan_, config);
  std::string reply;
  b.SetHandler([&](StationId src, BytesView) {
    b.SendReliable(src, ToBytes("reply"));
  });
  a.SetHandler([&](StationId, BytesView message) { reply = ToString(message); });
  a.SendReliable(b.station_id(), ToBytes("request"));
  sim_.RunFor(Milliseconds(10));  // before a's 20 ms retransmit deadline

  EXPECT_EQ(reply, "reply");
  EXPECT_EQ(b.stats().acks_piggybacked, 1u);  // rode b's reply frame
  EXPECT_EQ(b.stats().acks_sent, 0u);         // no standalone ACK frame
  EXPECT_EQ(a.stats().retransmits, 0u);

  // a has no reverse traffic for b's reply: its ACK goes standalone, delayed
  // (past b's retransmit timeout here, so b may retransmit — harmless).
  sim_.Run();
  EXPECT_GE(a.stats().acks_sent, 1u);
  EXPECT_EQ(b.stats().send_failures, 0u);
}

TEST_F(TransportFixture, DelayedAcksBatchIntoOneFrame) {
  TransportConfig config;
  config.ack_delay = Milliseconds(5);
  Transport a(sim_, lan_, config), b(sim_, lan_, config);
  int delivered = 0;
  b.SetHandler([&](StationId, BytesView) { delivered++; });
  for (int i = 0; i < 10; i++) {
    a.SendReliable(b.station_id(), ToBytes("m" + std::to_string(i)));
  }
  sim_.Run();
  EXPECT_EQ(delivered, 10);
  // All ten land well inside one ack_delay window: one ACK frame, ten ids.
  EXPECT_EQ(b.stats().acks_sent, 1u);
  EXPECT_EQ(b.stats().ack_ids_sent, 10u);
  EXPECT_EQ(a.stats().retransmits, 0u);
}

TEST_F(TransportFixture, DelayedAckFiresOnTimer) {
  TransportConfig config;
  config.ack_delay = Milliseconds(2);
  Transport a(sim_, lan_, config), b(sim_, lan_, config);
  b.SetHandler([](StationId, BytesView) {});
  a.SendReliable(b.station_id(), ToBytes("ping"));
  sim_.RunFor(Milliseconds(1));  // delivered (~60 us), ACK still waiting
  EXPECT_EQ(b.stats().messages_delivered, 1u);
  EXPECT_EQ(b.stats().acks_sent, 0u);
  sim_.RunFor(Milliseconds(3));  // past delivery + ack_delay
  EXPECT_EQ(b.stats().acks_sent, 1u);
  EXPECT_EQ(b.stats().ack_ids_sent, 1u);
}

TEST_F(TransportFixture, DedupWindowStillHonoredWithBatchedAcks) {
  // ACK delay beyond the retransmit timeout forces duplicate data frames;
  // the receiver must deliver exactly once and re-ACK the duplicates.
  TransportConfig config;
  config.ack_delay = Milliseconds(50);
  config.retransmit_timeout = Milliseconds(10);
  Transport a(sim_, lan_, config), b(sim_, lan_, config);
  int delivered = 0;
  b.SetHandler([&](StationId, BytesView) { delivered++; });
  a.SendReliable(b.station_id(), ToBytes("exactly once"));
  sim_.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_GE(a.stats().retransmits, 1u);
  EXPECT_GE(b.stats().duplicates_suppressed, 1u);
  EXPECT_EQ(a.stats().send_failures, 0u);
}

TEST_F(TransportFixture, ZeroAckDelayAcksImmediately) {
  TransportConfig config;
  config.ack_delay = 0;
  Transport a(sim_, lan_, config), b(sim_, lan_, config);
  b.SetHandler([](StationId, BytesView) {});
  a.SendReliable(b.station_id(), ToBytes("now"));
  sim_.RunFor(Milliseconds(1));
  EXPECT_EQ(b.stats().acks_sent, 1u);
  EXPECT_EQ(a.stats().retransmits, 0u);
}

TEST_F(TransportFixture, ResetDropsPendingState) {
  Transport a(sim_, lan_), b(sim_, lan_);
  lan_.DetachStation(b.station_id());
  a.SendReliable(b.station_id(), ToBytes("doomed"));
  sim_.RunFor(Milliseconds(5));
  a.Reset();
  sim_.Run();
  // After reset nothing is retransmitted and no failure is recorded for it.
  EXPECT_EQ(a.stats().send_failures, 0u);
}

// --- Duplicate-suppression window --------------------------------------------

// Drops every frame addressed to one station while `active` is set. Aimed
// at a pure sender, it loses exactly the ACKs its receivers send back.
class DropFramesTo : public WireFaultHook {
 public:
  explicit DropFramesTo(StationId dst) : dst_(dst) {}
  Decision OnDeliver(StationId, StationId dst, size_t) override {
    Decision decision;
    decision.drop = active && dst == dst_;
    return decision;
  }
  bool active = false;

 private:
  StationId dst_;
};

struct WindowProbe {
  int delivered = 0;
  uint64_t duplicates_suppressed = 0;
};

// a sends m0, whose ACK is lost, then `newer` messages that b delivers and
// ACKs before m0's retransmit deadline; optionally b then resets. m0's one
// retransmission reaches b, which suppresses it if m0 is still among its
// last `window` delivered ids and delivers it again otherwise. Either way b
// ACKs it — the only ACK for m0 that can reach a — so a ends with nothing
// pending and nothing failed.
WindowProbe ProbeDedupWindow(size_t window, int newer, bool reset) {
  Simulation sim;
  Lan lan(sim);
  TransportConfig config;
  config.dedup_window = window;
  Transport a(sim, lan, config), b(sim, lan, config);
  DropFramesTo ack_loss(a.station_id());
  lan.set_fault_hook(&ack_loss);
  WindowProbe probe;
  b.SetHandler([&](StationId, BytesView) { probe.delivered++; });

  ack_loss.active = true;
  a.SendReliable(b.station_id(), ToBytes("m0"));
  sim.RunFor(Milliseconds(2));
  ack_loss.active = false;
  for (int i = 1; i <= newer; i++) {
    a.SendReliable(b.station_id(), ToBytes("m" + std::to_string(i)));
  }
  sim.RunFor(Milliseconds(5));
  EXPECT_EQ(probe.delivered, 1 + newer);
  EXPECT_EQ(a.pending_reliable_sends(), 1u);  // only m0 awaits its ACK
  EXPECT_EQ(a.stats().retransmits, 0u);
  if (reset) {
    b.Reset();
  }
  sim.Run();
  EXPECT_EQ(a.stats().retransmits, 1u);
  EXPECT_EQ(a.pending_reliable_sends(), 0u);
  EXPECT_EQ(a.stats().send_failures, 0u);
  probe.duplicates_suppressed = b.stats().duplicates_suppressed;
  return probe;
}

TEST(TransportDedupTest, CopyOfEachOfTheLastWindowIdsIsSuppressedAndReAcked) {
  // m0 is the (newer + 1)-th most recent id when its copy arrives.
  for (int newer = 0; newer < 4; newer++) {
    SCOPED_TRACE("newer=" + std::to_string(newer));
    WindowProbe probe = ProbeDedupWindow(4, newer, /*reset=*/false);
    EXPECT_EQ(probe.delivered, 1 + newer);
    EXPECT_EQ(probe.duplicates_suppressed, 1u);
  }
}

TEST(TransportDedupTest, IdOlderThanTheWindowIsForgotten) {
  // The window is exactly the last dedup_window ids: a fifth newer delivery
  // pushes m0 out, and its late copy is delivered again.
  WindowProbe probe = ProbeDedupWindow(4, 4, /*reset=*/false);
  EXPECT_EQ(probe.delivered, 6);
  EXPECT_EQ(probe.duplicates_suppressed, 0u);
}

TEST(TransportDedupTest, ResetForgetsTheHistory) {
  WindowProbe probe = ProbeDedupWindow(4, 0, /*reset=*/true);
  EXPECT_EQ(probe.delivered, 2);
  EXPECT_EQ(probe.duplicates_suppressed, 0u);
}

TEST(TransportDedupTest, WindowOfOneRemembersOnlyTheLatestId) {
  WindowProbe latest = ProbeDedupWindow(1, 0, /*reset=*/false);
  EXPECT_EQ(latest.delivered, 1);
  EXPECT_EQ(latest.duplicates_suppressed, 1u);
  WindowProbe older = ProbeDedupWindow(1, 1, /*reset=*/false);
  EXPECT_EQ(older.delivered, 3);
  EXPECT_EQ(older.duplicates_suppressed, 0u);
}

TEST(TransportDedupTest, WindowOfZeroSuppressesNothing) {
  WindowProbe probe = ProbeDedupWindow(0, 0, /*reset=*/false);
  EXPECT_EQ(probe.delivered, 2);
  EXPECT_EQ(probe.duplicates_suppressed, 0u);
}

TEST(TransportDedupTest, NoIdInsideTheWindowIsLostAcrossManyEvictions) {
  // 120 rounds of a full window each: 6,000 deliveries through b's history
  // of a, so the ring wraps 120 times and every delivery past the first
  // window evicts (and backward-shift deletes) an id. Sends to a second
  // receiver are interleaved at random, so the ids b sees from a have
  // irregular gaps and collide in b's set the way real traffic does. Each
  // round loses the ACKs until every one of the window's ids has been
  // retransmitted, so a single id missing from the set would be delivered
  // twice.
  constexpr size_t kWindow = 50;
  Simulation sim;
  Lan lan(sim);
  TransportConfig config;
  config.dedup_window = kWindow;
  Transport a(sim, lan, config), b(sim, lan, config), c(sim, lan);
  DropFramesTo ack_loss(a.station_id());
  lan.set_fault_hook(&ack_loss);
  uint64_t delivered = 0;
  b.SetHandler([&](StationId, BytesView) { delivered++; });
  uint64_t to_c = 0;
  uint64_t c_delivered = 0;
  c.SetHandler([&](StationId, BytesView) { c_delivered++; });
  Rng gaps(7);
  for (uint64_t round = 1; round <= 120; round++) {
    uint64_t duplicates_before = b.stats().duplicates_suppressed;
    ack_loss.active = true;
    for (size_t i = 0; i < kWindow; i++) {
      for (uint64_t skip = gaps.NextBelow(4); skip > 0; skip--) {
        a.SendReliable(c.station_id(), ToBytes("gap"));
        to_c++;
      }
      a.SendReliable(b.station_id(), ToBytes("r" + std::to_string(round)));
    }
    sim.RunFor(Milliseconds(45));  // past the first retransmit round
    EXPECT_EQ(delivered, round * kWindow);
    EXPECT_GE(b.stats().duplicates_suppressed - duplicates_before, kWindow);
    ack_loss.active = false;
    sim.Run();  // the next round's copies are suppressed and re-ACKed
    ASSERT_EQ(delivered, round * kWindow) << "round " << round;
    ASSERT_EQ(a.pending_reliable_sends(), 0u);
  }
  EXPECT_EQ(c_delivered, to_c);
  EXPECT_EQ(a.stats().send_failures, 0u);
}

// --- Frame checksums vs. wire corruption (chaos hook) ------------------------

// Scripted fault hook: corrupts the next `n` deliveries, passes the rest.
class CorruptNextN : public WireFaultHook {
 public:
  explicit CorruptNextN(int n) : remaining_(n) {}
  Decision OnDeliver(StationId, StationId, size_t) override {
    Decision decision;
    if (remaining_ > 0) {
      remaining_--;
      decision.corrupt = true;
    }
    return decision;
  }

 private:
  int remaining_;
};

TEST_F(TransportFixture, CorruptedFrameIsDroppedAndRetransmitted) {
  CorruptNextN hook(1);  // the first delivery (the data frame) gets a bit flip
  lan_.set_fault_hook(&hook);
  Transport a(sim_, lan_), b(sim_, lan_);
  std::string received;
  b.SetHandler([&](StationId, BytesView message) { received = ToString(message); });
  a.SendReliable(b.station_id(), ToBytes("checksummed"));
  sim_.Run();
  // The CRC caught the flip, the receiver dropped the frame without acking,
  // and the retransmit delivered the payload intact — exactly once.
  EXPECT_EQ(received, "checksummed");
  EXPECT_EQ(lan_.stats().frames_corrupted, 1u);
  EXPECT_GE(b.stats().frames_corrupt_dropped, 1u);
  EXPECT_GT(a.stats().retransmits, 0u);
  EXPECT_EQ(b.stats().messages_delivered, 1u);
}

// Corrupt every third delivery — data frames, fragments and acks alike. The
// checksums must turn corruption into loss, and the retransmit machinery must
// turn loss into exactly-once delivery.
class CorruptEveryThird : public WireFaultHook {
 public:
  Decision OnDeliver(StationId, StationId, size_t) override {
    Decision decision;
    decision.corrupt = (++count_ % 3) == 0;
    return decision;
  }

 private:
  int count_ = 0;
};

TEST_F(TransportFixture, CorruptionStormStillDeliversExactlyOnce) {
  CorruptEveryThird hook;
  lan_.set_fault_hook(&hook);
  Transport a(sim_, lan_), b(sim_, lan_);
  int delivered = 0;
  b.SetHandler([&](StationId, BytesView) { delivered++; });
  for (int i = 0; i < 30; i++) {
    a.SendReliable(b.station_id(), ToBytes("msg" + std::to_string(i)));
  }
  sim_.Run();
  EXPECT_EQ(delivered, 30);  // nothing lost, nothing doubled
  EXPECT_GT(lan_.stats().frames_corrupted, 0u);
  // Every corrupted frame was caught by a checksum — including flips that
  // landed on the kind tag itself — and dropped by exactly one receiver.
  EXPECT_EQ(a.stats().frames_corrupt_dropped + b.stats().frames_corrupt_dropped,
            lan_.stats().frames_corrupted);
}

TEST_F(TransportFixture, CorruptedFragmentOnlyCostsThatFragment) {
  CorruptNextN hook(1);
  lan_.set_fault_hook(&hook);
  Transport a(sim_, lan_), b(sim_, lan_);
  Bytes big(20 * 1024);
  for (size_t i = 0; i < big.size(); i++) {
    big[i] = static_cast<uint8_t>(i * 13);
  }
  Bytes received;
  b.SetHandler([&](StationId, BytesView message) { received = message.ToBytes(); });
  a.SendReliable(b.station_id(), big);
  sim_.Run();
  // Reassembly still succeeds byte-for-byte; only the corrupted fragment was
  // retransmitted, not the whole message.
  EXPECT_EQ(received, big);
  EXPECT_EQ(b.stats().frames_corrupt_dropped, 1u);
  EXPECT_EQ(a.stats().retransmits, 1u);
}

// Two LANs joined by a relay that flips chosen bits: the only way to aim a
// flip at a particular part of a frame, since the chaos hook's flip lands on
// a seeded random bit. Station ids line up across the bridge (a and the
// relay's far side are station 0, the relay's near side and b are station
// 1), so each transport sees the other as its direct peer.
TEST(TransportChecksumTest, MultiFragmentFlipsInWordLoopAndByteTailAreCaught) {
  Simulation sim;
  Lan near_lan(sim);
  Lan far_lan(sim);
  Transport a(sim, near_lan);
  Station* near_side = near_lan.AttachStation();
  Station* far_side = far_lan.AttachStation();
  Transport b(sim, far_lan);
  ASSERT_EQ(near_side->id(), b.station_id());
  ASSERT_EQ(far_side->id(), a.station_id());

  // Four full fragments plus a short last one whose body is not a multiple of
  // the CRC's 16-byte block, so it ends in the byte-at-a-time tail.
  Bytes payload(6003);
  for (size_t i = 0; i < payload.size(); i++) {
    payload[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  bool word_flipped = false;
  bool tail_flipped = false;
  near_side->SetReceiveHandler([&](const Frame& frame) {
    Frame copy = frame;  // Send restamps the source as the relay's station
    size_t body = frame.body.size();
    // Flip inside a full fragment's 16-byte block loop, or on the last byte
    // of the short fragment (its byte tail) — each once, first transmission.
    size_t flip = body;
    if (!word_flipped && body > 1000) {
      flip = 100;
      word_flipped = true;
    } else if (!tail_flipped && body > 0 && body < 1000) {
      EXPECT_NE(body % 16, 0u);
      flip = body - 1;
      tail_flipped = true;
    }
    if (flip < body) {
      // Never mutate the sender's retransmit buffer: flip a private copy.
      Bytes flat = frame.body.ToBytes();
      flat[flip] ^= 0x10;
      copy.body = SharedBytes(std::move(flat));
    }
    far_side->Send(std::move(copy));
  });
  far_side->SetReceiveHandler(
      [&](const Frame& frame) { near_side->Send(frame); });

  int delivered = 0;
  Bytes received;
  b.SetHandler([&](StationId src, BytesView message) {
    EXPECT_EQ(src, a.station_id());
    delivered++;
    received = message.ToBytes();
  });
  a.SendReliable(b.station_id(), payload);
  sim.Run();

  EXPECT_TRUE(word_flipped);
  EXPECT_TRUE(tail_flipped);
  EXPECT_GT(a.stats().fragments_sent, 4u);
  EXPECT_EQ(b.stats().frames_corrupt_dropped, 2u);
  EXPECT_GE(a.stats().retransmits, 1u);  // one round resends every lost fragment
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(b.stats().messages_delivered, 1u);
  EXPECT_EQ(received, payload);
}

}  // namespace
}  // namespace eden
