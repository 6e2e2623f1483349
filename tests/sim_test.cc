// Unit tests for the discrete-event simulation core: clock, event queue,
// cancellation, RNG determinism, and the coroutine task/future layer.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"

namespace eden {
namespace {

TEST(SimulationTest, EventsRunInTimestampOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(Milliseconds(30), [&] { order.push_back(3); });
  sim.Schedule(Milliseconds(10), [&] { order.push_back(1); });
  sim.Schedule(Milliseconds(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Milliseconds(30));
}

TEST(SimulationTest, SameTimestampIsFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; i++) {
    sim.Schedule(Milliseconds(1), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulationTest, CancelPreventsExecution) {
  Simulation sim;
  bool fired = false;
  EventId id = sim.Schedule(Milliseconds(5), [&] { fired = true; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(SimulationTest, CancelAfterFireIsHarmless) {
  Simulation sim;
  EventId id = sim.Schedule(0, [] {});
  sim.Run();
  sim.Cancel(id);  // no crash, no effect
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(SimulationTest, RunUntilAdvancesClockToDeadline) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(Milliseconds(10), [&] { fired++; });
  sim.Schedule(Milliseconds(100), [&] { fired++; });
  sim.RunUntil(Milliseconds(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Milliseconds(50));
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, EventsCanScheduleMoreEvents) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) {
      sim.Schedule(Milliseconds(1), recurse);
    }
  };
  sim.Schedule(0, recurse);
  sim.Run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), Milliseconds(9));
}

// Drives a Simulation and a reference queue — a std::map ordered by the
// canonical (when, domain, stream, seq) key — through the same operations,
// and records the first point where they disagree: an event firing out of
// order, a cancelled event firing, a live one lost, or pending_events() and
// PeekNextEventTime() drifting from the reference.
class EventQueueDifferential {
 public:
  explicit EventQueueDifferential(uint64_t seed) : rng_(seed) {}

  Simulation& sim() { return sim_; }
  Rng& rng() { return rng_; }
  size_t scheduled() const { return events_.size(); }
  size_t fired() const { return fired_; }
  size_t cancelled() const { return cancelled_; }
  const std::string& first_error() const { return first_error_; }

  // Unkeyed: inherits the executing event's domain (0 at top level) and
  // draws that domain's next FIFO number, exactly as the simulation does.
  size_t ScheduleUnkeyed(SimDuration delay) {
    uint64_t& next = domain_seq_.try_emplace(current_domain_, 1).first->second;
    size_t label = Add(Key{sim_.now() + delay, current_domain_, 0, next++});
    events_[label].id = sim_.Schedule(delay, [this, label] { Fire(label); });
    Check();
    return label;
  }

  size_t ScheduleKeyed(SimTime when, uint32_t domain, uint32_t stream) {
    uint64_t seq = ++stream_seq_[{domain, stream}];
    size_t label = Add(Key{when, domain, stream, seq});
    events_[label].id = sim_.ScheduleAtKeyed(when, domain, stream, seq,
                                             [this, label] { Fire(label); });
    Check();
    return label;
  }

  // Cancels `label` whatever its state: live, fired, already cancelled, or
  // holding a slot that has since been recycled for a newer event.
  void Cancel(size_t label) {
    Event& event = events_[label];
    sim_.Cancel(event.id);
    if (event.live) {
      event.live = false;
      reference_.erase(event.key);
      cancelled_++;
    }
    Check();
  }

  // The event that must fire next, or -1 when the reference is empty.
  long Top() const {
    return reference_.empty() ? -1
                              : static_cast<long>(reference_.begin()->second);
  }

  // When `label` fires, it cancels `sibling` (if still pending).
  void SetSibling(size_t label, size_t sibling) {
    events_[label].sibling = static_cast<long>(sibling);
  }

  void Check() {
    if (sim_.pending_events() != reference_.size()) {
      Fail("pending_events " + std::to_string(sim_.pending_events()) +
           " != reference " + std::to_string(reference_.size()));
    }
    SimTime expected =
        reference_.empty() ? kSimTimeNever : reference_.begin()->first.when;
    if (sim_.PeekNextEventTime() != expected) {
      Fail("PeekNextEventTime " + std::to_string(sim_.PeekNextEventTime()) +
           " != reference " + std::to_string(expected));
    }
  }

 private:
  struct Key {
    SimTime when;
    uint32_t domain;
    uint32_t stream;
    uint64_t seq;
    bool operator<(const Key& other) const {
      return std::tie(when, domain, stream, seq) <
             std::tie(other.when, other.domain, other.stream, other.seq);
    }
  };
  struct Event {
    Key key;
    EventId id = kInvalidEventId;
    bool live = true;
    long sibling = -1;
  };

  size_t Add(const Key& key) {
    size_t label = events_.size();
    events_.push_back(Event{key});
    reference_.emplace(key, label);
    return label;
  }

  void Fire(size_t label) {
    Event& event = events_[label];
    if (!event.live) {
      Fail("event " + std::to_string(label) + " fired after cancel");
      return;
    }
    if (Top() != static_cast<long>(label)) {
      Fail("event " + std::to_string(label) + " fired while " +
           std::to_string(Top()) + " was due");
    }
    if (sim_.now() != event.key.when) {
      Fail("event " + std::to_string(label) + " fired at the wrong time");
    }
    event.live = false;
    reference_.erase(event.key);
    fired_++;
    Check();
    current_domain_ = event.key.domain;
    if (event.sibling >= 0) {
      Cancel(static_cast<size_t>(event.sibling));
    }
    if (rng_.NextBelow(4) == 0) {
      ScheduleUnkeyed(static_cast<SimDuration>(rng_.NextBelow(3)));
    }
    current_domain_ = 0;
  }

  void Fail(const std::string& what) {
    if (first_error_.empty()) {
      first_error_ = what;
    }
  }

  Simulation sim_;
  Rng rng_;
  std::vector<Event> events_;
  std::map<Key, size_t> reference_;
  std::map<uint32_t, uint64_t> domain_seq_;
  std::map<std::pair<uint32_t, uint32_t>, uint64_t> stream_seq_;
  uint32_t current_domain_ = 0;
  size_t fired_ = 0;
  size_t cancelled_ = 0;
  std::string first_error_;
};

TEST(SimulationTest, EventQueueMatchesReferenceUnderRandomScheduleAndCancel) {
  EventQueueDifferential model(20261019);
  Simulation& sim = model.sim();
  Rng& rng = model.rng();
  // Delays of a few ns against a clock that creeps forward make same-instant
  // ties the common case, so the (domain, stream, seq) order does the work.
  auto delay = [&rng] { return static_cast<SimDuration>(rng.NextBelow(40)); };
  for (int op = 0; op < 100000 && model.first_error().empty(); op++) {
    switch (rng.NextBelow(12)) {
      case 0:
      case 1:
      case 2:
        model.ScheduleUnkeyed(delay());
        break;
      case 3:
      case 4:
        model.ScheduleKeyed(sim.now() + delay(),
                            1 + static_cast<uint32_t>(rng.NextBelow(4)),
                            1 + static_cast<uint32_t>(rng.NextBelow(3)));
        break;
      case 5: {
        // A top-level (domain 0) event that cancels a keyed sibling due at
        // the same instant, which orders after it.
        SimDuration d = delay();
        size_t first = model.ScheduleUnkeyed(d);
        size_t sibling = model.ScheduleKeyed(
            sim.now() + d, 1 + static_cast<uint32_t>(rng.NextBelow(4)),
            1 + static_cast<uint32_t>(rng.NextBelow(3)));
        model.SetSibling(first, sibling);
        break;
      }
      case 6:
        // Any id ever handed out: live, fired, cancelled, or with its slot
        // recycled by a newer event.
        if (model.scheduled() > 0) {
          model.Cancel(static_cast<size_t>(rng.NextBelow(model.scheduled())));
        }
        break;
      case 7:
        if (model.Top() >= 0) {
          model.Cancel(static_cast<size_t>(model.Top()));
        }
        break;
      case 8:
        // The newest entry, still at or near the heap's last position.
        model.Cancel(model.ScheduleUnkeyed(delay()));
        break;
      case 9:
        if (model.scheduled() > 0) {
          model.Cancel(model.scheduled() - 1);
        }
        break;
      case 10: {
        uint64_t steps = 1 + rng.NextBelow(6);
        for (uint64_t i = 0; i < steps; i++) {
          sim.Step();
        }
        model.Check();
        break;
      }
      default:
        sim.RunUntil(sim.now() + static_cast<SimDuration>(rng.NextBelow(8)));
        model.Check();
        break;
    }
  }
  sim.Run();
  model.Check();
  EXPECT_EQ(model.first_error(), "");
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.PeekNextEventTime(), kSimTimeNever);
  EXPECT_EQ(model.fired() + model.cancelled(), model.scheduled());
  EXPECT_EQ(sim.events_executed(), model.fired());
  // The mix really exercised both outcomes at volume.
  EXPECT_GT(model.fired(), 50000u);
  EXPECT_GT(model.cancelled(), 10000u);
}

TEST(RngTest, SameSeedSameSequence) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DoubleIsInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; i++) {
    double value = rng.NextDouble();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(RngTest, ExponentialHasRoughlyTheRequestedMean) {
  Rng rng(99);
  double sum = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; i++) {
    sum += rng.NextExponential(5.0);
  }
  double mean = sum / kSamples;
  EXPECT_NEAR(mean, 5.0, 0.2);
}

TEST(RngTest, NextInRangeIsInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; i++) {
    int64_t value = rng.NextInRange(2, 4);
    EXPECT_GE(value, 2);
    EXPECT_LE(value, 4);
    saw_lo |= (value == 2);
    saw_hi |= (value == 4);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(FutureTest, ReadyValuePropagates) {
  Promise<int> promise;
  Future<int> future = promise.GetFuture();
  EXPECT_FALSE(future.ready());
  promise.Set(42);
  EXPECT_TRUE(future.ready());
  EXPECT_EQ(future.Get(), 42);
}

TEST(FutureTest, CallbacksFireOnSetAndImmediatelyWhenLate) {
  Promise<int> promise;
  Future<int> future = promise.GetFuture();
  int calls = 0;
  future.OnReady([&] { calls++; });
  promise.Set(1);
  EXPECT_EQ(calls, 1);
  future.OnReady([&] { calls++; });  // already set: fires immediately
  EXPECT_EQ(calls, 2);
}

TEST(TaskTest, CoroutineAwaitsFutureAndResumes) {
  Simulation sim;
  Promise<int> promise;
  Future<int> future = promise.GetFuture();
  int observed = -1;

  auto coro = [&](Future<int> f) -> Task<void> {
    observed = co_await f;
  };
  Spawn(coro(future));
  EXPECT_EQ(observed, -1);  // suspended
  promise.Set(7);
  EXPECT_EQ(observed, 7);
}

TEST(TaskTest, SleepForAdvancesVirtualTime) {
  Simulation sim;
  SimTime woke_at = -1;
  auto coro = [&]() -> Task<void> {
    co_await SleepFor(sim, Milliseconds(25));
    woke_at = sim.now();
  };
  Spawn(coro());
  sim.Run();
  EXPECT_EQ(woke_at, Milliseconds(25));
}

TEST(TaskTest, NestedTasksChainResults) {
  Simulation sim;
  auto inner = [&]() -> Task<int> {
    co_await SleepFor(sim, Milliseconds(1));
    co_return 10;
  };
  auto outer = [&]() -> Task<int> {
    int a = co_await inner();
    int b = co_await inner();
    co_return a + b;
  };
  Future<int> result = Launch(outer());
  sim.Run();
  ASSERT_TRUE(result.ready());
  EXPECT_EQ(result.Get(), 20);
  EXPECT_EQ(sim.now(), Milliseconds(2));
}

TEST(TaskTest, MultipleWaitersAllResume) {
  Simulation sim;
  Promise<Unit> promise;
  Future<Unit> future = promise.GetFuture();
  int resumed = 0;
  auto waiter = [&](Future<Unit> f) -> Task<void> {
    co_await f;
    resumed++;
  };
  for (int i = 0; i < 5; i++) {
    Spawn(waiter(future));
  }
  EXPECT_EQ(resumed, 0);
  promise.Set(Unit{});
  EXPECT_EQ(resumed, 5);
}

TEST(TaskTest, LaunchExposesTaskResultAsFuture) {
  Simulation sim;
  auto work = [&]() -> Task<std::string> {
    co_await SleepFor(sim, Microseconds(10));
    co_return "done";
  };
  Future<std::string> future = Launch(work());
  EXPECT_FALSE(future.ready());
  sim.Run();
  ASSERT_TRUE(future.ready());
  EXPECT_EQ(future.Get(), "done");
}

TEST(BytesTest, WriterReaderRoundTripAllTypes) {
  BufferWriter writer;
  writer.WriteU8(0xab);
  writer.WriteU16(0x1234);
  writer.WriteU32(0xdeadbeef);
  writer.WriteU64(0x0123456789abcdefULL);
  writer.WriteI64(-42);
  writer.WriteVarint(300);
  writer.WriteString("hello");
  writer.WriteBool(true);
  writer.WriteDouble(3.25);
  Bytes buffer = writer.Take();

  BufferReader reader(buffer);
  EXPECT_EQ(reader.ReadU8().value(), 0xab);
  EXPECT_EQ(reader.ReadU16().value(), 0x1234);
  EXPECT_EQ(reader.ReadU32().value(), 0xdeadbeefu);
  EXPECT_EQ(reader.ReadU64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(reader.ReadI64().value(), -42);
  EXPECT_EQ(reader.ReadVarint().value(), 300u);
  EXPECT_EQ(reader.ReadString().value(), "hello");
  EXPECT_EQ(reader.ReadBool().value(), true);
  EXPECT_EQ(reader.ReadDouble().value(), 3.25);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BytesTest, TruncatedReadsFailCleanly) {
  BufferWriter writer;
  writer.WriteU64(1);
  Bytes buffer = writer.Take();
  buffer.resize(3);
  BufferReader reader(buffer);
  EXPECT_FALSE(reader.ReadU64().ok());
}

TEST(BytesTest, VarintBoundaries) {
  for (uint64_t value : {0ull, 127ull, 128ull, 16383ull, 16384ull,
                         0xffffffffffffffffull}) {
    BufferWriter writer;
    writer.WriteVarint(value);
    BufferReader reader(writer.buffer());
    EXPECT_EQ(reader.ReadVarint().value(), value);
  }
}

TEST(BytesTest, MalformedVarintRejected) {
  Bytes evil(11, 0x80);  // continuation bits forever
  BufferReader reader(evil);
  EXPECT_FALSE(reader.ReadVarint().ok());
}

TEST(StatusTest, MacrosPropagateErrors) {
  auto inner = []() -> StatusOr<int> { return NotFoundError("nope"); };
  auto outer = [&]() -> StatusOr<int> {
    EDEN_ASSIGN_OR_RETURN(int value, inner());
    return value + 1;
  };
  auto result = outer();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  EXPECT_EQ(OkStatus().ToString(), "OK");
  EXPECT_EQ(TimeoutError("too slow").ToString(), "TIMEOUT: too slow");
}

}  // namespace
}  // namespace eden
