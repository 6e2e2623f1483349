#include "perfbench/replay.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "perfbench/harness.h"
#include "src/common/bytes.h"
#include "src/net/lan.h"
#include "src/net/transport.h"
#include "src/sim/simulation.h"

namespace perf {
namespace {

// Caps on how much input one replay really pushes through its layer.
constexpr double kMaxChecksumBytes = 64.0 * 1024 * 1024;
constexpr uint64_t kMaxCodecInvocations = 40000;
constexpr uint64_t kMaxQueueEvents = 2000000;
constexpr uint64_t kMaxTransportMessages = 20000;

double TotalBytes(const SizeMix& mix) {
  double total = 0;
  for (const auto& [size, count] : mix) {
    total += static_cast<double>(size) * static_cast<double>(count);
  }
  return total;
}

uint64_t TotalCount(const SizeMix& mix) {
  uint64_t total = 0;
  for (const auto& [size, count] : mix) {
    total += count;
  }
  return total;
}

// The share of each bucket a replay runs when the whole mix exceeds `cap`;
// the measured time is scaled back up by the share actually run.
double SampleFraction(double total, double cap) {
  return total > cap ? cap / total : 1;
}

uint64_t Scaled(uint64_t count, double fraction) {
  return std::max<uint64_t>(
      1, static_cast<uint64_t>(static_cast<double>(count) * fraction + 0.5));
}

// Replays `per_frame` over a sample of `frames` and scales to the whole mix.
template <typename Fn>
double ReplayFrames(const SizeMix& frames, Fn per_frame) {
  double total = TotalBytes(frames);
  if (total == 0) {
    return 0;
  }
  double fraction = SampleFraction(total, kMaxChecksumBytes);
  size_t largest = frames.rbegin()->first;
  eden::Bytes buffer = MakePayload(0x5eed, 0, 0, std::max<size_t>(largest, 1));
  double replayed = 0;
  uint64_t sink = 0;
  auto start = HostClock::now();
  for (const auto& [size, count] : frames) {
    uint64_t n = Scaled(count, fraction);
    for (uint64_t i = 0; i < n; i++) {
      sink += per_frame(buffer.data(), size);
    }
    replayed += static_cast<double>(size) * static_cast<double>(n);
  }
  double seconds = SecondsBetween(start, HostClock::now());
  // Keeps the loop's results observable so it cannot be optimised away.
  if (sink == 1) {
    std::fputc(' ', stderr);
  }
  return replayed == 0 ? 0 : seconds * total / replayed;
}

}  // namespace

double ReplayCrc(const SizeMix& frames) {
  return ReplayFrames(frames, [](const uint8_t* data, size_t size) {
    uint32_t sent = eden::Crc32End(
        eden::Crc32Update(eden::Crc32Begin(), data, size));
    uint32_t received = eden::Crc32End(
        eden::Crc32Update(eden::Crc32Begin(), data, size));
    return static_cast<uint64_t>(sent ^ received) + sent;
  });
}

double ReplayFnv(const SizeMix& frames) {
  return ReplayFrames(frames, [](const uint8_t* data, size_t size) {
    return eden::Fnv1a64(data, size);
  });
}

double ReplayCodec(const std::vector<CodecSample>& mix) {
  uint64_t total = 0;
  for (const CodecSample& sample : mix) {
    total += sample.count;
  }
  if (total == 0) {
    return 0;
  }
  double fraction = SampleFraction(static_cast<double>(total),
                                   static_cast<double>(kMaxCodecInvocations));
  uint64_t replayed = 0;
  uint64_t sink = 0;
  auto start = HostClock::now();
  for (const CodecSample& kind : mix) {
    if (kind.count == 0) {
      continue;
    }
    uint64_t n = Scaled(kind.count, fraction);
    for (uint64_t i = 0; i < n; i++) {
      eden::Bytes request = kind.request.Encode();
      auto decoded_request = eden::InvokeRequestMsg::Decode(request);
      eden::Bytes reply = kind.reply.Encode();
      auto decoded_reply = eden::InvokeReplyMsg::Decode(reply);
      sink += request.size() + reply.size() +
              (decoded_request.ok() ? 1 : 0) + (decoded_reply.ok() ? 1 : 0);
    }
    replayed += n;
  }
  double seconds = SecondsBetween(start, HostClock::now());
  if (sink == 1) {
    std::fputc(' ', stderr);
  }
  return seconds * static_cast<double>(total) / static_cast<double>(replayed);
}

SizeMix MessageSizes(const std::vector<CodecSample>& mix) {
  SizeMix sizes;
  for (const CodecSample& sample : mix) {
    if (sample.count == 0) {
      continue;
    }
    sizes[sample.request.Encode().size()] += sample.count;
    sizes[sample.reply.Encode().size()] += sample.count;
  }
  return sizes;
}

namespace {

// One self-replacing event: each firing schedules its successor, so the
// queue stays at the depth it was filled to.
struct QueueChurn {
  eden::Simulation* sim;
  InputRng* rng;
  void operator()() const {
    sim->Schedule(static_cast<eden::SimDuration>(rng->Below(1000000)),
                  QueueChurn{sim, rng});
  }
};

}  // namespace

double ReplayQueue(uint64_t events, size_t depth, uint64_t seed) {
  if (events == 0) {
    return 0;
  }
  uint64_t run = std::min(events, kMaxQueueEvents);
  eden::Simulation sim(seed);
  InputRng rng(StreamSeed(seed, 0x9ee0));
  for (size_t i = 0; i < std::max<size_t>(depth, 1); i++) {
    sim.Schedule(static_cast<eden::SimDuration>(rng.Below(1000000)),
                 QueueChurn{&sim, &rng});
  }
  auto start = HostClock::now();
  sim.Run(run);
  double seconds = SecondsBetween(start, HostClock::now());
  return seconds * static_cast<double>(events) / static_cast<double>(run);
}

double ReplayTransport(const SizeMix& messages, uint64_t seed, bool switched) {
  uint64_t total = TotalCount(messages);
  if (total == 0) {
    return 0;
  }
  double fraction = SampleFraction(static_cast<double>(total),
                                   static_cast<double>(kMaxTransportMessages));
  eden::Simulation sim(seed);
  eden::Lan lan(sim);
  if (switched) {
    lan.EnableSwitched();
  }
  eden::Transport a(sim, lan);
  eden::Transport b(sim, lan);
  uint64_t delivered = 0;
  a.SetHandler([&delivered](eden::StationId, eden::BytesView) { delivered++; });
  b.SetHandler([&delivered](eden::StationId, eden::BytesView) { delivered++; });
  // Requests and replies alternate direction, one message in flight at a
  // time, like a closed-loop client: the replay pays the transport's own
  // work, never queueing or retransmits the run did not have.
  uint64_t replayed = 0;
  bool forward = true;
  auto start = HostClock::now();
  for (const auto& [size, count] : messages) {
    uint64_t n = Scaled(count, fraction);
    eden::Bytes message = MakePayload(seed, size, 0, size);
    for (uint64_t i = 0; i < n; i++) {
      eden::Transport& from = forward ? a : b;
      eden::Transport& to = forward ? b : a;
      forward = !forward;
      from.SendReliable(to.station_id(), message);
      sim.Run();
      replayed++;
    }
  }
  double seconds = SecondsBetween(start, HostClock::now());
  return seconds * static_cast<double>(total) / static_cast<double>(replayed);
}

}  // namespace perf
