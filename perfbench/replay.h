// Layer replays for the traced run (README.md, "Per-layer metrics"): each
// function feeds part of a run's own inputs back through one layer's public
// functions, in isolation, and returns the host seconds that took. Dividing
// by the run's completed invocations gives the layer's host cost per
// invocation without instrumenting the program.
//
// Replays of large inputs run a fixed-size sample and scale the time
// linearly, so a replay costs at most a fraction of a second.
#ifndef EDEN_PERFBENCH_REPLAY_H_
#define EDEN_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/kernel/message.h"

namespace perf {

// Sizes seen in a run: size in bytes -> how many frames (or messages) had it.
using SizeMix = std::map<size_t, uint64_t>;

// CRC-32 of every frame, once on the sending and once on the receiving side.
double ReplayCrc(const SizeMix& frames);
// FNV-1a of every frame (the per-delivery payload hash).
double ReplayFnv(const SizeMix& frames);

// One kind of invocation in the run's mix, as encoded messages.
struct CodecSample {
  eden::InvokeRequestMsg request;
  eden::InvokeReplyMsg reply;
  uint64_t count = 0;
};
// Encode and decode of each invocation's request and reply.
double ReplayCodec(const std::vector<CodecSample>& mix);
// Request and reply sizes of a codec mix, as a message-size mix.
SizeMix MessageSizes(const std::vector<CodecSample>& mix);

// `events` events through a bare Simulation held at `depth` pending events.
double ReplayQueue(uint64_t events, size_t depth, uint64_t seed);

// The message-size mix through a bare Transport pair on its own LAN, shared
// (CSMA/CD) or switched like the run's.
double ReplayTransport(const SizeMix& messages, uint64_t seed, bool switched);

}  // namespace perf

#endif  // EDEN_PERFBENCH_REPLAY_H_
