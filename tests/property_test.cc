// Property-based tests (parameterized sweeps over seeds, loss rates, sizes
// and concurrency) for the system's core invariants:
//
//   P1  Capability rights are monotone under restriction chains.
//   P2  Invocation execution is exactly-once under frame loss.
//   P3  checkpoint + crash + reincarnate is the identity on representations.
//   P4  The location protocol converges after arbitrary move sequences.
//   P5  Equal seeds produce byte-identical executions.
//   P6  EFS committed histories are serializable (linear version chains).
//   P7  The LAN neither duplicates nor invents frames.
#include <gtest/gtest.h>

#include "src/efs/client.h"
#include "src/efs/file_store.h"
#include "src/kernel/eden_system.h"
#include "src/types/standard_types.h"

namespace eden {
namespace {

// --- P1: rights monotonicity ------------------------------------------------

class RightsProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RightsProperty, RestrictionChainsNeverAmplify) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 100; trial++) {
    Capability cap(ObjectName(1, trial, 0),
                   Rights(static_cast<uint32_t>(rng.NextU64())));
    uint32_t previous = cap.rights().bits();
    for (int step = 0; step < 8; step++) {
      cap = cap.Restrict(Rights(static_cast<uint32_t>(rng.NextU64())));
      uint32_t current = cap.rights().bits();
      // No bit ever appears that was absent before.
      EXPECT_EQ(current & ~previous, 0u);
      previous = current;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RightsProperty,
                         ::testing::Values(1, 17, 255, 9999));

// --- P2: exactly-once execution under loss ----------------------------------

class ExactlyOnceProperty : public ::testing::TestWithParam<double> {};

TEST_P(ExactlyOnceProperty, CounterMatchesSuccessfulInvocations) {
  SystemConfig config;
  config.seed = 1234 + static_cast<uint64_t>(GetParam() * 100);
  config.lan.loss_probability = GetParam();
  EdenSystem system(config);
  RegisterStandardTypes(system);
  system.AddNodes(4);

  auto cap = system.node(0).CreateObject("std.counter", Representation{});
  ASSERT_TRUE(cap.ok());
  constexpr int kCalls = 30;
  int ok_count = 0;
  for (int i = 0; i < kCalls; i++) {
    InvokeResult result =
        system.Await(system.node(1 + i % 3).Invoke(*cap, "increment"));
    if (result.ok()) {
      ok_count++;
    }
  }
  // Quiesce, then read locally (no loss on the final read).
  system.lan().set_loss_probability(0.0);
  InvokeResult read = system.Await(system.node(0).Invoke(*cap, "read"));
  ASSERT_TRUE(read.ok());
  uint64_t value = read.results.U64At(0).value();
  // Every acknowledged increment happened; no increment happened twice. A
  // timed-out increment may or may not have landed, so value is bounded by
  // [ok_count, kCalls].
  EXPECT_GE(value, static_cast<uint64_t>(ok_count));
  EXPECT_LE(value, static_cast<uint64_t>(kCalls));
}

INSTANTIATE_TEST_SUITE_P(LossRates, ExactlyOnceProperty,
                         ::testing::Values(0.0, 0.05, 0.15, 0.3));

// --- P3: checkpoint/reincarnate round trip ----------------------------------

class RoundTripProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(RoundTripProperty, ReincarnationRestoresRepresentationExactly) {
  SystemConfig config;
  config.seed = GetParam();
  EdenSystem system(config);
  RegisterStandardTypes(system);
  system.AddNodes(3);

  // Random representation in a std.data object.
  Rng rng(GetParam() * 31 + 7);
  size_t size = 1 + rng.NextBelow(64 * 1024);
  Bytes content(size);
  for (size_t i = 0; i < size; i++) {
    content[i] = static_cast<uint8_t>(rng.NextU64());
  }

  auto cap = system.node(0).CreateObject("std.data", Representation{});
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(system
                  .Await(system.node(1).Invoke(*cap, "put",
                                               InvokeArgs{}.AddBytes(content)))
                  .ok());
  uint64_t digest_before =
      system.node(0).FindActive(cap->name())->core->rep.DigestValue();

  ASSERT_TRUE(system.Await(system.node(1).Invoke(*cap, "checkpoint")).ok());
  ASSERT_TRUE(system.Await(system.node(1).Invoke(*cap, "crash")).ok());
  ASSERT_FALSE(system.node(0).IsActive(cap->name()));

  InvokeResult read = system.Await(system.node(2).Invoke(*cap, "get"));
  ASSERT_TRUE(read.ok()) << read.status;
  EXPECT_EQ(read.results.BytesAt(0).value(), content);
  EXPECT_EQ(system.node(0).FindActive(cap->name())->core->rep.DigestValue(),
            digest_before);
}

INSTANTIATE_TEST_SUITE_P(SeedsAndSizes, RoundTripProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- P4: location convergence after move sequences ---------------------------

class ConvergenceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConvergenceProperty, ObjectIsAlwaysReachableAfterRandomMoves) {
  SystemConfig config;
  config.seed = GetParam();
  EdenSystem system(config);
  RegisterStandardTypes(system);
  constexpr size_t kNodes = 6;
  system.AddNodes(kNodes);

  auto cap = system.node(0).CreateObject("std.counter", Representation{});
  ASSERT_TRUE(cap.ok());
  Rng rng(GetParam());
  uint64_t expected = 0;
  for (int round = 0; round < 12; round++) {
    // Random move.
    size_t destination = rng.NextBelow(kNodes);
    InvokeResult moved = system.Await(system.node(rng.NextBelow(kNodes))
                                          .Invoke(*cap, "move_to",
                                                  InvokeArgs{}.AddU64(
                                                      system.node(destination)
                                                          .station())));
    EXPECT_TRUE(moved.ok()) << moved.status;
    // Random invoker must reach it (stale caches, forwarding chains and all).
    InvokeResult result =
        system.Await(system.node(rng.NextBelow(kNodes)).Invoke(*cap, "increment"));
    ASSERT_TRUE(result.ok()) << "round " << round << ": " << result.status;
    expected++;
    EXPECT_EQ(result.results.U64At(0).value(), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvergenceProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// --- P5: determinism ----------------------------------------------------------

class DeterminismProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeterminismProperty, EqualSeedsProduceIdenticalExecutions) {
  auto run = [](uint64_t seed) {
    SystemConfig config;
    config.seed = seed;
    config.lan.loss_probability = 0.1;
    EdenSystem system(config);
    RegisterStandardTypes(system);
    system.AddNodes(4);
    auto cap = system.node(0).CreateObject("std.counter", Representation{});
    for (int i = 0; i < 20; i++) {
      system.Await(system.node(i % 4).Invoke(*cap, "increment"));
    }
    // Fingerprint: final virtual time + full stats of every node.
    Digest digest;
    digest.Mix(static_cast<uint64_t>(system.sim().now()));
    for (size_t n = 0; n < system.node_count(); n++) {
      const KernelStats& stats = system.node(n).stats();
      digest.Mix(stats.invocations_started);
      digest.Mix(stats.invocations_remote);
      digest.Mix(system.node(n).metrics().CounterValue(
          "kernel.locate.queries.broadcast"));
      digest.Mix(stats.dispatches);
    }
    digest.Mix(system.lan().stats().frames_sent);
    digest.Mix(system.lan().stats().collisions);
    digest.Mix(system.lan().stats().frames_lost);
    return digest.value();
  };
  EXPECT_EQ(run(GetParam()), run(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismProperty,
                         ::testing::Values(7, 77, 777, 7777));

// --- P6: EFS serializability ----------------------------------------------------

class EfsSerializabilityProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EfsSerializabilityProperty, CommittedHistoryIsLinear) {
  auto [writers, files] = GetParam();
  SystemConfig config;
  config.seed = static_cast<uint64_t>(writers * 100 + files);
  EdenSystem system(config);
  RegisterStandardTypes(system);
  RegisterEfsTypes(system);
  system.AddNodes(4);

  auto store = system.node(0).CreateObject("efs.store", Representation{});
  ASSERT_TRUE(store.ok());
  EfsClient client(system.node(3), {*store});
  for (int f = 0; f < files; f++) {
    ASSERT_TRUE(
        system.Await(client.CreateFile("/f" + std::to_string(f))).ok());
  }

  // Launch concurrent single-file transactions; they race on base versions.
  Rng rng(config.seed);
  std::vector<Future<Status>> commits;
  std::vector<int> target_file;
  for (int w = 0; w < writers; w++) {
    int f = static_cast<int>(rng.NextBelow(files));
    auto txn = client.Begin();
    txn.Write("/f" + std::to_string(f),
              ToBytes("writer " + std::to_string(w)));
    commits.push_back(txn.Commit());
    target_file.push_back(f);
  }
  std::vector<int> committed_per_file(files, 0);
  for (int w = 0; w < writers; w++) {
    Status status = system.Await(std::move(commits[w]));
    if (status.ok()) {
      committed_per_file[target_file[w]]++;
    } else {
      EXPECT_EQ(status.code(), StatusCode::kAborted) << status;
    }
  }
  // Each file's version count equals its number of successful commits: the
  // committed history is a linear chain with no lost or phantom versions.
  for (int f = 0; f < files; f++) {
    auto latest = system.Await(client.Latest("/f" + std::to_string(f)));
    ASSERT_TRUE(latest.ok());
    EXPECT_EQ(*latest, static_cast<uint64_t>(committed_per_file[f]))
        << "file " << f;
  }
}

INSTANTIATE_TEST_SUITE_P(WritersAndFiles, EfsSerializabilityProperty,
                         ::testing::Values(std::make_tuple(2, 1),
                                           std::make_tuple(4, 2),
                                           std::make_tuple(8, 2),
                                           std::make_tuple(8, 4)));

// --- P7: LAN frame conservation ---------------------------------------------

class LanConservationProperty : public ::testing::TestWithParam<double> {};

TEST_P(LanConservationProperty, FramesAreNeitherDuplicatedNorInvented) {
  Simulation sim(42);
  LanConfig config;
  config.loss_probability = GetParam();
  Lan lan(sim, config);
  Station* a = lan.AttachStation();
  Station* b = lan.AttachStation();
  uint64_t received = 0;
  b->SetReceiveHandler([&](const Frame&) { received++; });
  constexpr uint64_t kFrames = 200;
  for (uint64_t i = 0; i < kFrames; i++) {
    a->Send(Frame{0, b->id(), Bytes(200)});
  }
  sim.Run();
  const LanStats& stats = lan.stats();
  EXPECT_EQ(stats.frames_sent, kFrames);
  EXPECT_EQ(received, stats.frames_delivered);
  EXPECT_EQ(stats.frames_delivered + stats.frames_lost +
                stats.frames_dropped_partition,
            kFrames);
}

INSTANTIATE_TEST_SUITE_P(LossRates, LanConservationProperty,
                         ::testing::Values(0.0, 0.1, 0.5));

}  // namespace
}  // namespace eden
