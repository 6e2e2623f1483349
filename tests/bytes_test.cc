// Tests for the per-byte primitives in src/common/bytes: the slicing CRC-32
// against a bit-at-a-time reference, the FNV-1a digest's published values,
// and the word-wise Hash64's sensitivity to every bit and to the length.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string_view>

#include "src/common/bytes.h"
#include "src/sim/rng.h"

namespace eden {
namespace {

// The definition of reflected CRC-32, one bit per step.
uint32_t ReferenceCrc32(const uint8_t* data, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; i++) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; bit++) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

Bytes RandomBytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  Bytes out(size);
  for (uint8_t& byte : out) {
    byte = static_cast<uint8_t>(rng.NextU64());
  }
  return out;
}

const uint8_t* Raw(std::string_view text) {
  return reinterpret_cast<const uint8_t*>(text.data());
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32(Raw("123456789"), 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(Crc32(BytesView()), 0u);
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  Bytes buffer = RandomBytes(300 + 16, 7);
  for (size_t offset = 0; offset < 16; offset++) {
    for (size_t length = 0; length <= 300; length++) {
      const uint8_t* data = buffer.data() + offset;
      ASSERT_EQ(Crc32(data, length), ReferenceCrc32(data, length))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32Test, AnySplitIntoUpdatesGivesTheSameCrc) {
  Bytes buffer = RandomBytes(1000, 11);
  uint32_t whole = Crc32(buffer);
  // Every two-way split of a prefix that spans several 16-byte blocks.
  for (size_t cut = 0; cut <= 100; cut++) {
    uint32_t state = Crc32Begin();
    state = Crc32Update(state, buffer.data(), cut);
    state = Crc32Update(state, buffer.data() + cut, 100 - cut);
    ASSERT_EQ(Crc32End(state), Crc32(buffer.data(), 100)) << "cut " << cut;
  }
  // Seeded random many-way splits of the whole buffer, empty pieces included.
  Rng rng(13);
  for (int trial = 0; trial < 200; trial++) {
    uint32_t state = Crc32Begin();
    size_t pos = 0;
    while (pos < buffer.size()) {
      size_t piece = std::min<size_t>(rng.NextBelow(70), buffer.size() - pos);
      state = Crc32Update(state, buffer.data() + pos, piece);
      pos += piece;
    }
    ASSERT_EQ(Crc32End(state), whole) << "trial " << trial;
  }
}

TEST(Fnv1a64Test, KnownAnswers) {
  EXPECT_EQ(Fnv1a64(std::string_view("")), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64(std::string_view("a")), 0xaf63dc4c8601ec8cULL);
}

TEST(Hash64Test, EverySingleBitFlipChangesTheHash) {
  for (size_t length = 0; length <= 129; length++) {
    Bytes buffer = RandomBytes(length, 100 + length);
    uint64_t original = Hash64(buffer);
    for (size_t bit = 0; bit < length * 8; bit++) {
      buffer[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      ASSERT_NE(Hash64(buffer), original) << "length " << length << " bit "
                                          << bit;
      buffer[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
  }
}

TEST(Hash64Test, EqualPrefixesOfDifferentLengthsHashDifferently) {
  for (int seed : {0, 1}) {
    // All zeros (seed 0) is the case where only the length tells prefixes
    // apart; random bytes (seed 1) is the ordinary one.
    Bytes buffer = seed == 0 ? Bytes(200, 0) : RandomBytes(200, 17);
    std::set<uint64_t> seen;
    for (size_t length = 0; length <= buffer.size(); length++) {
      EXPECT_TRUE(seen.insert(Hash64(BytesView(buffer.data(), length))).second)
          << "seed " << seed << " length " << length;
    }
  }
}

TEST(Hash64Test, DependsOnContentNotAlignment) {
  Bytes buffer = RandomBytes(150, 19);
  for (size_t length : {0u, 5u, 31u, 32u, 33u, 64u, 150u}) {
    uint64_t aligned = Hash64(BytesView(buffer.data(), length));
    for (size_t offset = 1; offset < 8; offset++) {
      Bytes shifted(offset + length);
      std::copy(buffer.begin(), buffer.begin() + length,
                shifted.begin() + offset);
      EXPECT_EQ(Hash64(BytesView(shifted.data() + offset, length)), aligned)
          << "length " << length << " offset " << offset;
    }
  }
}

}  // namespace
}  // namespace eden
