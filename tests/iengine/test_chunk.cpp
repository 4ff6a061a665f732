#include <gtest/gtest.h>

#include <algorithm>

#include "iengine/chunk.hpp"
#include "net/packet.hpp"

namespace ps::iengine {
namespace {

TEST(PacketChunk, AppendAndAccess) {
  PacketChunk chunk(8);
  const std::vector<u8> a(64, 0xaa), b(128, 0xbb);
  EXPECT_TRUE(chunk.append(a, 111));
  EXPECT_TRUE(chunk.append(b, 222));

  ASSERT_EQ(chunk.count(), 2u);
  EXPECT_EQ(chunk.length(0), 64);
  EXPECT_EQ(chunk.length(1), 128);
  EXPECT_EQ(chunk.rss_hash(0), 111u);
  EXPECT_EQ(chunk.packet(1)[0], 0xbb);
  EXPECT_EQ(chunk.bytes(), 192u);
}

TEST(PacketChunk, PacketsAreContiguousInOneBuffer) {
  // The copy-into-contiguous-user-buffer design of section 4.3.
  PacketChunk chunk(4);
  chunk.append(std::vector<u8>(100, 1));
  chunk.append(std::vector<u8>(50, 2));
  EXPECT_EQ(chunk.packet(1).data(), chunk.packet(0).data() + 100);
}

TEST(PacketChunk, CapacityByCount) {
  PacketChunk chunk(2);
  const std::vector<u8> frame(64, 0);
  EXPECT_TRUE(chunk.append(frame));
  EXPECT_TRUE(chunk.append(frame));
  EXPECT_FALSE(chunk.append(frame));  // count cap
}

TEST(PacketChunk, RejectsOversizedPacket) {
  PacketChunk chunk(4);
  EXPECT_FALSE(chunk.append(std::vector<u8>(mem::kDataCellSize + 1, 0)));
  EXPECT_EQ(chunk.count(), 0u);
}

TEST(PacketChunk, DefaultVerdictIsForward) {
  PacketChunk chunk(4);
  chunk.append(std::vector<u8>(64, 0));
  EXPECT_EQ(chunk.verdict(0), PacketVerdict::kForward);
  EXPECT_EQ(chunk.out_port(0), -1);

  chunk.set_verdict(0, PacketVerdict::kDrop);
  chunk.set_out_port(0, 5);
  EXPECT_EQ(chunk.verdict(0), PacketVerdict::kDrop);
  EXPECT_EQ(chunk.out_port(0), 5);
}

TEST(PacketChunk, ClearKeepsCapacityDropsContent) {
  PacketChunk chunk(4);
  chunk.append(std::vector<u8>(64, 0));
  chunk.in_port = 3;
  chunk.clear();
  EXPECT_EQ(chunk.count(), 0u);
  EXPECT_EQ(chunk.bytes(), 0u);
  EXPECT_EQ(chunk.in_port, -1);
  EXPECT_EQ(chunk.max_packets(), 4u);
  EXPECT_TRUE(chunk.append(std::vector<u8>(64, 0)));
}

TEST(PacketChunk, MutationThroughSpan) {
  PacketChunk chunk(2);
  chunk.append(std::vector<u8>(64, 0));
  chunk.packet(0)[10] = 0x42;  // applications rewrite headers in place
  EXPECT_EQ(chunk.packet(0)[10], 0x42);
}

TEST(PacketChunk, MoveAssignmentTransfersContents) {
  PacketChunk a(4), b(4);
  a.append(std::vector<u8>(64, 7));
  a.in_port = 2;
  b = std::move(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.in_port, 2);
  EXPECT_EQ(b.packet(0)[0], 7);
}

/// A chunk of frames of the given sizes; frame i is filled with byte i + 1
/// except its last byte, which is 0xee, so a test can check both ends.
PacketChunk chunk_of(std::initializer_list<u32> sizes) {
  PacketChunk chunk(8);
  u8 fill = 1;
  for (const u32 size : sizes) {
    std::vector<u8> frame(size, fill++);
    frame.back() = 0xee;
    chunk.append(frame);
  }
  return chunk;
}

bool holds(const PacketChunk& chunk, u32 i, u32 old_length) {
  const auto frame = chunk.packet(i);
  if (frame.size() < old_length || frame[old_length - 1] != 0xee) return false;
  return std::all_of(frame.begin(), frame.begin() + old_length - 1,
                     [&](u8 b) { return b == i + 1; });
}

void no_fill(u32, u32) {}

TEST(PacketChunk, GrowKeepsFramesPackedWithTheirBytesFirst) {
  auto chunk = chunk_of({64, 100, 50});
  const u32 lengths[] = {80, 164, 50};
  ASSERT_TRUE(chunk.grow([&](u32 i) { return lengths[i]; }, no_fill));

  ASSERT_EQ(chunk.count(), 3u);
  EXPECT_EQ(chunk.bytes(), 80u + 164u + 50u);
  for (u32 i = 0; i < 3; ++i) EXPECT_EQ(chunk.length(i), lengths[i]) << i;
  EXPECT_EQ(chunk.packet(1).data(), chunk.packet(0).data() + 80);
  EXPECT_EQ(chunk.packet(2).data(), chunk.packet(1).data() + 164);
  EXPECT_TRUE(holds(chunk, 0, 64));
  EXPECT_TRUE(holds(chunk, 1, 100));
  EXPECT_TRUE(holds(chunk, 2, 50));
  // Appending still packs after the grown frames.
  ASSERT_TRUE(chunk.append(std::vector<u8>(60, 9)));
  EXPECT_EQ(chunk.packet(3).data(), chunk.packet(2).data() + 50);
}

TEST(PacketChunk, GrowKeepsUnchangedFramesBetweenGrownOnes) {
  auto chunk = chunk_of({64, 70, 90, 128});
  const u32 lengths[] = {120, 70, 90, 2048};
  ASSERT_TRUE(chunk.grow([&](u32 i) { return lengths[i]; }, no_fill));
  EXPECT_EQ(chunk.length(1), 70);
  EXPECT_EQ(chunk.length(2), 90);
  EXPECT_TRUE(holds(chunk, 1, 70));
  EXPECT_TRUE(holds(chunk, 2, 90));
  EXPECT_TRUE(holds(chunk, 0, 64));
  EXPECT_TRUE(holds(chunk, 3, 128));
  EXPECT_EQ(chunk.packet(3).data(), chunk.packet(0).data() + 120 + 70 + 90);
}

TEST(PacketChunk, GrowFillsEachFrameAfterItMovesBackToFront) {
  auto chunk = chunk_of({64, 100});
  std::vector<std::pair<u32, u32>> calls;
  ASSERT_TRUE(chunk.grow([](u32 i) { return i == 0 ? 70u : 110u; },
                         [&](u32 i, u32 old_length) {
                           calls.emplace_back(i, old_length);
                           EXPECT_TRUE(holds(chunk, i, old_length));
                           auto frame = chunk.packet(i);
                           std::fill(frame.begin() + old_length, frame.end(), 0xcc);
                         }));
  const std::vector<std::pair<u32, u32>> expected{{1, 100}, {0, 64}};
  EXPECT_EQ(calls, expected);
  EXPECT_EQ(chunk.packet(0)[69], 0xcc);
  EXPECT_EQ(chunk.packet(1)[109], 0xcc);
  EXPECT_TRUE(holds(chunk, 1, 100));  // filling frame 0 left frame 1 alone
}

TEST(PacketChunk, GrowRejectsLengthsOutOfRangeAndChangesNothing) {
  auto chunk = chunk_of({64, 100});
  const u8* first = chunk.packet(0).data();
  EXPECT_FALSE(chunk.grow([](u32 i) { return i == 0 ? 64u : mem::kDataCellSize + 1; },
                          no_fill));
  EXPECT_FALSE(chunk.grow([](u32 i) { return i == 0 ? 63u : 100u; }, no_fill));  // shrinks
  EXPECT_EQ(chunk.length(0), 64);
  EXPECT_EQ(chunk.length(1), 100);
  EXPECT_EQ(chunk.bytes(), 164u);
  EXPECT_EQ(chunk.packet(1).data(), first + 64);
  EXPECT_TRUE(holds(chunk, 0, 64));
  EXPECT_TRUE(holds(chunk, 1, 100));
}

}  // namespace
}  // namespace ps::iengine
