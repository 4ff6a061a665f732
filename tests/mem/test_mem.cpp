// Huge packet buffer and the skb-path baseline model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "mem/huge_buffer.hpp"
#include "mem/skb_model.hpp"

namespace ps::mem {
namespace {

TEST(HugePacketBuffer, CellGeometry) {
  HugePacketBuffer buf(512, 0);
  EXPECT_EQ(buf.cell_count(), 512u);
  EXPECT_EQ(buf.cell_data(0).size(), kDataCellSize);
  EXPECT_EQ(buf.numa_node(), 0);
  // One mapping covers everything — the per-packet DMA-mapping fix (§4.2).
  EXPECT_EQ(buf.mapped_bytes(), 512u * (kDataCellSize + sizeof(PacketMetadata)));
}

TEST(HugePacketBuffer, CellsAreIndependent) {
  // Cells are not zero-filled, so each one is read here only after it is
  // written: writing cells 1 and 2 must leave all three patterns whole.
  HugePacketBuffer buf(4, 1);
  const auto holds = [&buf](u32 cell, u8 value) {
    const auto data = buf.cell_data(cell);
    return std::all_of(data.begin(), data.end(), [value](u8 b) { return b == value; });
  };
  std::memset(buf.cell_data(0).data(), 0x11, kDataCellSize);
  std::memset(buf.cell_data(1).data(), 0xaa, kDataCellSize);
  std::memset(buf.cell_data(2).data(), 0xbb, kDataCellSize);
  EXPECT_TRUE(holds(0, 0x11));
  EXPECT_TRUE(holds(1, 0xaa));
  EXPECT_TRUE(holds(2, 0xbb));
}

TEST(HugePacketBuffer, MetadataIsCompact) {
  // The whole point of section 4.2: 8 bytes instead of 208.
  EXPECT_EQ(sizeof(PacketMetadata), 8u);
  EXPECT_EQ(kSkbMetadataSize, 208u);

  HugePacketBuffer buf(2, 0);
  buf.metadata(0).length = 64;
  buf.metadata(0).rss_hash = 0x12345678;
  EXPECT_EQ(buf.metadata(0).length, 64);
  EXPECT_EQ(buf.metadata(1).length, 0);
}

TEST(HugePacketBuffer, CellFitsMaxFrame) {
  // 2048 B cell fits the 1518 B maximum frame and keeps 1 KiB alignment.
  EXPECT_GE(kDataCellSize, 1518u);
  EXPECT_EQ(kDataCellSize % 1024, 0u);
}

TEST(SkbModel, BreakdownMatchesTable3Shares) {
  const auto b = skb_rx_breakdown();
  const double total = b.total();
  EXPECT_NEAR(total, perf::kSkbRxTotalCycles, 1e-6);
  EXPECT_NEAR(b.skb_init / total, 0.049, 1e-9);
  EXPECT_NEAR(b.alloc_free / total, 0.080, 1e-9);
  EXPECT_NEAR(b.memory_subsystem / total, 0.502, 1e-9);
  EXPECT_NEAR(b.nic_driver / total, 0.133, 1e-9);
  EXPECT_NEAR(b.others / total, 0.098, 1e-9);
  EXPECT_NEAR(b.compulsory_misses / total, 0.138, 1e-9);
  // Shares must cover 100% of the measured cycles (Table 3's last row).
  EXPECT_NEAR((b.skb_init + b.alloc_free + b.memory_subsystem + b.nic_driver + b.others +
               b.compulsory_misses) / total, 1.0, 1e-9);
}

TEST(SkbModel, HugeBufferEliminatesAllocatorWork) {
  const auto skb = skb_rx_breakdown();
  const auto huge = huge_buffer_rx_breakdown();
  EXPECT_EQ(huge.alloc_free, 0.0);
  EXPECT_EQ(huge.memory_subsystem, 0.0);
  EXPECT_LT(huge.skb_init, skb.skb_init / 10);
  EXPECT_LT(huge.compulsory_misses, skb.compulsory_misses / 10);
  // Section 4 claims an order-of-magnitude cheaper RX path overall.
  EXPECT_LT(huge.total() * 10, skb.total());
}

TEST(SkbAllocator, RecyclesThroughFreelist) {
  SkbAllocator alloc;
  auto skb = alloc.allocate();
  EXPECT_EQ(skb.metadata.size(), kSkbMetadataSize);
  skb.metadata[0] = 0xff;
  alloc.release(std::move(skb));
  EXPECT_EQ(alloc.freelist_size(), 1u);

  auto recycled = alloc.allocate();
  EXPECT_EQ(alloc.freelist_size(), 0u);
  // Per-packet re-initialization: the recycled metadata must be zeroed.
  EXPECT_EQ(recycled.metadata[0], 0x00);
  EXPECT_EQ(alloc.total_allocations(), 2u);
}

}  // namespace
}  // namespace ps::mem
