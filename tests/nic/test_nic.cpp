// NIC port model: RX steering + DMA into huge buffers, ring-full drops,
// TX to the wire, per-queue statistics.
#include <gtest/gtest.h>

#include "gen/traffic.hpp"
#include "nic/nic.hpp"
#include "perf/model.hpp"

namespace ps::nic {
namespace {

net::FrameBuffer frame_for(u32 size = 64, u16 dst_port = 2000) {
  net::FrameSpec spec;
  spec.frame_size = size;
  spec.dst_port = dst_port;
  return net::build_udp_ipv4(spec, net::Ipv4Addr(10, 0, 0, 1), net::Ipv4Addr(10, 0, 0, 2));
}

TEST(NicPort, ReceiveLandsInHugeBufferCell) {
  NicPort port(0, pcie::Topology::single_node(), {.num_rx_queues = 1, .ring_size = 8});
  const auto frame = frame_for(100);
  ASSERT_TRUE(port.receive_frame(frame));

  ASSERT_EQ(port.rx_available(0), 1u);
  RxSlot slot;
  ASSERT_EQ(port.rx_peek(0, &slot, 1), 1u);
  EXPECT_EQ(slot.length, 100);
  EXPECT_TRUE(slot.checksum_ok);
  EXPECT_TRUE(std::equal(frame.begin(), frame.end(), slot.data));

  port.rx_release(0, 1);
  EXPECT_EQ(port.rx_available(0), 0u);
}

TEST(NicPort, RingFullDrops) {
  NicPort port(0, pcie::Topology::single_node(), {.num_rx_queues = 1, .ring_size = 4});
  const auto frame = frame_for();
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(port.receive_frame(frame));
  EXPECT_FALSE(port.receive_frame(frame));  // full
  EXPECT_EQ(port.rx_totals().drops, 1u);
  EXPECT_EQ(port.rx_totals().packets, 4u);

  // Draining makes room again.
  port.rx_release(0, 2);
  EXPECT_TRUE(port.receive_frame(frame));
}

TEST(NicPort, CellsRecycleAcrossWraps) {
  NicPort port(0, pcie::Topology::single_node(), {.num_rx_queues = 1, .ring_size = 4});
  for (int round = 0; round < 10; ++round) {
    for (u32 i = 0; i < 4; ++i) {
      ASSERT_TRUE(port.receive_frame(frame_for(64 + round)));
    }
    RxSlot slots[4];
    ASSERT_EQ(port.rx_peek(0, slots, 4), 4u);
    for (const auto& slot : slots) EXPECT_EQ(slot.length, 64 + round);
    port.rx_release(0, 4);
  }
  EXPECT_EQ(port.rx_totals().packets, 40u);
}

TEST(NicPort, RssSteersByFlow) {
  NicPort port(0, pcie::Topology::single_node(), {.num_rx_queues = 4, .ring_size = 256});
  gen::TrafficGen traffic({.kind = gen::TrafficKind::kIpv4Udp, .seed = 5});

  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(port.receive_frame(traffic.next_frame()));
  }
  // Random flows must spread over all four queues.
  u32 used = 0;
  for (u16 q = 0; q < 4; ++q) {
    if (port.rx_available(q) > 0) ++used;
  }
  EXPECT_EQ(used, 4u);

  // Same flow -> same queue, always.
  const auto flow_frame = traffic.frame_for_flow(7);
  u16 first_queue = 0xffff;
  for (int i = 0; i < 8; ++i) {
    for (u16 q = 0; q < 4; ++q) port.rx_release(q, port.rx_available(q));
    ASSERT_TRUE(port.receive_frame(flow_frame));
    for (u16 q = 0; q < 4; ++q) {
      if (port.rx_available(q) > 0) {
        if (first_queue == 0xffff) first_queue = q;
        EXPECT_EQ(q, first_queue);
      }
    }
  }
}

TEST(NicPort, RssConfinementRestrictsQueues) {
  NicPort port(0, pcie::Topology::single_node(), {.num_rx_queues = 4, .ring_size = 256});
  port.configure_rss(0, 2);  // NUMA confinement: only queues 0 and 1
  gen::TrafficGen traffic({.seed = 6});
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(port.receive_frame(traffic.next_frame()));
  EXPECT_GT(port.rx_available(0), 0u);
  EXPECT_GT(port.rx_available(1), 0u);
  EXPECT_EQ(port.rx_available(2), 0u);
  EXPECT_EQ(port.rx_available(3), 0u);
}

TEST(NicPort, TransmitReachesWireSink) {
  NicPort port(3, pcie::Topology::paper_server(), {.num_tx_queues = 2});
  NullWire sink;
  port.set_wire_sink(&sink);

  const auto frame = frame_for(256);
  ASSERT_TRUE(port.transmit(1, frame));
  EXPECT_EQ(sink.frames(), 1u);
  EXPECT_EQ(sink.bytes(), 256u);
  EXPECT_EQ(port.tx_totals().packets, 1u);
  EXPECT_EQ(port.tx_totals().bytes, 256u);
}

TEST(NicPort, TransmitRejectsOversizedFrames) {
  NicPort port(0, pcie::Topology::single_node(), {});
  std::vector<u8> oversized(mem::kDataCellSize + 1, 0);
  EXPECT_FALSE(port.transmit(0, oversized));
  EXPECT_FALSE(port.receive_frame(oversized));
  EXPECT_FALSE(port.transmit(0, {}));
}

TEST(NicPort, BadChecksumFlaggedInDescriptor) {
  NicPort port(0, pcie::Topology::single_node(), {});
  auto frame = frame_for();
  frame[sizeof(net::EthernetHeader) + 10] ^= 0xff;
  ASSERT_TRUE(port.receive_frame(frame));
  RxSlot slot;
  ASSERT_EQ(port.rx_peek(0, &slot, 1), 1u);
  EXPECT_FALSE(slot.checksum_ok);  // hardware checksum offload marks it
}

TEST(NicPort, PerQueueStatsAggregateOnDemand) {
  NicPort port(0, pcie::Topology::single_node(), {.num_rx_queues = 4, .ring_size = 128});
  gen::TrafficGen traffic({.seed = 9});
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(port.receive_frame(traffic.next_frame()));

  u64 per_queue_sum = 0;
  for (u16 q = 0; q < 4; ++q) per_queue_sum += port.rx_queue_stats(q).packets;
  EXPECT_EQ(per_queue_sum, 100u);
  EXPECT_EQ(port.rx_totals().packets, 100u);
}

TEST(NicPort, DmaChargesLandOnTheRightIoh) {
  const auto topo = pcie::Topology::paper_server();
  perf::CostLedger ledger;

  NicPort port0(0, topo, {});  // node 0 -> IOH 0
  NicPort port4(4, topo, {});  // node 1 -> IOH 1
  port0.set_ledger(&ledger);
  port4.set_ledger(&ledger);

  ASSERT_TRUE(port0.receive_frame(frame_for()));
  EXPECT_GT(ledger.busy({perf::ResourceKind::kIohD2h, 0}), 0);
  EXPECT_EQ(ledger.busy({perf::ResourceKind::kIohD2h, 1}), 0);

  ASSERT_TRUE(port4.transmit(0, frame_for()));
  EXPECT_GT(ledger.busy({perf::ResourceKind::kIohH2d, 1}), 0);
  EXPECT_EQ(ledger.busy({perf::ResourceKind::kIohH2d, 0}), 0);
}

}  // namespace
}  // namespace ps::nic
