// User-level packet I/O engine: batched RX into chunks, exclusive virtual
// interfaces, round-robin fairness, TX splitting.
#include <gtest/gtest.h>

#include "core/testbed.hpp"
#include "gen/traffic.hpp"
#include "iengine/engine.hpp"

namespace ps::iengine {
namespace {

struct EngineFixture {
  // Single node, two ports, one RX queue each, plenty of TX queues.
  core::Testbed testbed{core::TestbedConfig{.topo = pcie::Topology::single_node(),
                                            .use_gpu = false,
                                            .ring_size = 512},
                        core::RouterConfig{.use_gpu = false}};
  gen::TrafficGen traffic{{.seed = 4}};

  EngineFixture() {
    testbed.connect_sink(&traffic);
    // These tests attach only queue 0 per port: steer everything there.
    for (auto* port : testbed.ports()) port->configure_rss(0, 1);
  }
};

TEST(IoEngine, RecvChunkBatchesAcrossQueues) {
  EngineFixture fx;
  auto* handle = fx.testbed.engine().attach(0, {{0, 0}, {1, 0}});

  // 20 packets to each of the two ports.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(fx.testbed.port(0).receive_frame(fx.traffic.next_frame()));
    ASSERT_TRUE(fx.testbed.port(1).receive_frame(fx.traffic.next_frame()));
  }

  PacketChunk chunk(64);
  EXPECT_EQ(handle->recv_chunk(chunk), 40u);  // both queues drained
  EXPECT_EQ(chunk.count(), 40u);
  EXPECT_EQ(handle->recv_chunk(chunk), 0u);
}

TEST(IoEngine, ChunkSizeIsCappedNotWaitedFor) {
  // Section 5.3: the chunk size is capped, never padded by waiting.
  EngineFixture fx;
  auto* handle = fx.testbed.engine().attach(0, {{0, 0}});

  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(fx.testbed.port(0).receive_frame(fx.traffic.next_frame()));
  }
  PacketChunk chunk(32);
  EXPECT_EQ(handle->recv_chunk(chunk), 32u);  // cap
  EXPECT_EQ(handle->recv_chunk(chunk), 32u);
  EXPECT_EQ(handle->recv_chunk(chunk), 32u);
  EXPECT_EQ(handle->recv_chunk(chunk), 4u);  // remainder, no waiting
}

TEST(IoEngine, RoundRobinFairnessAcrossInterfaces) {
  EngineFixture fx;
  auto* handle = fx.testbed.engine().attach(0, {{0, 0}, {1, 0}});

  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(fx.testbed.port(0).receive_frame(fx.traffic.next_frame()));
    ASSERT_TRUE(fx.testbed.port(1).receive_frame(fx.traffic.next_frame()));
  }
  // A capped chunk must take from the first interface, and the *next* call
  // must resume from the second, not re-favor the first.
  PacketChunk chunk(64);
  ASSERT_EQ(handle->recv_chunk(chunk), 64u);
  const int first_port = chunk.in_port;
  ASSERT_EQ(handle->recv_chunk(chunk), 64u);
  EXPECT_NE(chunk.in_port, first_port);
}

TEST(IoEngine, ExclusiveVirtualInterfaces) {
  EngineFixture fx;
  fx.testbed.engine().attach(0, {{0, 0}});
#ifndef NDEBUG
  EXPECT_DEATH(fx.testbed.engine().attach(1, {{0, 0}}), "exclusive");
#endif
}

TEST(IoEngine, SendChunkSplitsAcrossPorts) {
  EngineFixture fx;
  auto* handle = fx.testbed.engine().attach(0, {{0, 0}});

  PacketChunk chunk(8);
  for (int i = 0; i < 8; ++i) chunk.append(fx.traffic.next_frame());
  for (u32 i = 0; i < 8; ++i) chunk.set_out_port(i, static_cast<i16>(i % 2));

  EXPECT_EQ(handle->send_chunk(chunk), 8u);
  EXPECT_EQ(fx.testbed.port(0).tx_totals().packets, 4u);
  EXPECT_EQ(fx.testbed.port(1).tx_totals().packets, 4u);
  EXPECT_EQ(fx.traffic.sunk_packets(), 8u);
}

TEST(IoEngine, SendRespectsVerdicts) {
  EngineFixture fx;
  auto* handle = fx.testbed.engine().attach(0, {{0, 0}});

  PacketChunk chunk(4);
  for (int i = 0; i < 4; ++i) chunk.append(fx.traffic.next_frame());
  chunk.set_out_port(0, 0);
  chunk.set_verdict(1, PacketVerdict::kDrop);
  chunk.set_verdict(2, PacketVerdict::kSlowPath);
  chunk.set_out_port(3, 1);

  EXPECT_EQ(handle->send_chunk(chunk), 2u);  // only 0 and 3
}

TEST(IoEngine, InvalidOutPortCountsAsTxDrop) {
  EngineFixture fx;
  auto* handle = fx.testbed.engine().attach(0, {{0, 0}});
  PacketChunk chunk(2);
  chunk.append(fx.traffic.next_frame());
  chunk.set_out_port(0, 99);  // no such port
  chunk.append(fx.traffic.next_frame());
  // out_port left at -1: never classified -> also a drop.
  EXPECT_EQ(handle->send_chunk(chunk), 0u);
  EXPECT_EQ(handle->tx_drops(), 2u);
}

TEST(IoEngine, RecvChargesRxCycles) {
  EngineFixture fx;
  auto* handle = fx.testbed.engine().attach(0, {{0, 0}});
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fx.testbed.port(0).receive_frame(fx.traffic.next_frame()));
  }

  perf::CostLedger ledger;
  {
    perf::CpuChargeScope scope(&ledger, 0);
    PacketChunk chunk(64);
    handle->recv_chunk(chunk);
  }
  const Picos busy = ledger.busy({perf::ResourceKind::kCpuCore, 0});
  const Picos expected = perf::cpu_cycles_to_picos(
      perf::kRxCyclesPerBatch + 10 * (perf::kRxCyclesPerPacket + 12.0) + 40.0);
  EXPECT_NEAR(static_cast<double>(busy), static_cast<double>(expected), 1e6);
}

TEST(IoEngine, EmptyPollIsCheap) {
  EngineFixture fx;
  auto* handle = fx.testbed.engine().attach(0, {{0, 0}});
  perf::CostLedger ledger;
  {
    perf::CpuChargeScope scope(&ledger, 0);
    PacketChunk chunk(64);
    handle->recv_chunk(chunk);
  }
  // Batch overhead + one empty poll, but no per-packet work.
  EXPECT_LT(ledger.busy({perf::ResourceKind::kCpuCore, 0}),
            perf::cpu_cycles_to_picos(perf::kRxCyclesPerBatch + 100));
}

}  // namespace
}  // namespace ps::iengine
