// Additional io-engine coverage: multi-handle isolation, split TX across
// all ports, standalone frame TX, NUMA-blind penalties, and overflow
// backpressure behaviour.
#include <gtest/gtest.h>

#include "core/testbed.hpp"
#include "gen/traffic.hpp"
#include "iengine/engine.hpp"

namespace ps::iengine {
namespace {

TEST(IoEngineMore, TwoHandlesDrainDisjointQueues) {
  core::Testbed testbed({.topo = pcie::Topology::single_node(), .use_gpu = false,
                         .ring_size = 1024},
                        core::RouterConfig{.use_gpu = false});
  gen::TrafficGen traffic({.seed = 90});
  testbed.connect_sink(&traffic);
  for (auto* port : testbed.ports()) port->configure_rss(0, 2);

  auto* h0 = testbed.engine().attach(0, {{0, 0}});
  auto* h1 = testbed.engine().attach(1, {{0, 1}});

  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(testbed.port(0).receive_frame(traffic.next_frame()));
  }

  PacketChunk c0(512), c1(512);
  const u32 n0 = h0->recv_chunk(c0);
  const u32 n1 = h1->recv_chunk(c1);
  EXPECT_EQ(n0 + n1, 400u);
  EXPECT_GT(n0, 0u);
  EXPECT_GT(n1, 0u);
  // A second fetch sees nothing: no double delivery across handles.
  EXPECT_EQ(h0->recv_chunk(c0), 0u);
  EXPECT_EQ(h1->recv_chunk(c1), 0u);
}

TEST(IoEngineMore, SplitTransmissionAcrossAllPorts) {
  // "flexible usage of the user buffer, such as ... split transmission of
  // batched packets to multiple NIC ports" (section 4.3).
  core::Testbed testbed({.topo = pcie::Topology::paper_server(), .use_gpu = false,
                         .ring_size = 1024},
                        core::RouterConfig{.use_gpu = false});
  gen::TrafficGen traffic({.seed = 91});
  testbed.connect_sink(&traffic);
  auto* handle = testbed.engine().attach(0, {{0, 0}});

  PacketChunk chunk(64);
  for (int i = 0; i < 64; ++i) chunk.append(traffic.next_frame());
  for (u32 i = 0; i < 64; ++i) chunk.set_out_port(i, static_cast<i16>(i % 8));

  EXPECT_EQ(handle->send_chunk(chunk), 64u);
  for (int p = 0; p < 8; ++p) {
    EXPECT_EQ(testbed.port(p).tx_totals().packets, 8u) << p;
    EXPECT_EQ(traffic.sunk_on_port(p), 8u) << p;
  }
}

TEST(IoEngineMore, SendFrameStandalone) {
  core::Testbed testbed({.topo = pcie::Topology::single_node(), .use_gpu = false},
                        core::RouterConfig{.use_gpu = false});
  gen::TrafficGen traffic({.seed = 92});
  testbed.connect_sink(&traffic);
  auto* handle = testbed.engine().attach(2, {{0, 0}});

  const auto frame = traffic.next_frame();
  EXPECT_TRUE(handle->send_frame(1, frame));
  EXPECT_FALSE(handle->send_frame(-1, frame));
  EXPECT_FALSE(handle->send_frame(99, frame));
  EXPECT_EQ(traffic.sunk_on_port(1), 1u);
}

TEST(IoEngineMore, NumaBlindRemoteDrainChargesPenalty) {
  // With numa_aware=false a handle may drain a remote node's queue; the
  // model charges the §4.5 remote-access penalty per packet.
  core::TestbedConfig cfg{.topo = pcie::Topology::paper_server(), .use_gpu = false,
                          .ring_size = 1024};
  cfg.engine.numa_aware = false;
  core::Testbed testbed(cfg, core::RouterConfig{.use_gpu = false});
  gen::TrafficGen traffic({.seed = 93});
  for (auto* port : testbed.ports()) port->configure_rss(0, 1);

  // Core 0 lives on node 0; port 4 lives on node 1 -> remote binding.
  auto* local = testbed.engine().attach(0, {{0, 0}});
  auto* remote = testbed.engine().attach(1, {{4, 0}});

  const auto frame = traffic.next_frame();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(testbed.port(0).receive_frame(frame));
    ASSERT_TRUE(testbed.port(4).receive_frame(frame));
  }

  perf::CostLedger local_ledger, remote_ledger;
  PacketChunk chunk(64);
  {
    perf::CpuChargeScope scope(&local_ledger, 0);
    local->recv_chunk(chunk);
  }
  {
    perf::CpuChargeScope scope(&remote_ledger, 1);
    remote->recv_chunk(chunk);
  }
  const Picos expected_penalty =
      perf::cpu_cycles_to_picos(50 * perf::kNumaBlindExtraCyclesPerPacket);
  EXPECT_NEAR(static_cast<double>(remote_ledger.busy({perf::ResourceKind::kCpuCore, 1}) -
                                  local_ledger.busy({perf::ResourceKind::kCpuCore, 0})),
              static_cast<double>(expected_penalty), 1e6);
}

TEST(IoEngineMore, ChunkCapAppliesAcrossManyQueues) {
  core::Testbed testbed({.topo = pcie::Topology::single_node(), .use_gpu = false,
                         .ring_size = 1024},
                        core::RouterConfig{.use_gpu = false});
  gen::TrafficGen traffic({.seed = 95});
  for (auto* port : testbed.ports()) port->configure_rss(0, 1);
  auto* handle = testbed.engine().attach(0, {{0, 0}, {1, 0}, {2, 0}, {3, 0}});

  for (int p = 0; p < 4; ++p) {
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(testbed.port(p).receive_frame(traffic.next_frame()));
    }
  }
  PacketChunk chunk(128);
  EXPECT_EQ(handle->recv_chunk(chunk), 128u);  // capped, spanning queues
  EXPECT_EQ(handle->recv_chunk(chunk), 128u);
  EXPECT_EQ(handle->recv_chunk(chunk), 128u);
  EXPECT_EQ(handle->recv_chunk(chunk), 16u);  // remainder
}

}  // namespace
}  // namespace ps::iengine
