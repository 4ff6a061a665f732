// Steady-state model driver: functional correctness of the modeled
// pipeline plus the headline shape checks (Figure 6 anchors).
#include <gtest/gtest.h>

#include "apps/dynamic_ipv4.hpp"
#include "core/model_driver.hpp"
#include "route/rib_gen.hpp"

namespace ps::core {
namespace {

TestbedConfig paper_testbed(bool use_gpu) {
  return TestbedConfig{.topo = pcie::Topology::paper_server(),
                       .use_gpu = use_gpu,
                       .ring_size = 4096};
}

TEST(ModelDriver, MinimalForwardingHitsTheDualIohCeiling) {
  // Figure 6: minimal forwarding of 64 B packets lands around 41 Gbps,
  // bounded by the dual-IOH anomaly, not by CPU.
  Testbed testbed(paper_testbed(false), RouterConfig{.use_gpu = false});
  gen::TrafficGen traffic({.frame_size = 64, .seed = 1});
  testbed.connect_sink(&traffic);

  ModelDriver driver(testbed, nullptr, RouterConfig{.use_gpu = false});
  const auto result = driver.run(traffic, 100'000);

  EXPECT_EQ(result.accepted, result.offered);
  EXPECT_EQ(result.forwarded, result.offered);
  EXPECT_NEAR(result.output_gbps, 41.1, 3.0);
  EXPECT_EQ(result.bottleneck.substr(0, 3), "ioh");
}

TEST(ModelDriver, RxOnlyFasterThanForwarding) {
  Testbed rx_bed(paper_testbed(false), RouterConfig{.use_gpu = false});
  gen::TrafficGen traffic({.frame_size = 64, .seed = 2});
  rx_bed.connect_sink(&traffic);
  ModelDriver rx_driver(rx_bed, nullptr, RouterConfig{.use_gpu = false});
  rx_driver.set_io_mode(ModelDriver::IoMode::kRxOnly);
  const auto rx = rx_driver.run(traffic, 100'000);

  Testbed fwd_bed(paper_testbed(false), RouterConfig{.use_gpu = false});
  gen::TrafficGen traffic2({.frame_size = 64, .seed = 2});
  fwd_bed.connect_sink(&traffic2);
  ModelDriver fwd_driver(fwd_bed, nullptr, RouterConfig{.use_gpu = false});
  const auto fwd = fwd_driver.run(traffic2, 100'000);

  // Figure 6: RX-only ~53 Gbps > forwarding ~41 Gbps at 64 B.
  EXPECT_GT(rx.input_gbps, fwd.output_gbps + 5.0);
  EXPECT_NEAR(rx.input_gbps, 53.1, 5.0);
}

TEST(ModelDriver, TxOnlyApproachesLineRate) {
  Testbed testbed(paper_testbed(false), RouterConfig{.use_gpu = false});
  gen::TrafficGen traffic({.frame_size = 64, .seed = 3});
  testbed.connect_sink(&traffic);
  ModelDriver driver(testbed, nullptr, RouterConfig{.use_gpu = false});
  driver.set_io_mode(ModelDriver::IoMode::kTxOnly);
  const auto result = driver.run(traffic, 100'000);

  // Figure 6: TX reaches 79.3 Gbps with 64 B packets.
  EXPECT_NEAR(result.output_gbps, 79.3, 6.0);
}

TEST(ModelDriver, NodeCrossingStaysAbove40G) {
  Testbed testbed(paper_testbed(false), RouterConfig{.use_gpu = false});
  gen::TrafficGen traffic({.frame_size = 64, .seed = 4});
  testbed.connect_sink(&traffic);
  ModelDriver driver(testbed, nullptr, RouterConfig{.use_gpu = false});
  driver.set_node_crossing(true);
  const auto result = driver.run(traffic, 100'000);
  EXPECT_GT(result.output_gbps, 38.0);

  // Node crossing: everything received on node 0's ports must leave on
  // node 1's ports and vice versa.
  u64 crossed = 0;
  for (int p = 4; p < 8; ++p) crossed += testbed.port(p).tx_totals().packets;
  EXPECT_GT(crossed, 0u);
}

TEST(ModelDriver, SingleCoreBatchEffect) {
  // The Figure 5 shape: batch size 1 is an order of magnitude slower than
  // batch size 64 on one core.
  auto run_with_batch = [](u32 batch) {
    TestbedConfig cfg{.topo = pcie::Topology::single_node(),
                      .use_gpu = false,
                      .ring_size = 4096};
    RouterConfig rcfg{.use_gpu = false, .chunk_capacity = batch};
    Testbed testbed(cfg, rcfg);
    gen::TrafficGen traffic({.frame_size = 64, .seed = 5});
    testbed.connect_sink(&traffic);
    ModelDriver driver(testbed, nullptr, rcfg);
    driver.set_active_workers(1);
    return driver.run(traffic, 50'000).output_gbps;
  };

  const double batch1 = run_with_batch(1);
  const double batch64 = run_with_batch(64);
  EXPECT_NEAR(batch1, 0.78, 0.2);
  EXPECT_NEAR(batch64, 10.5, 2.0);
  EXPECT_GT(batch64 / batch1, 10.0);  // the paper reports 13.5x
}

TEST(ModelDriver, GpuAppProcessesEverythingFunctionally) {
  // With a GPU shader attached, every accepted packet must still come out
  // (the model driver runs real lookups on the simulated device).
  Testbed testbed(paper_testbed(true), RouterConfig{.use_gpu = true});
  gen::TrafficGen traffic({.frame_size = 64, .seed = 6});
  testbed.connect_sink(&traffic);

  route::Ipv4Fib fib;
  fib.announce({net::Ipv4Addr(0), 0, 2});  // default -> port 2
  fib.commit();
  apps::DynamicIpv4ForwardApp app(fib);

  ModelDriver driver(testbed, &app, RouterConfig{.use_gpu = true});
  const auto result = driver.run(traffic, 20'000);
  EXPECT_EQ(result.forwarded, result.accepted);
  EXPECT_EQ(result.dropped, 0u);
  EXPECT_EQ(traffic.sunk_on_port(2), result.forwarded);
}

}  // namespace
}  // namespace ps::core
