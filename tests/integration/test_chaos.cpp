// Chaos integration: the full threaded router under injected faults.
//
// The schedule is deterministic: fault windows are indexed by per-point
// hit counters, and a single-node testbed has exactly one master thread,
// so the "gpu.launch" hit sequence (batch attempts + recovery probes) is
// serial. The test drives traffic through a GPU failure window (failure
// at t1, window expiry = recovery at t2), RX ring-full and corruption
// bursts, and injected master-queue overflow, then checks that every
// packet is accounted for and the watchdog tripped and recovered.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <thread>

#include "apps/dynamic_ipv4.hpp"
#include "core/router.hpp"
#include "core/testbed.hpp"
#include "fault/fault_injector.hpp"
#include "gen/traffic.hpp"

namespace ps {
namespace {

using namespace std::chrono_literals;

bool wait_for(const std::function<bool()>& cond, std::chrono::milliseconds timeout = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return cond();
}

/// A default route so the only drops are the injected ones.
std::unique_ptr<route::Ipv4Fib> default_route_fib(route::NextHop out_port) {
  auto fib = std::make_unique<route::Ipv4Fib>();
  fib->announce({net::Ipv4Addr(0), 0, out_port});
  fib->commit();
  return fib;
}

TEST(Chaos, GpuFailureRecoveryWithZeroUnaccountedLoss) {
  const auto fib = default_route_fib(1);
  apps::DynamicIpv4ForwardApp app(*fib);

  core::Testbed testbed({.topo = pcie::Topology::single_node(),
                         .use_gpu = true,
                         .ring_size = 4096,
                         .gpu_pool_workers = 0},
                        core::RouterConfig{.use_gpu = true});
  gen::TrafficGen traffic({.frame_size = 64, .seed = 71});
  testbed.connect_sink(&traffic);

  core::RouterConfig config;
  config.use_gpu = true;
  config.chunk_capacity = 64;
  config.gather_max = 4;
  config.gpu_max_retries = 3;     // a failed batch burns 3 launch hits
  config.gpu_backoff_us = 1;      // keep retry backoff test-fast
  config.gpu_backoff_cap_us = 100;
  config.gpu_fail_threshold = 2;  // two failed batches trip the device
  config.gpu_probe_interval_batches = 2;

  // The GPU fails launches 20..31 (two failed batches trip the watchdog;
  // probes consume the rest of the window, then the first clean probe
  // re-admits the device). NIC faults: a ring-full burst, a corruption
  // burst, and a master-queue overflow burst.
  fault::FaultInjector inj(/*seed=*/7);
  inj.add_rule({.point = "gpu.launch", .after = 20, .count = 12});
  inj.add_rule({.point = "nic.rx_ring_full", .after = 2000, .count = 500});
  inj.add_rule({.point = "nic.rx_corrupt", .after = 100, .count = 50});
  inj.add_rule({.point = "core.master_queue", .after = 200, .count = 20});
  testbed.set_fault_injector(&inj);

  core::Router router(testbed.engine(), testbed.gpus(), app, config);
  router.set_fault_injector(&inj);
  router.start();

  // Offer traffic in pulses until the watchdog has tripped AND recovered
  // (and the NIC windows are exhausted), bounded by a deadline.
  u64 offered = 0;
  u64 accepted = 0;
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while (std::chrono::steady_clock::now() < deadline && offered < 200'000) {
    accepted += traffic.offer(testbed.ports(), 2'000);
    offered += 2'000;
    const auto health = router.gpu_health(0);
    if (health.trips >= 1 && health.recoveries >= 1 && offered >= 20'000) break;
    std::this_thread::sleep_for(1ms);
  }

  // No-deadlock / no-loss: every accepted packet either reaches the sink
  // or is one of the injected corruption drops. Both counters in the
  // predicate are synchronized (atomic sink, mutex-guarded injector).
  EXPECT_TRUE(wait_for(
      [&] { return traffic.sunk_packets() + inj.stats("nic.rx_corrupt").fired == accepted; },
      30s));
  router.stop();

  const auto stats = router.total_stats();
  const auto health = router.gpu_health(0);

  // --- full accounting: nothing silently lost ------------------------------
  u64 hw_rx_drops = 0;
  for (auto* port : testbed.ports()) hw_rx_drops += port->rx_totals().drops;
  EXPECT_EQ(accepted + hw_rx_drops, offered);
  EXPECT_GE(hw_rx_drops, inj.stats("nic.rx_ring_full").fired);
  EXPECT_EQ(inj.stats("nic.rx_ring_full").fired, 500u);

  EXPECT_EQ(stats.packets_in, accepted);
  EXPECT_EQ(stats.packets_out + stats.dropped() + stats.slow_path, stats.packets_in);
  EXPECT_EQ(stats.packets_out, traffic.sunk_packets());

  // Per-reason drops: exactly the injected corruptions, nothing else.
  EXPECT_EQ(stats.drops(iengine::DropReason::kCorrupted), 50u);
  EXPECT_EQ(stats.dropped(), 50u);
  EXPECT_EQ(inj.stats("nic.rx_corrupt").fired, 50u);

  // --- the watchdog tripped, degraded gracefully, and recovered ------------
  EXPECT_GE(health.trips, 1u);
  EXPECT_GE(health.recoveries, 1u);
  EXPECT_GE(health.probes, 1u);
  EXPECT_GE(health.retries, 1u);
  EXPECT_GE(health.failed_batches, config.gpu_fail_threshold);
  EXPECT_GT(health.cpu_fallback_chunks, 0u);
  EXPECT_TRUE(health.healthy);  // re-admitted after the window expired
  EXPECT_EQ(inj.stats("gpu.launch").fired, 12u);  // window fully consumed

  // CPU shading carried the load while the GPU was sick, and the GPU
  // re-engaged after recovery.
  EXPECT_GT(stats.cpu_processed, 0u);
  EXPECT_GT(stats.gpu_processed, 0u);
  EXPECT_EQ(stats.cpu_processed + stats.gpu_processed, stats.packets_in);

  // The injected master-queue overflow forced worker-side CPU fallback.
  EXPECT_EQ(inj.stats("core.master_queue").fired, 20u);
}

TEST(Chaos, TxLinkFlapExhaustsRetryAndCountsRingFullDrops) {
  // Flap port 0's link while traffic enters only on ports 1..3 and routes
  // out of port 0: every hit on the per-port point is then a TX attempt,
  // so the fault window falls entirely on the transmit path. The engine's
  // bounded retry (5 attempts) means a 400-fire window costs at most 80
  // packets — and at least (400 - straddlers) / 5.
  const auto fib = default_route_fib(0);
  apps::DynamicIpv4ForwardApp app(*fib);

  core::Testbed testbed({.topo = pcie::Topology::single_node(),
                         .use_gpu = false,
                         .ring_size = 4096},
                        core::RouterConfig{.use_gpu = false});
  gen::TrafficGen traffic({.frame_size = 64, .seed = 72});
  testbed.connect_sink(&traffic);

  fault::FaultInjector inj(/*seed=*/9);
  inj.add_rule({.point = "nic.link_down.0", .after = 1'000, .count = 400});
  testbed.set_fault_injector(&inj);

  core::RouterConfig config;
  config.use_gpu = false;
  config.chunk_capacity = 64;
  core::Router router(testbed.engine(), {}, app, config);
  router.set_fault_injector(&inj);
  router.start();

  const u64 offered = 12'000;
  const u64 accepted = traffic.offer(testbed.ports().subspan(1), offered);
  EXPECT_EQ(accepted, offered);  // no RX-side faults in this test

  // Drain completely (bounded: this doubles as the no-deadlock check):
  // everything accepted reaches the sink except the TX-flap casualties.
  EXPECT_TRUE(wait_for(
      [&] {
        const auto s = router.total_stats();
        return traffic.sunk_packets() + s.drops(iengine::DropReason::kRingFull) == accepted;
      },
      30s));
  router.stop();

  const auto stats = router.total_stats();
  EXPECT_EQ(stats.packets_in, accepted);
  EXPECT_EQ(stats.packets_out + stats.dropped() + stats.slow_path, stats.packets_in);
  EXPECT_EQ(stats.packets_out, traffic.sunk_packets());

  EXPECT_EQ(inj.stats("nic.link_down.0").fired, 400u);
  // Each dropped packet burns exactly 5 in-window fires; only the (at most
  // one per worker) packets straddling the window end can survive with
  // fewer, so the drop count is tightly bounded on both sides.
  const u64 ring_full = stats.drops(iengine::DropReason::kRingFull);
  EXPECT_GE(ring_full, (400u - 5u * 4u) / 5u);
  EXPECT_LE(ring_full, 400u / 5u);
  EXPECT_EQ(stats.dropped(), ring_full);  // no other drop reason fired
}

TEST(Chaos, RxLinkFlapRejectsFramesAtTheWire) {
  // Mirror case: traffic routes out of port 1, so the only hits on port
  // 0's link point are RX attempts from the offering thread — the window
  // is exactly 400 rejected frames, visible as hardware drops.
  const auto fib = default_route_fib(1);
  apps::DynamicIpv4ForwardApp app(*fib);

  core::Testbed testbed({.topo = pcie::Topology::single_node(),
                         .use_gpu = false,
                         .ring_size = 4096},
                        core::RouterConfig{.use_gpu = false});
  gen::TrafficGen traffic({.frame_size = 64, .seed = 73});
  testbed.connect_sink(&traffic);

  fault::FaultInjector inj(/*seed=*/11);
  inj.add_rule({.point = "nic.link_down.0", .after = 1'000, .count = 400});
  testbed.set_fault_injector(&inj);

  core::RouterConfig config;
  config.use_gpu = false;
  config.chunk_capacity = 64;
  core::Router router(testbed.engine(), {}, app, config);
  router.set_fault_injector(&inj);
  router.start();

  const u64 offered = 20'000;  // 5'000 RX attempts on port 0
  const u64 accepted = traffic.offer(testbed.ports(), offered);
  EXPECT_EQ(accepted, offered - 400);

  EXPECT_TRUE(wait_for([&] { return traffic.sunk_packets() == accepted; }, 30s));
  router.stop();

  const auto stats = router.total_stats();
  u64 hw_rx_drops = 0;
  for (auto* port : testbed.ports()) hw_rx_drops += port->rx_totals().drops;
  EXPECT_EQ(hw_rx_drops, 400u);
  EXPECT_EQ(accepted + hw_rx_drops, offered);
  EXPECT_EQ(stats.packets_in, accepted);
  EXPECT_EQ(stats.packets_out, accepted);  // nothing dropped past the wire
  EXPECT_EQ(stats.dropped(), 0u);
  EXPECT_EQ(inj.stats("nic.link_down.0").fired, 400u);
}

}  // namespace
}  // namespace ps
