// Telemetry conservation properties: the registry's view of the router
// must obey the same packet-conservation identity Router::audit() proves,
//
//   rx == tx + drops_total + slow_path + in_flight,
//
// exactly (not approximately) once the router has stopped, and every
// kCounter metric must be monotonically non-decreasing across snapshots
// while traffic flows. The snapshot thread runs concurrently with the
// data path on purpose: under TSan this is the "no data race in
// MetricsRegistry::snapshot() under concurrent traffic" test.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "apps/dynamic_ipv4.hpp"
#include "core/router.hpp"
#include "core/testbed.hpp"
#include "fault/fault_injector.hpp"
#include "gen/traffic.hpp"
#include "telemetry/metrics.hpp"

namespace ps {
namespace {

using namespace std::chrono_literals;

bool wait_for(const std::function<bool()>& cond, std::chrono::milliseconds timeout = 10'000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return cond();
}

std::unique_ptr<route::Ipv4Fib> default_route_fib(route::NextHop out_port) {
  auto fib = std::make_unique<route::Ipv4Fib>();
  fib->announce({net::Ipv4Addr(0), 0, out_port});
  fib->commit();
  return fib;
}

/// Every kCounter value in `cur` must be >= its value in `prev`.
/// (Gauges — in-flight, health, cpu/gpu attribution — may move both ways.)
void expect_counters_monotonic(const telemetry::MetricsSnapshot& prev,
                               const telemetry::MetricsSnapshot& cur,
                               std::atomic<u64>& violations) {
  for (const auto& v : cur.values) {
    if (v.kind != telemetry::MetricKind::kCounter) continue;
    const auto* before = prev.find(v.name);
    if (before != nullptr && v.value < before->value) violations.fetch_add(1);
  }
}

/// One randomized run: traffic + fault seeds in, conservation out.
void run_conservation_case(u32 traffic_seed, u32 fault_seed, bool with_faults) {
  const auto fib = default_route_fib(1);
  apps::DynamicIpv4ForwardApp app(*fib);

  core::Testbed testbed({.topo = pcie::Topology::single_node(),
                         .use_gpu = true,
                         .ring_size = 4096,
                         .gpu_pool_workers = 0},
                        core::RouterConfig{.use_gpu = true});
  gen::TrafficGen traffic({.frame_size = 64, .seed = traffic_seed});
  testbed.connect_sink(&traffic);

  core::RouterConfig config;
  config.use_gpu = true;
  config.chunk_capacity = 64;
  config.gpu_max_retries = 2;
  config.gpu_backoff_us = 1;
  config.gpu_backoff_cap_us = 50;
  config.gpu_fail_threshold = 2;
  config.gpu_probe_interval_batches = 2;

  fault::FaultInjector inj(fault_seed);
  if (with_faults) {
    // A GPU failure window (trip + recovery), a corruption burst, and a
    // ring-full burst: conservation must survive every path.
    inj.add_rule({.point = "gpu.launch", .after = 10, .count = 8});
    inj.add_rule({.point = "nic.rx_corrupt", .after = 50, .count = 40});
    inj.add_rule({.point = "nic.rx_ring_full", .after = 800, .count = 200});
    testbed.set_fault_injector(&inj);
  }

  core::Router router(testbed.engine(), testbed.gpus(), app, config);
  if (with_faults) router.set_fault_injector(&inj);

  telemetry::MetricsRegistry registry;
  router.set_telemetry(&registry);
  router.start();

  // Concurrent snapshot thread: monotonicity is checked on every pair of
  // consecutive snapshots, and the loop itself is the TSan race probe.
  std::atomic<bool> snapshotting{true};
  std::atomic<u64> monotonic_violations{0};
  std::atomic<u64> snapshots_taken{0};
  std::thread snapper([&] {
    telemetry::MetricsSnapshot prev = registry.snapshot();
    while (snapshotting.load(std::memory_order_relaxed)) {
      telemetry::MetricsSnapshot cur = registry.snapshot();
      EXPECT_GT(cur.sequence, prev.sequence);
      expect_counters_monotonic(prev, cur, monotonic_violations);
      prev = std::move(cur);
      snapshots_taken.fetch_add(1);
    }
  });

  u64 accepted = 0;
  for (int pulse = 0; pulse < 20; ++pulse) {
    accepted += traffic.offer(testbed.ports(), 1'000);
    std::this_thread::sleep_for(1ms);
  }

  // Let the pipeline drain. offer() returns the NIC-accepted count (ring
  // overflow already excluded), so everything accepted must reach the
  // workers. Poll total_stats() (single-writer atomics) rather than
  // audit(), whose job-pool scan is only race-free once stopped.
  EXPECT_TRUE(wait_for([&] {
    const auto s = router.total_stats();
    return s.packets_in == accepted &&
           s.packets_out + s.dropped() + s.slow_path == s.packets_in;
  })) << "pipeline failed to drain";

  router.stop();
  snapshotting.store(false);
  snapper.join();

  EXPECT_EQ(monotonic_violations.load(), 0u);
  EXPECT_GT(snapshots_taken.load(), 0u);

  // --- exact conservation, registry vs audit --------------------------------
  const auto snap = registry.snapshot();
  const auto audit = router.audit();
  ASSERT_TRUE(audit.balanced());

  EXPECT_EQ(snap.value("router.rx_packets"), audit.rx);
  EXPECT_EQ(snap.value("router.tx_packets"), audit.tx);
  EXPECT_EQ(snap.value("router.drops_total"), audit.dropped);
  EXPECT_EQ(snap.value("router.slow_path"), audit.slow_path);
  EXPECT_EQ(snap.value("router.in_flight_packets"), audit.in_flight);
  EXPECT_EQ(snap.value("router.in_flight_packets"), 0u);

  EXPECT_EQ(snap.value("router.rx_packets"),
            snap.value("router.tx_packets") + snap.value("router.drops_total") +
                snap.value("router.slow_path") + snap.value("router.in_flight_packets"));

  // Per-reason drop metrics must sum to the total.
  u64 by_reason = 0;
  for (const auto& v : snap.values) {
    if (v.name.rfind("router.drops.", 0) == 0) by_reason += v.value;
  }
  EXPECT_EQ(by_reason, snap.value("router.drops_total"));

  // The registry's counters are the router's counters, not a parallel set.
  const auto stats = router.total_stats();
  EXPECT_EQ(snap.value("router.rx_packets"), stats.packets_in);
  EXPECT_EQ(snap.value("router.tx_packets"), stats.packets_out);
  EXPECT_EQ(snap.value("router.chunks"), stats.chunks);

  if (with_faults) {
    EXPECT_EQ(snap.value("router.drops.corrupted"),
              stats.drops(iengine::DropReason::kCorrupted));
    EXPECT_EQ(snap.value("router.drops.corrupted"), inj.stats("nic.rx_corrupt").fired);
    // The GPU window tripped the watchdog; the registry saw it.
    EXPECT_EQ(snap.value("gpu.node0.trips"), router.gpu_health(0).trips);
    EXPECT_EQ(snap.value("gpu.node0.failed_batches"), router.gpu_health(0).failed_batches);
  }

  // NIC wire-side accounting is exported too (hw drops live before rx).
  u64 nic_rx = 0;
  for (std::size_t p = 0; p < testbed.ports().size(); ++p) {
    nic_rx += snap.value("nic.port" + std::to_string(p) + ".rx_packets");
  }
  EXPECT_EQ(nic_rx, audit.rx);
}

TEST(TelemetryConservation, CleanTrafficSnapshotMatchesAuditExactly) {
  run_conservation_case(/*traffic_seed=*/11, /*fault_seed=*/1, /*with_faults=*/false);
}

TEST(TelemetryConservation, FaultSeededTrafficStillConserves) {
  run_conservation_case(/*traffic_seed=*/23, /*fault_seed=*/9, /*with_faults=*/true);
}

TEST(TelemetryConservation, RandomizedSeedsSweep) {
  for (const u32 seed : {41u, 43u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_conservation_case(seed, seed + 1, /*with_faults=*/(seed % 2) != 0);
  }
}

}  // namespace
}  // namespace ps
