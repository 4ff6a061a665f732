// Steady-state allocation-freedom: once the router's staging buffers,
// queues, and scratch blocks are warm, forwarding traffic through the
// CPU-only pipeline must not touch the global allocator. The counting
// operator new in telemetry/alloc_stats.cpp (PS_ALLOC_STATS builds) makes
// that an assertable property rather than a code-review convention.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "apps/dynamic_ipv4.hpp"
#include "core/router.hpp"
#include "core/testbed.hpp"
#include "gen/traffic.hpp"
#include "route/fib_manager.hpp"
#include "telemetry/alloc_stats.hpp"

namespace ps::core {
namespace {

using namespace std::chrono_literals;

std::unique_ptr<route::Ipv4Fib> default_route_fib(route::NextHop out) {
  auto fib = std::make_unique<route::Ipv4Fib>();
  fib->announce({net::Ipv4Addr(0), 0, out});
  fib->commit();
  return fib;
}

TEST(SteadyStateAlloc, CpuOnlyForwardingIsAllocationFree) {
  if (!telemetry::alloc_stats_enabled()) {
    GTEST_SKIP() << "built without PS_ALLOC_STATS (sanitizer build?)";
  }

  Testbed testbed(TestbedConfig{.topo = pcie::Topology::paper_server(),
                                .use_gpu = false,
                                .ring_size = 4096},
                  RouterConfig{.use_gpu = false});
  gen::TrafficGen traffic{{.seed = 23}};
  testbed.connect_sink(&traffic);
  std::unique_ptr<route::Ipv4Fib> fib = default_route_fib(1);
  apps::DynamicIpv4ForwardApp app{*fib};

  RouterConfig config;
  config.use_gpu = false;
  Router router(testbed.engine(), {}, app, config);
  router.start();

  // Warmup: the first bursts grow every staging vector, thread-local
  // chunk, and pooled sub-job to its steady-state capacity.
  u64 total = 0;
  for (int burst = 0; burst < 4; ++burst) {
    total += traffic.offer(testbed.ports(), 2000);
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (traffic.sunk_packets() < total &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    ASSERT_EQ(traffic.sunk_packets(), total) << "warmup burst " << burst << " not drained";
  }

  // Measured phase: same traffic shape, allocation counter must be flat.
  // The counter is sampled after offer() returns (frame generation itself
  // allocates) and the polling loop below only reads an atomic, so the
  // measured window contains nothing but the router's steady-state work.
  total += traffic.offer(testbed.ports(), 4000);
  const u64 before = telemetry::allocations();
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (traffic.sunk_packets() < total && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(traffic.sunk_packets(), total) << "measured burst not drained";
  const u64 after = telemetry::allocations();

  EXPECT_EQ(after - before, 0u)
      << "steady-state forwarding allocated " << (after - before)
      << " times; a staging buffer or queue is growing per-packet";

  router.stop();
}

}  // namespace
}  // namespace ps::core
