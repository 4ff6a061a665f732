// Slow-path integration: TTL-expired packets through the threaded router
// produce ICMP Time Exceeded replies out of the ingress port, and
// router-addressed packets reach the host stack's local delivery queue.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "apps/dynamic_ipv4.hpp"
#include "core/router.hpp"
#include "core/testbed.hpp"
#include "gen/traffic.hpp"
#include "slowpath/host_stack.hpp"

namespace ps::core {
namespace {

using namespace std::chrono_literals;

TEST(SlowPathRouter, TtlExpiryTriggersIcmpReply) {
  route::Ipv4Fib fib;
  fib.announce({net::Ipv4Addr(0), 0, 1});
  fib.commit();
  apps::DynamicIpv4ForwardApp app(fib);

  Testbed testbed({.topo = pcie::Topology::paper_server(),
                   .use_gpu = true,
                   .ring_size = 4096,
                   .gpu_pool_workers = 2},
                  RouterConfig{.use_gpu = true});
  gen::TrafficGen sink({.seed = 70});
  testbed.connect_sink(&sink);

  slowpath::HostStack stack(net::Ipv4Addr(192, 0, 2, 1));
  Router router(testbed.engine(), testbed.gpus(), app, RouterConfig{.use_gpu = true});
  router.set_host_stack(&stack);
  router.start();

  // One healthy packet and one with TTL=1, both into port 3.
  net::FrameSpec healthy;
  net::FrameSpec dying;
  dying.ttl = 1;
  ASSERT_TRUE(testbed.port(3).receive_frame(
      net::build_udp_ipv4(healthy, net::Ipv4Addr(10, 0, 0, 9), net::Ipv4Addr(20, 0, 0, 1))));
  ASSERT_TRUE(testbed.port(3).receive_frame(
      net::build_udp_ipv4(dying, net::Ipv4Addr(10, 0, 0, 9), net::Ipv4Addr(20, 0, 0, 1))));

  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (sink.sunk_packets() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  router.stop();

  // Healthy packet forwarded to port 1; ICMP reply emitted on ingress 3.
  EXPECT_EQ(sink.sunk_on_port(1), 1u);
  EXPECT_EQ(sink.sunk_on_port(3), 1u);
  EXPECT_EQ(stack.stats().icmp_time_exceeded, 1u);
  EXPECT_EQ(router.total_stats().slow_path, 1u);
}

TEST(SlowPathRouter, LocalTrafficDeliveredToHostStack) {
  route::Ipv4Fib fib;
  fib.announce({net::Ipv4Addr(0), 0, 1});
  fib.commit();
  apps::DynamicIpv4ForwardApp app(fib);

  Testbed testbed({.topo = pcie::Topology::paper_server(),
                   .use_gpu = false,
                   .ring_size = 4096},
                  RouterConfig{.use_gpu = false});
  gen::TrafficGen sink({.seed = 71});
  testbed.connect_sink(&sink);

  slowpath::HostStack stack(net::Ipv4Addr(192, 0, 2, 1));
  Router router(testbed.engine(), {}, app, RouterConfig{.use_gpu = false});
  router.set_host_stack(&stack);
  router.start();

  // A BGP-ish packet addressed to the router itself. The fast path only
  // slow-paths on TTL/ethertype, so give it TTL 1 AND the router address:
  // the stack must prefer local delivery over ICMP.
  net::FrameSpec spec;
  spec.ttl = 1;
  ASSERT_TRUE(testbed.port(0).receive_frame(
      net::build_udp_ipv4(spec, net::Ipv4Addr(8, 8, 8, 8), net::Ipv4Addr(192, 0, 2, 1))));

  // Poll through the router's locked snapshot: reading stack.stats()
  // directly here would race the worker feeding the stack.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (router.host_stack_stats().delivered_locally < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  router.stop();

  EXPECT_EQ(stack.stats().delivered_locally, 1u);
  EXPECT_EQ(stack.stats().icmp_time_exceeded, 0u);
  ASSERT_EQ(stack.local_deliveries().size(), 1u);
}

}  // namespace
}  // namespace ps::core
