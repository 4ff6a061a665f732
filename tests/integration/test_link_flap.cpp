// Link-flap faults: the per-port "nic.link_flap.<p>" point drops carrier
// for a deterministic window. Frames offered meanwhile are lost on the
// wire (hardware drops), workers stop polling the down port (the engine
// skips !link_up() ports), and the first event past the window restores
// carrier — forwarding resumes with no manual intervention.
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

bool wait_for(const std::function<bool()>& cond, std::chrono::milliseconds timeout = 20000ms) {
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

TEST(LinkFlap, CarrierLossDropsAtTheWireAndRecoversCleanly) {
  // Traffic routes out of port 1, so the only events on port 0 are RX
  // attempts from the offering thread: the 400-fire window falls on
  // frames 1001..1400 into port 0, and the 1401st restores carrier.
  const auto fib = default_route_fib(1);
  apps::DynamicIpv4ForwardApp app(*fib);

  core::Testbed testbed({.topo = pcie::Topology::single_node(),
                         .use_gpu = false,
                         .ring_size = 4096},
                        core::RouterConfig{.use_gpu = false});
  gen::TrafficGen traffic({.frame_size = 64, .seed = 95});
  testbed.connect_sink(&traffic);

  fault::FaultInjector inj(/*seed=*/31);
  inj.add_rule({.point = std::string(fault::Point::kLinkFlap) + ".0",
                .after = 1'000,
                .count = 400});
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

  // Link state: exactly one loss-of-carrier edge, 400 frames lost to it,
  // and carrier restored by the first delivery past the window.
  EXPECT_EQ(testbed.port(0).link_flaps(), 1u);
  EXPECT_EQ(testbed.port(0).carrier_lost_frames(), 400u);
  EXPECT_TRUE(testbed.port(0).link_up());
  EXPECT_EQ(inj.stats(std::string(fault::Point::kLinkFlap) + ".0").fired, 400u);

  // Everything that made it past the wire is forwarded — the down window
  // never wedged the workers.
  EXPECT_TRUE(wait_for([&] { return traffic.sunk_packets() == accepted; }));

  // The recovered port keeps accepting traffic.
  const u64 more = traffic.offer(testbed.ports().subspan(0, 1), 1'000);
  EXPECT_EQ(more, 1'000u);
  EXPECT_TRUE(wait_for([&] { return traffic.sunk_packets() == accepted + more; }));
  router.stop();

  const auto stats = router.stats();
  u64 hw_rx_drops = 0;
  for (auto* port : testbed.ports()) hw_rx_drops += port->rx_totals().drops;
  EXPECT_EQ(hw_rx_drops, 400u);
  EXPECT_EQ(stats.packets_in, accepted + more);
  EXPECT_EQ(stats.packets_out, accepted + more);
  EXPECT_EQ(stats.dropped(), 0u);
  const auto audit = router.audit();
  EXPECT_TRUE(audit.balanced());
}

TEST(LinkFlap, WorkersSkipPollingADownPort) {
  // Direct engine-level check of the poll gate: park frames in port 0's
  // rings, force carrier down via a flap window that only this test's TX
  // attempt consumes... simpler: flap on the next RX attempt, then verify
  // recv_chunk returns nothing from the down port while a healthy port
  // still delivers.
  core::Testbed testbed({.topo = pcie::Topology::single_node(),
                         .use_gpu = false,
                         .ring_size = 4096},
                        core::RouterConfig{.use_gpu = false});
  gen::TrafficGen traffic({.frame_size = 64, .seed = 96});

  auto ports = testbed.ports();
  traffic.offer(ports.subspan(0, 1), 1'000);  // backlog in port 0's rings
  traffic.offer(ports.subspan(1, 1), 1'000);  // and port 1's

  fault::FaultInjector inj(/*seed=*/32);
  // Window opens on the next port-0 event and stays open for 8 fires.
  inj.add_rule({.point = std::string(fault::Point::kLinkFlap) + ".0", .count = 8});
  testbed.set_fault_injector(&inj);

  // One rejected frame trips the carrier latch.
  EXPECT_FALSE(testbed.port(0).receive_frame(traffic.next_frame()));
  ASSERT_FALSE(testbed.port(0).link_up());

  // A handle owning queues on both ports now only sees port 1: the
  // backlog parked in port 0's rings is untouched while carrier is out.
  auto* handle = testbed.engine().attach(/*core=*/0, {{0, 0}, {1, 0}});
  const u32 port0_backlog = testbed.port(0).rx_available(0);
  ASSERT_GT(port0_backlog, 0u);

  iengine::PacketChunk chunk(64);
  const u32 n = handle->recv_chunk(chunk, 64, 64);
  EXPECT_GT(n, 0u);  // port 1 still delivers
  EXPECT_EQ(chunk.in_port, 1);
  EXPECT_EQ(testbed.port(0).rx_available(0), port0_backlog);  // untouched

  // Burn through the rest of the window with rejected frames, then one
  // more delivery restores carrier and the parked backlog drains.
  for (int i = 0; i < 7; ++i) EXPECT_FALSE(testbed.port(0).receive_frame(traffic.next_frame()));
  EXPECT_TRUE(testbed.port(0).receive_frame(traffic.next_frame()));
  EXPECT_TRUE(testbed.port(0).link_up());
  const u32 n2 = handle->recv_chunk(chunk, 64, 64);
  EXPECT_GT(n2, 0u);
  EXPECT_EQ(chunk.in_port, 0);
}

}  // namespace
}  // namespace ps
