// End-to-end integration: generator -> NIC -> io-engine -> application
// (CPU and GPU paths) -> NIC -> sink, on the full paper-server testbed.
#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <thread>

#include "apps/ipsec_gateway.hpp"
#include "apps/dynamic_ipv4.hpp"
#include "apps/dynamic_ipv6.hpp"
#include "apps/openflow_app.hpp"
#include "core/model_driver.hpp"
#include "core/router.hpp"
#include "core/testbed.hpp"
#include "gen/traffic.hpp"
#include "route/rib_gen.hpp"

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

TEST(EndToEnd, Ipv4RouterDistributesByRealRib) {
  // Real (synthetic-RouteViews-scale/8) RIB; every forwarded packet must
  // leave on the port the table says, and the sink's per-port split must
  // reflect the next-hop distribution.
  const auto rib = route::generate_ipv4_rib({.prefix_count = 30'000, .num_next_hops = 8, .seed = 40});
  route::Ipv4Fib fib;
  for (const auto& p : rib) fib.announce(p);
  fib.commit();
  apps::DynamicIpv4ForwardApp app(fib);

  core::Testbed testbed({.topo = pcie::Topology::paper_server(), .use_gpu = true, .ring_size = 4096},
                        core::RouterConfig{.use_gpu = true});
  gen::TrafficGen traffic({.frame_size = 64, .seed = 41});
  testbed.connect_sink(&traffic);

  core::ModelDriver driver(testbed, &app, core::RouterConfig{.use_gpu = true});
  const auto result = driver.run(traffic, 50'000);

  EXPECT_EQ(result.accepted + 0u, result.offered);
  EXPECT_EQ(result.forwarded + result.dropped + result.slow_path, result.accepted);
  EXPECT_GT(result.forwarded, result.accepted / 10);  // plenty of hits
  EXPECT_GT(result.dropped, 0u);                      // and misses (random dst)

  u64 sunk = 0;
  for (int p = 0; p < 8; ++p) sunk += traffic.sunk_on_port(p);
  EXPECT_EQ(sunk, result.forwarded);
}

TEST(EndToEnd, Ipv6RouterGpuFunctional) {
  const auto rib = route::generate_ipv6_rib(50'000, 8, 42);
  route::Ipv6Fib fib;
  for (const auto& p : rib) fib.announce(p);
  fib.commit();
  apps::DynamicIpv6ForwardApp app(fib);

  core::Testbed testbed({.topo = pcie::Topology::paper_server(), .use_gpu = true, .ring_size = 4096},
                        core::RouterConfig{.use_gpu = true});
  gen::TrafficGen traffic({.kind = gen::TrafficKind::kIpv6Udp, .frame_size = 78, .seed = 43});
  testbed.connect_sink(&traffic);

  core::ModelDriver driver(testbed, &app, core::RouterConfig{.use_gpu = true});
  const auto result = driver.run(traffic, 30'000);
  EXPECT_EQ(result.forwarded + result.dropped + result.slow_path, result.accepted);
  EXPECT_EQ(traffic.sunk_packets(), result.forwarded);
}

TEST(EndToEnd, IpsecTunnelThreadedRouterRoundTrips) {
  // Real threads, GPU offload, then decapsulate everything the sink saw.
  const auto sa = crypto::SecurityAssociation::make_test_sa(
      0x5151, net::Ipv4Addr(172, 16, 0, 1), net::Ipv4Addr(172, 16, 0, 2));
  apps::IpsecGatewayApp app(sa);

  core::Testbed testbed({.topo = pcie::Topology::paper_server(),
                         .use_gpu = true,
                         .ring_size = 4096,
                         .gpu_pool_workers = 2},
                        core::RouterConfig{.use_gpu = true});

  class Collect final : public nic::WireSink {
   public:
    void on_frame(int, std::span<const u8> frame) override {
      std::lock_guard lock(mu);
      frames.emplace_back(frame.begin(), frame.end());
    }
    std::mutex mu;
    std::vector<std::vector<u8>> frames;
  } sink;
  testbed.connect_sink(&sink);

  core::Router router(testbed.engine(), testbed.gpus(), app, core::RouterConfig{.use_gpu = true});
  router.start();

  gen::TrafficGen traffic({.frame_size = 128, .seed = 44});
  const u64 offered = 1000;
  traffic.offer(testbed.ports(), offered);

  ASSERT_TRUE(wait_for([&] {
    std::lock_guard lock(sink.mu);
    return sink.frames.size() >= offered;
  }));
  router.stop();

  // Every emitted frame is a valid ESP tunnel frame (per-SA replay check
  // is skipped: parallel workers interleave sequence numbers).
  std::lock_guard lock(sink.mu);
  ASSERT_EQ(sink.frames.size(), offered);
  for (auto& frame : sink.frames) {
    auto rx_sa = crypto::SecurityAssociation::make_test_sa(
        0x5151, net::Ipv4Addr(172, 16, 0, 1), net::Ipv4Addr(172, 16, 0, 2));
    std::vector<u8> inner;
    ASSERT_EQ(crypto::esp_decapsulate(rx_sa, frame, inner), crypto::EspError::kOk);
    net::PacketView view;
    ASSERT_EQ(net::parse_packet(inner.data(), static_cast<u32>(inner.size()), view),
              net::ParseStatus::kOk);
    EXPECT_EQ(view.ether_type, net::EtherType::kIpv4);
  }
}

TEST(EndToEnd, OpenFlowSwitchModelRun) {
  openflow::OpenFlowSwitch sw;
  gen::TrafficGen traffic({.frame_size = 64, .seed = 45, .flow_count = 256});

  // Exact entries for some flows; wildcard fallback that drops UDP from
  // half the source space; default punts to the controller.
  for (u32 flow = 0; flow < 64; ++flow) {
    const auto frame = traffic.frame_for_flow(flow);
    net::PacketView view;
    ASSERT_EQ(net::parse_packet(const_cast<u8*>(frame.data()), static_cast<u32>(frame.size()),
                                view),
              net::ParseStatus::kOk);
    // Flows enter on any port; wildcard the in_port by installing for all.
    for (u16 port = 0; port < 8; ++port) {
      sw.exact().insert(openflow::extract_flow_key(view, port),
                        openflow::Action::output(static_cast<u16>(flow % 8)));
    }
  }
  openflow::WildcardMatch udp;
  udp.wildcards = openflow::kWildAll & ~openflow::kWildNwProto;
  udp.key.nw_proto = 17;
  udp.priority = 5;
  sw.wildcard().insert(udp, openflow::Action::output(0));

  apps::OpenFlowApp app(sw);
  core::Testbed testbed({.topo = pcie::Topology::paper_server(), .use_gpu = true, .ring_size = 4096},
                        core::RouterConfig{.use_gpu = true});
  testbed.connect_sink(&traffic);

  core::ModelDriver driver(testbed, &app, core::RouterConfig{.use_gpu = true});
  const auto result = driver.run(traffic, 20'000);

  EXPECT_EQ(result.forwarded, result.accepted);  // everything matched something
  EXPECT_EQ(result.slow_path, 0u);
  EXPECT_GT(traffic.sunk_packets(), 0u);
  // Note: per-entry hit counters advance only on the CPU path; the GPU
  // path classifies against the device copy of the tables (section 6.2.3).
}

TEST(EndToEnd, RingOverflowDropsAreAccounted) {
  // Failure injection: tiny rings + a burst far beyond capacity.
  core::Testbed testbed({.topo = pcie::Topology::single_node(), .use_gpu = false, .ring_size = 8},
                        core::RouterConfig{.use_gpu = false});
  gen::TrafficGen traffic({.seed = 46});
  testbed.connect_sink(&traffic);

  const u64 accepted = traffic.offer(testbed.ports(), 10'000);
  EXPECT_LT(accepted, 10'000u);
  u64 hw_drops = 0;
  for (auto* port : testbed.ports()) hw_drops += port->rx_totals().drops;
  EXPECT_EQ(accepted + hw_drops, 10'000u);
}

TEST(EndToEnd, MalformedTrafficIsContained) {
  // Corrupted frames must be dropped by classification without affecting
  // the healthy ones around them.
  route::Ipv4Fib fib;
  fib.announce({net::Ipv4Addr(0), 0, 1});
  fib.commit();
  apps::DynamicIpv4ForwardApp app(fib);

  core::Testbed testbed({.topo = pcie::Topology::paper_server(), .use_gpu = true, .ring_size = 4096},
                        core::RouterConfig{.use_gpu = true});
  gen::TrafficGen traffic({.frame_size = 64, .seed = 47});
  testbed.connect_sink(&traffic);

  // Hand-inject alternating good/corrupt frames.
  u64 good = 0, bad = 0;
  for (int i = 0; i < 2000; ++i) {
    auto frame = traffic.next_frame();
    if (i % 3 == 0) {
      frame[sizeof(net::EthernetHeader) + 10] ^= 0xff;  // break IP checksum
      ++bad;
    } else {
      ++good;
    }
    ASSERT_TRUE(testbed.port(i % 8).receive_frame(frame));
  }

  core::ModelDriver driver(testbed, &app, core::RouterConfig{.use_gpu = true});
  gen::TrafficGen no_more({.seed = 48});
  const auto result = driver.run(no_more, 1);  // drains what is queued

  EXPECT_GE(result.forwarded, good);  // all healthy frames forwarded
  EXPECT_GE(result.dropped, bad);     // all corrupt frames dropped
}

}  // namespace
}  // namespace ps
