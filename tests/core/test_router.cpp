// The real-threaded PacketShader runtime: worker/master pipelines, CPU-only
// mode, opportunistic offloading, and per-flow ordering (section 5.3).
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <mutex>
#include <thread>

#include "apps/dynamic_ipv4.hpp"
#include "apps/ipsec_gateway.hpp"
#include "apps/multi_app.hpp"
#include "core/model_driver.hpp"
#include "core/router.hpp"
#include "core/testbed.hpp"
#include "gen/traffic.hpp"
#include "integrity/integrity.hpp"
#include "route/rib_gen.hpp"

namespace ps::core {
namespace {

using namespace std::chrono_literals;

/// Thread-safe sink that records every delivered frame.
class CollectingSink final : public nic::WireSink {
 public:
  void on_frame(int port, std::span<const u8> frame) override {
    std::lock_guard lock(mu_);
    frames_.emplace_back(port, std::vector<u8>(frame.begin(), frame.end()));
  }

  std::vector<std::pair<int, std::vector<u8>>> take() {
    std::lock_guard lock(mu_);
    return std::move(frames_);
  }

  std::size_t count() const {
    std::lock_guard lock(mu_);
    return frames_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<int, std::vector<u8>>> frames_;
};

/// Route everything to port `out` via a default route.
std::unique_ptr<route::Ipv4Fib> default_route_fib(route::NextHop out) {
  auto fib = std::make_unique<route::Ipv4Fib>();
  fib->announce({net::Ipv4Addr(0), 0, out});
  fib->commit();
  return fib;
}

bool wait_for(const std::function<bool()>& cond, std::chrono::milliseconds timeout = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return cond();
}

struct RouterFixture {
  Testbed testbed;
  gen::TrafficGen traffic{{.seed = 11}};
  std::unique_ptr<route::Ipv4Fib> fib = default_route_fib(1);
  apps::DynamicIpv4ForwardApp app{*fib};

  explicit RouterFixture(bool use_gpu)
      : testbed(TestbedConfig{.topo = pcie::Topology::paper_server(),
                              .use_gpu = use_gpu,
                              .ring_size = 4096,
                              .gpu_pool_workers = 2},
                RouterConfig{.use_gpu = use_gpu}) {
    testbed.connect_sink(&traffic);
  }
};

TEST(Router, GpuModeForwardsAllTraffic) {
  RouterFixture fx(/*use_gpu=*/true);
  RouterConfig config;
  config.use_gpu = true;
  Router router(fx.testbed.engine(), fx.testbed.gpus(), fx.app, config);

  // 2 nodes x 3 workers in GPU mode.
  EXPECT_EQ(router.num_workers(), 6);
  router.start();

  const u64 offered = 3000;
  const u64 accepted = fx.traffic.offer(fx.testbed.ports(), offered);
  ASSERT_EQ(accepted, offered);

  ASSERT_TRUE(wait_for([&] { return fx.traffic.sunk_packets() >= offered; }));
  router.stop();

  const auto stats = router.total_stats();
  EXPECT_EQ(stats.packets_in, offered);
  EXPECT_EQ(stats.packets_out, offered);
  EXPECT_EQ(stats.gpu_processed, offered);
  EXPECT_EQ(stats.dropped(), 0u);
  // Default route: everything must leave via port 1.
  EXPECT_EQ(fx.traffic.sunk_on_port(1), offered);
}

TEST(Router, CpuOnlyModeUsesAllCoresAsWorkers) {
  RouterFixture fx(/*use_gpu=*/false);
  RouterConfig config;
  config.use_gpu = false;
  Router router(fx.testbed.engine(), {}, fx.app, config);

  EXPECT_EQ(router.num_workers(), 8);  // 2 nodes x 4 cores
  router.start();

  const u64 offered = 2000;
  fx.traffic.offer(fx.testbed.ports(), offered);
  ASSERT_TRUE(wait_for([&] { return fx.traffic.sunk_packets() >= offered; }));
  router.stop();

  const auto stats = router.total_stats();
  EXPECT_EQ(stats.packets_out, offered);
  EXPECT_EQ(stats.cpu_processed, offered);
  EXPECT_EQ(stats.gpu_processed, 0u);
}

TEST(Router, ForwardedPacketsHaveTtlDecremented) {
  RouterFixture fx(/*use_gpu=*/true);
  CollectingSink sink;
  fx.testbed.connect_sink(&sink);

  RouterConfig config;
  Router router(fx.testbed.engine(), fx.testbed.gpus(), fx.app, config);
  router.start();

  net::FrameSpec spec;
  spec.ttl = 64;
  auto frame = net::build_udp_ipv4(spec, net::Ipv4Addr(10, 0, 0, 1), net::Ipv4Addr(10, 0, 0, 2));
  ASSERT_TRUE(fx.testbed.port(0).receive_frame(frame));

  ASSERT_TRUE(wait_for([&] { return sink.count() >= 1; }));
  router.stop();

  const auto frames = const_cast<CollectingSink&>(sink).take();
  ASSERT_EQ(frames.size(), 1u);
  net::PacketView view;
  std::vector<u8> out = frames[0].second;
  ASSERT_EQ(net::parse_packet(out.data(), static_cast<u32>(out.size()), view),
            net::ParseStatus::kOk);  // checksum still valid after rewrite
  EXPECT_EQ(view.ipv4().ttl, 63);
}

TEST(Router, OpportunisticOffloadTakesCpuPathUnderLightLoad) {
  RouterFixture fx(/*use_gpu=*/true);
  RouterConfig config;
  config.opportunistic_threshold = 1'000'000;  // everything is "light load"
  Router router(fx.testbed.engine(), fx.testbed.gpus(), fx.app, config);
  router.start();

  const u64 offered = 500;
  fx.traffic.offer(fx.testbed.ports(), offered);
  ASSERT_TRUE(wait_for([&] { return fx.traffic.sunk_packets() >= offered; }));
  router.stop();

  const auto stats = router.total_stats();
  EXPECT_EQ(stats.cpu_processed, offered);
  EXPECT_EQ(stats.gpu_processed, 0u);
}

crypto::SecurityAssociation gateway_sa() {
  return crypto::SecurityAssociation::make_test_sa(0x6161, net::Ipv4Addr(172, 16, 0, 1),
                                                   net::Ipv4Addr(172, 16, 0, 2));
}

TEST(Router, IpsecFrameTooLargeToTunnelTakesTheSlowPath) {
  // A 2000 B frame's tunnel frame would not fit its 2 KiB cell: the app
  // sends it to the slow path, and the audit balances on both paths.
  const auto sa = gateway_sa();
  apps::IpsecGatewayApp app(sa);
  for (const bool use_gpu : {false, true}) {
    SCOPED_TRACE(use_gpu ? "cpu+gpu" : "cpu-only");
    Testbed testbed(TestbedConfig{.topo = pcie::Topology::paper_server(),
                                  .use_gpu = use_gpu,
                                  .ring_size = 4096,
                                  .gpu_pool_workers = 2},
                    RouterConfig{.use_gpu = use_gpu});
    gen::TrafficGen sink({.seed = 12});
    testbed.connect_sink(&sink);
    Router router(testbed.engine(), testbed.gpus(), app, RouterConfig{.use_gpu = use_gpu});
    router.start();
    for (const u32 size : {64u, 2000u, 64u}) {
      net::FrameSpec spec;
      spec.frame_size = size;
      ASSERT_TRUE(testbed.port(0).receive_frame(
          net::build_udp_ipv4(spec, net::Ipv4Addr(10, 0, 0, 9), net::Ipv4Addr(20, 0, 0, 1))));
    }
    EXPECT_TRUE(wait_for(
        [&] { return sink.sunk_packets() >= 2 && router.total_stats().slow_path >= 1; }));
    router.stop();

    const auto audit = router.audit();
    EXPECT_EQ(audit.rx, 3u);
    EXPECT_EQ(audit.tx, 2u);
    EXPECT_EQ(audit.dropped, 0u);
    EXPECT_EQ(audit.slow_path, 1u);
    EXPECT_TRUE(audit.balanced());
    EXPECT_EQ(sink.sunk_on_port(1), 2u);
  }
}

TEST(Router, IntegrityCheckerKeepsCpuPathChunksAppsRebuild) {
  // The inline CPU path ends integrity coverage at admission. An app whose
  // process_cpu rebuilds its chunk with append() (MultiProtocolApp) hands
  // back a chunk stamped with zero CRCs, which the pre-TX check must not
  // read as corruption. IPsec runs both through the CPU-only router and
  // down the opportunistic CPU path of a CPU+GPU one.
  const auto sa = gateway_sa();
  apps::IpsecGatewayApp ipsec(sa);
  const auto fib = default_route_fib(1);
  apps::DynamicIpv4ForwardApp ipv4(*fib);
  apps::MultiProtocolApp multi;
  multi.add_protocol(net::EtherType::kIpv4, &ipv4);

  struct Case {
    const char* name;
    Shader* app;
    bool use_gpu;
  };
  for (const Case& c : {Case{"ipsec cpu-only", &ipsec, false},
                        Case{"ipsec cpu+gpu, opportunistic", &ipsec, true},
                        Case{"multi-protocol cpu-only", &multi, false}}) {
    SCOPED_TRACE(c.name);
    const RouterConfig config{.use_gpu = c.use_gpu, .opportunistic_threshold = 1000};
    Testbed testbed(TestbedConfig{.topo = pcie::Topology::paper_server(),
                                  .use_gpu = c.use_gpu,
                                  .ring_size = 4096,
                                  .gpu_pool_workers = 2},
                    config);
    gen::TrafficGen traffic({.frame_size = 200, .seed = 13});
    testbed.connect_sink(&traffic);
    integrity::IntegrityChecker checker;
    Router router(testbed.engine(), testbed.gpus(), *c.app, config);
    router.set_integrity(&checker);
    router.start();

    const u64 offered = traffic.offer(testbed.ports(), 2000);
    EXPECT_TRUE(wait_for([&] { return traffic.sunk_packets() >= offered; }));
    router.stop();

    EXPECT_EQ(router.audit().tx, offered);
    EXPECT_EQ(router.total_stats().drops(iengine::DropReason::kIntegrityFail), 0u);
    EXPECT_EQ(checker.corrupt_at(integrity::Stage::kTx), 0u);
  }
}

TEST(Router, PerFlowOrderIsPreserved) {
  // Section 5.3: RSS flow affinity + FIFO queues keep a flow in order end
  // to end, even with chunk pipelining and gather/scatter in play.
  RouterFixture fx(/*use_gpu=*/true);
  CollectingSink sink;
  fx.testbed.connect_sink(&sink);

  RouterConfig config;
  config.pipeline_depth = 4;
  config.gather_max = 4;
  Router router(fx.testbed.engine(), fx.testbed.gpus(), fx.app, config);
  router.start();

  constexpr u32 kFlows = 5;
  constexpr u32 kPerFlow = 200;
  u32 sent = 0;
  for (u32 seq = 0; seq < kPerFlow; ++seq) {
    for (u32 flow = 0; flow < kFlows; ++flow) {
      const auto frame = fx.traffic.frame_for_flow(flow, seq);
      if (fx.testbed.port(static_cast<int>(flow % 4)).receive_frame(frame)) ++sent;
    }
  }

  ASSERT_TRUE(wait_for([&] { return sink.count() >= sent; }));
  router.stop();

  std::map<u32, u32> last_seq;
  for (const auto& [port, frame] : sink.take()) {
    const std::size_t payload = net::kMinUdpIpv4Frame;
    ASSERT_GE(frame.size(), payload + 8);
    const u32 flow = load_be32(frame.data() + payload);
    const u32 seq = load_be32(frame.data() + payload + 4);
    const auto it = last_seq.find(flow);
    if (it != last_seq.end()) {
      EXPECT_GT(seq, it->second) << "flow " << flow << " reordered";
    }
    last_seq[flow] = seq;
  }
  EXPECT_EQ(last_seq.size(), kFlows);
}

TEST(Router, StopIsIdempotentAndRestartable) {
  RouterFixture fx(/*use_gpu=*/true);
  RouterConfig config;
  Router router(fx.testbed.engine(), fx.testbed.gpus(), fx.app, config);
  router.start();
  router.stop();
  router.stop();  // no-op
  SUCCEED();
}

}  // namespace
}  // namespace ps::core
