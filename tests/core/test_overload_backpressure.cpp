// Overload control end to end: per-queue fair RX admission at the engine,
// watermark-driven batch shrinking and NIC-ring shedding at the router,
// slow-path admission in front of the host stack, and the packet
// conservation audit that proves nothing is ever lost unaccounted.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <thread>

#include "apps/dynamic_ipv4.hpp"
#include "core/router.hpp"
#include "core/testbed.hpp"
#include "gen/traffic.hpp"
#include "slowpath/host_stack.hpp"

namespace ps::core {
namespace {

using namespace std::chrono_literals;

// TSan slows every thread ~10-20x, including the offering loop, so
// assertions about *relative* speed (the offerer outrunning the rings)
// do not transfer; liveness and accounting assertions still must hold.
#if defined(__SANITIZE_THREAD__)
constexpr bool kTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kTsan = true;
#else
constexpr bool kTsan = false;
#endif
#else
constexpr bool kTsan = false;
#endif

std::unique_ptr<route::Ipv4Fib> default_route_fib(route::NextHop out_port) {
  auto fib = std::make_unique<route::Ipv4Fib>();
  fib->announce({net::Ipv4Addr(0), 0, out_port});
  fib->commit();
  return fib;
}

bool wait_for(const std::function<bool()>& cond, std::chrono::milliseconds timeout = 20000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return cond();
}

/// A shader whose GPU stage is artificially slow, so the master input
/// queue backs up and the watermark machinery engages.
class SlowShader final : public Shader {
 public:
  const char* name() const override { return "slow-shader"; }

  void pre_shade(ShaderJob& job) override {
    for (u32 i = 0; i < job.chunk.count(); ++i) job.gpu_index.push_back(i);
    job.gpu_items = job.chunk.count();
  }

  ShadeOutcome shade(GpuContext&, std::span<ShaderJob* const> jobs, Picos submit) override {
    std::this_thread::sleep_for(2ms);  // pathological kernel
    for (auto* job : jobs) job->gpu_output.resize(job->gpu_items);
    return {gpu::GpuStatus::kOk, submit};
  }

  void shade_cpu(ShaderJob& job) override {
    std::this_thread::sleep_for(100us);  // the CPU path is no bargain either
    job.gpu_output.resize(job.gpu_items);
  }

  void post_shade(ShaderJob& job) override { route_all(job.chunk); }

  void process_cpu(iengine::PacketChunk& chunk) override { route_all(chunk); }

 private:
  static void route_all(iengine::PacketChunk& chunk) {
    for (u32 i = 0; i < chunk.count(); ++i) {
      chunk.set_verdict(i, iengine::PacketVerdict::kForward);
      chunk.set_out_port(i, 1);
    }
  }
};

TEST(OverloadControl, PerQueueCapSplitsTheBatchFairlyAcrossPorts) {
  // Two ports, both with deep backlogs on queue 0. A capped recv must not
  // let either port monopolize the shrunk batch.
  Testbed testbed({.topo = pcie::Topology::single_node(),
                   .use_gpu = false,
                   .ring_size = 4096},
                  RouterConfig{.use_gpu = false});
  gen::TrafficGen traffic({.frame_size = 64, .seed = 81});

  auto ports = testbed.ports();
  traffic.offer(ports.subspan(0, 1), 2'000);  // port 0: hot
  traffic.offer(ports.subspan(1, 1), 2'000);  // port 1: hot too
  ASSERT_GE(testbed.port(0).rx_available(0), 4u);  // RSS spread reaches q0
  ASSERT_GE(testbed.port(1).rx_available(0), 4u);

  auto* handle = testbed.engine().attach(/*core=*/0, {{0, 0}, {1, 0}});
  const u32 before0 = testbed.port(0).rx_available(0);
  const u32 before1 = testbed.port(1).rx_available(0);

  iengine::PacketChunk chunk(64);
  const u32 n = handle->recv_chunk(chunk, /*batch_cap=*/8, /*per_queue_cap=*/4);
  EXPECT_EQ(n, 8u);  // the batch filled...
  // ...with exactly the fair share from each backlogged queue.
  EXPECT_EQ(testbed.port(0).rx_available(0), before0 - 4);
  EXPECT_EQ(testbed.port(1).rx_available(0), before1 - 4);

  // Uncapped, round-robin resumes where it left off but one queue may
  // take the whole batch.
  const u32 full = handle->recv_chunk(chunk, 8, 8);
  EXPECT_EQ(full, 8u);
}

TEST(OverloadControl, WatermarksShrinkBatchesAndShedAtTheNicRing) {
  Testbed testbed({.topo = pcie::Topology::single_node(),
                   .use_gpu = true,
                   .ring_size = 256,  // small rings: overload sheds here
                   .gpu_pool_workers = 0},
                  RouterConfig{.use_gpu = true});
  gen::TrafficGen traffic({.frame_size = 64, .seed = 82});
  testbed.connect_sink(&traffic);

  SlowShader shader;
  RouterConfig config;
  config.use_gpu = true;
  config.chunk_capacity = 32;
  config.master_queue_capacity = 2;  // tiny: watermarks engage immediately
  config.bp_reduced_batch = 8;
  Router router(testbed.engine(), testbed.gpus(), shader, config);
  router.start();

  const u64 offered = 20'000;
  const u64 accepted = traffic.offer(testbed.ports(), offered);

  // Overload: the offering loop outruns 256-deep rings while the shader
  // crawls, so some of the excess must have been shed at the wire. (Under
  // TSan the offerer is slowed as much as the router, so the rings may
  // keep up — only the accounting identity is asserted there.)
  u64 hw_rx_drops = 0;
  for (auto* port : testbed.ports()) hw_rx_drops += port->rx_totals().drops;
  EXPECT_EQ(accepted + hw_rx_drops, offered);
  if (!kTsan) {
    EXPECT_GT(hw_rx_drops, 0u);
  }

  // Everything that did enter the rings drains (graceful, not collapsed).
  EXPECT_TRUE(wait_for([&] { return traffic.sunk_packets() == accepted; }));
  router.stop();

  const auto stats = router.total_stats();
  EXPECT_EQ(stats.packets_in, accepted);
  EXPECT_EQ(stats.packets_out, accepted);
  EXPECT_GT(stats.bp_reduced_batches, 0u);  // the high watermark engaged
  EXPECT_GT(stats.bp_diverted_chunks, 0u);  // and saturation diverted to CPU

  const auto audit = router.audit();
  EXPECT_TRUE(audit.balanced());
  EXPECT_EQ(audit.in_flight, 0u);
  EXPECT_EQ(audit.rx, audit.tx);  // no drops past the wire in this run
}

TEST(OverloadControl, SlowpathFloodIsRateLimitedAndAccounted) {
  const auto fib = default_route_fib(1);
  apps::DynamicIpv4ForwardApp app(*fib);

  Testbed testbed({.topo = pcie::Topology::single_node(),
                   .use_gpu = false,
                   .ring_size = 4096},
                  RouterConfig{.use_gpu = false});
  gen::TrafficGen sink({.seed = 83});
  testbed.connect_sink(&sink);

  slowpath::HostStack stack(net::Ipv4Addr(192, 0, 2, 1));
  stack.set_local_capacity(64);

  RouterConfig config;
  config.use_gpu = false;
  config.chunk_capacity = 32;
  // A tight admission budget: the flood below must overrun it.
  config.slowpath_admission = {.rate_pps = 0.001, .burst = 100, .queue_capacity = 64};
  Router router(testbed.engine(), {}, app, config);
  router.set_host_stack(&stack);
  router.start();

  // Flood: 2'000 TTL-expired packets — every one classifies kSlowPath.
  net::FrameSpec dying;
  dying.ttl = 1;
  u64 accepted = 0;
  for (int i = 0; i < 2'000; ++i) {
    const auto frame = net::build_udp_ipv4(dying, net::Ipv4Addr(10, 0, 0, 9),
                                           net::Ipv4Addr(20, 0, (i >> 8) & 0xff, i & 0xff));
    if (testbed.port(0).receive_frame(frame)) ++accepted;
  }
  ASSERT_EQ(accepted, 2'000u);

  // Drain: every flooded packet ends as admitted slow-path work or an
  // accounted kSlowpathShed drop.
  EXPECT_TRUE(wait_for([&] {
    const auto s = router.total_stats();
    return s.slow_path + s.drops(iengine::DropReason::kSlowpathShed) == accepted;
  }));
  router.stop();

  const auto stats = router.total_stats();
  const auto admission = router.slowpath_admission_stats();
  // The bucket's burst is all the flood gets; the rest is shed by rate.
  EXPECT_EQ(stats.slow_path, 100u);
  EXPECT_EQ(stats.drops(iengine::DropReason::kSlowpathShed), accepted - 100u);
  EXPECT_EQ(admission.admitted, 100u);
  EXPECT_EQ(admission.shed_rate, accepted - 100u);

  // Slow-path memory stayed bounded throughout.
  EXPECT_LE(stack.local_deliveries().size(), stack.local_capacity());

  // Conservation: rx == tx + drops + slow_path, in_flight zero.
  const auto audit = router.audit();
  EXPECT_TRUE(audit.balanced());
  EXPECT_EQ(audit.rx, accepted);
  EXPECT_EQ(audit.in_flight, 0u);
}

TEST(OverloadControl, AuditBalancesOnANormalForwardingRun) {
  const auto fib = default_route_fib(2);
  apps::DynamicIpv4ForwardApp app(*fib);

  Testbed testbed({.topo = pcie::Topology::single_node(),
                   .use_gpu = true,
                   .ring_size = 4096,
                   .gpu_pool_workers = 0},
                  RouterConfig{.use_gpu = true});
  gen::TrafficGen traffic({.frame_size = 64, .seed = 84});
  testbed.connect_sink(&traffic);

  Router router(testbed.engine(), testbed.gpus(), app, RouterConfig{.use_gpu = true});
  router.start();
  const u64 accepted = traffic.offer(testbed.ports(), 10'000);
  EXPECT_TRUE(wait_for([&] { return traffic.sunk_packets() == accepted; }));
  router.stop();

  const auto audit = router.audit();
  EXPECT_TRUE(audit.balanced());
  EXPECT_EQ(audit.rx, accepted);
  EXPECT_EQ(audit.tx, accepted);
  EXPECT_EQ(audit.dropped, 0u);
  EXPECT_EQ(audit.in_flight, 0u);
}

}  // namespace
}  // namespace ps::core
