// Steady-state allocation-freedom: once the router's staging buffers,
// queues, and scratch blocks are warm, forwarding traffic through the
// CPU-only pipeline must not touch the global allocator, and neither may a
// warm job passing through an app's GPU-path callbacks. The counting
// operator new in telemetry/alloc_stats.cpp (PS_ALLOC_STATS builds) makes
// that an assertable property rather than a code-review convention.
//
// There is no Router-level CPU+GPU variant: a worker's job pool grows
// lazily, up to pipeline_depth + 1 jobs, so a measured burst may still
// meet a job's first allocation. The warm-job tests cover those paths.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "apps/dynamic_ipv4.hpp"
#include "apps/dynamic_ipv6.hpp"
#include "apps/ipsec_gateway.hpp"
#include "apps/openflow_app.hpp"
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

crypto::SecurityAssociation gateway_sa() {
  return crypto::SecurityAssociation::make_test_sa(0x2323, net::Ipv4Addr(172, 16, 0, 1),
                                                   net::Ipv4Addr(172, 16, 0, 2));
}

/// Drive `app` through a CPU-only Router: four warm-up bursts of 2000
/// frames, then a measured burst of 4000. Returns the allocations made
/// while the measured burst drained.
u64 cpu_only_router_allocations(Shader& app, const gen::TrafficConfig& traffic_config) {
  Testbed testbed(TestbedConfig{.topo = pcie::Topology::paper_server(),
                                .use_gpu = false,
                                .ring_size = 4096},
                  RouterConfig{.use_gpu = false});
  gen::TrafficGen traffic{traffic_config};
  testbed.connect_sink(&traffic);

  RouterConfig config;
  config.use_gpu = false;
  // A worker starved of cycles on a loaded host can stay silent past the
  // supervisor's default 20 ms stall window, and the stall event the
  // supervisor then records allocates although the data path did not.
  // IPsec keeps the workers busy long enough for that to happen.
  config.supervisor_stall_window = 1s;
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
    EXPECT_EQ(traffic.sunk_packets(), total) << "warmup burst " << burst << " not drained";
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
  EXPECT_EQ(traffic.sunk_packets(), total) << "measured burst not drained";
  const u64 after = telemetry::allocations();

  router.stop();
  return after - before;
}

/// Bind `app` to a device and pass one job of `frames` through pre_shade,
/// shade, post_shade and shade_cpu: three warm rounds, then a measured
/// one. Returns the allocations the measured round made.
u64 warm_job_allocations(Shader& app, const std::vector<net::FrameBuffer>& frames) {
  const pcie::Topology topo = pcie::Topology::paper_server();
  gpu::GpuDevice device(0, topo, std::make_shared<gpu::SimtExecutor>(2u));
  GpuContext ctx{&device, {gpu::kDefaultStream}};
  app.bind_gpu(device);

  ShaderJob job(static_cast<u32>(frames.size()));
  ShaderJob* jobs[] = {&job};
  const auto round = [&] {
    job.reset();
    job.chunk.in_port = 0;
    for (const auto& frame : frames) job.chunk.append(frame);
    app.pre_shade(job);
    EXPECT_TRUE(app.shade(ctx, jobs).ok());
    app.post_shade(job);
    app.shade_cpu(job);
  };
  for (int warm = 0; warm < 3; ++warm) round();
  const u64 before = telemetry::allocations();
  round();
  return telemetry::allocations() - before;
}

std::vector<net::FrameBuffer> frames_of(const gen::TrafficConfig& config, int count) {
  gen::TrafficGen traffic{config};
  std::vector<net::FrameBuffer> frames;
  for (int i = 0; i < count; ++i) frames.push_back(traffic.next_frame());
  return frames;
}

constexpr const char* kNoAllocStats = "built without PS_ALLOC_STATS (sanitizer build?)";

TEST(SteadyStateAlloc, CpuOnlyForwardingIsAllocationFree) {
  if (!telemetry::alloc_stats_enabled()) GTEST_SKIP() << kNoAllocStats;
  std::unique_ptr<route::Ipv4Fib> fib = default_route_fib(1);
  apps::DynamicIpv4ForwardApp app{*fib};
  const u64 allocations = cpu_only_router_allocations(app, {.seed = 23});
  EXPECT_EQ(allocations, 0u)
      << "steady-state forwarding allocated " << allocations
      << " times; a staging buffer or queue is growing per-packet";
}

TEST(SteadyStateAlloc, CpuOnlyIpsecIsAllocationFree) {
  if (!telemetry::alloc_stats_enabled()) GTEST_SKIP() << kNoAllocStats;
  const auto sa = gateway_sa();
  apps::IpsecGatewayApp app(sa);
  const u64 allocations = cpu_only_router_allocations(app, {.frame_size = 200, .seed = 24});
  EXPECT_EQ(allocations, 0u) << "steady-state IPsec allocated " << allocations << " times";
}

TEST(SteadyStateAlloc, WarmIpv4JobIsAllocationFree) {
  if (!telemetry::alloc_stats_enabled()) GTEST_SKIP() << kNoAllocStats;
  std::unique_ptr<route::Ipv4Fib> fib = default_route_fib(1);
  apps::DynamicIpv4ForwardApp app{*fib};
  EXPECT_EQ(warm_job_allocations(app, frames_of({.seed = 25}, 64)), 0u);
}

TEST(SteadyStateAlloc, WarmIpv6JobIsAllocationFree) {
  if (!telemetry::alloc_stats_enabled()) GTEST_SKIP() << kNoAllocStats;
  route::Ipv6Fib fib;
  fib.announce({net::Ipv6Addr{}, 0, 2});
  fib.commit();
  apps::DynamicIpv6ForwardApp app{fib};
  EXPECT_EQ(warm_job_allocations(
                app, frames_of({.kind = gen::TrafficKind::kIpv6Udp, .frame_size = 78, .seed = 26},
                               64)),
            0u);
}

TEST(SteadyStateAlloc, WarmOpenFlowJobIsAllocationFree) {
  if (!telemetry::alloc_stats_enabled()) GTEST_SKIP() << kNoAllocStats;
  const gen::TrafficConfig config{.seed = 27, .flow_count = 32};
  gen::TrafficGen traffic{config};
  openflow::OpenFlowSwitch sw;
  for (u32 flow = 0; flow < 16; ++flow) {
    const auto frame = traffic.frame_for_flow(flow);
    net::PacketView view;
    ASSERT_EQ(net::parse_packet(const_cast<u8*>(frame.data()), static_cast<u32>(frame.size()),
                                view),
              net::ParseStatus::kOk);
    sw.exact().insert(openflow::extract_flow_key(view, 0), openflow::Action::output(1));
  }
  openflow::WildcardMatch udp_any;
  udp_any.wildcards = openflow::kWildAll & ~openflow::kWildNwProto;
  udp_any.key.nw_proto = 17;
  udp_any.priority = 10;
  sw.wildcard().insert(udp_any, openflow::Action::output(2));
  apps::OpenFlowApp app(sw);
  EXPECT_EQ(warm_job_allocations(app, frames_of(config, 64)), 0u);
}

TEST(SteadyStateAlloc, WarmIpsecJobIsAllocationFree) {
  if (!telemetry::alloc_stats_enabled()) GTEST_SKIP() << kNoAllocStats;
  const auto sa = gateway_sa();
  apps::IpsecGatewayApp app(sa);
  EXPECT_EQ(warm_job_allocations(app, frames_of({.frame_size = 200, .seed = 28}, 64)), 0u);
}

}  // namespace
}  // namespace ps::core
