// Dynamic IPv4 forwarding: live FIB updates with double-buffered GPU
// tables, including an update while the real-threaded router forwards.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "apps/dynamic_ipv4.hpp"
#include "core/router.hpp"
#include "core/testbed.hpp"
#include "gen/traffic.hpp"

namespace ps::apps {
namespace {

using namespace std::chrono_literals;

route::Ipv4Prefix default_route(route::NextHop nh) { return {net::Ipv4Addr(0), 0, nh}; }

struct GpuHarness {
  pcie::Topology topo = pcie::Topology::paper_server();
  gpu::GpuDevice device{0, topo, std::make_shared<gpu::SimtExecutor>(2u)};
  core::GpuContext ctx{&device, {gpu::kDefaultStream}};
};

void run_gpu(DynamicIpv4ForwardApp& app, GpuHarness& gpu, core::ShaderJob& job) {
  app.pre_shade(job);
  core::ShaderJob* jobs[] = {&job};
  app.shade(gpu.ctx, {jobs, 1});
  app.post_shade(job);
}

TEST(DynamicIpv4, CpuPathFollowsCommits) {
  route::Ipv4Fib fib;
  fib.announce(default_route(1));
  fib.commit();
  DynamicIpv4ForwardApp app(fib);

  gen::TrafficGen traffic({.seed = 50});
  core::ShaderJob job(8);
  job.chunk.append(traffic.next_frame());
  app.process_cpu(job.chunk);
  EXPECT_EQ(job.chunk.out_port(0), 1);

  fib.announce(default_route(5));
  fib.commit();
  core::ShaderJob job2(8);
  job2.chunk.append(traffic.next_frame());
  app.process_cpu(job2.chunk);
  EXPECT_EQ(job2.chunk.out_port(0), 5);
}

TEST(DynamicIpv4, GpuPathUsesActiveCopyUntilSync) {
  route::Ipv4Fib fib;
  fib.announce(default_route(1));
  fib.commit();
  DynamicIpv4ForwardApp app(fib);
  GpuHarness gpu;
  app.bind_gpu(gpu.device);

  gen::TrafficGen traffic({.seed = 51});

  core::ShaderJob before(8);
  before.chunk.append(traffic.next_frame());
  run_gpu(app, gpu, before);
  EXPECT_EQ(before.chunk.out_port(0), 1);

  // Commit a change but do NOT sync: the device still serves the old copy
  // (that is the double-buffering contract — no torn tables).
  fib.announce(default_route(6));
  fib.commit();
  core::ShaderJob stale(8);
  stale.chunk.append(traffic.next_frame());
  run_gpu(app, gpu, stale);
  EXPECT_EQ(stale.chunk.out_port(0), 1);

  // sync() flips to the standby copy.
  EXPECT_EQ(app.sync(), 1);
  core::ShaderJob fresh(8);
  fresh.chunk.append(traffic.next_frame());
  run_gpu(app, gpu, fresh);
  EXPECT_EQ(fresh.chunk.out_port(0), 6);

  // Second sync with no new generation is a no-op.
  EXPECT_EQ(app.sync(), 0);
}

TEST(DynamicIpv4, UnchangedFibHoldsOneDeviceTableCopy) {
  // A FIB that never commits again after bind_gpu needs no standby: the
  // device holds one table copy (32 MiB tbl24 + 16 MiB tbl_long) until the
  // first sync() after a commit allocates the second.
  route::Ipv4Fib fib;
  fib.announce(default_route(1));
  fib.commit();
  DynamicIpv4ForwardApp app(fib);
  GpuHarness gpu;
  constexpr u64 kStaging = u64{DynamicIpv4ForwardApp::kMaxBatchItems} * (sizeof(u32) + sizeof(u16));
  constexpr u64 kCopy = (u64{1} << 24) * sizeof(u16) +
                        u64{DynamicIpv4ForwardApp::kMaxOverflowChunks} *
                            route::Ipv4Table::kChunk * sizeof(u16);
  app.bind_gpu(gpu.device);
  EXPECT_EQ(gpu.device.allocated_bytes(), kStaging + kCopy);
  EXPECT_EQ(app.sync(), 0);
  EXPECT_EQ(gpu.device.allocated_bytes(), kStaging + kCopy);

  fib.announce(default_route(2));
  fib.commit();
  EXPECT_EQ(app.sync(), 1);
  EXPECT_EQ(gpu.device.allocated_bytes(), kStaging + 2 * kCopy);
  fib.announce(default_route(3));
  fib.commit();
  EXPECT_EQ(app.sync(), 1);  // flips back onto the first copy
  EXPECT_EQ(gpu.device.allocated_bytes(), kStaging + 2 * kCopy);
}

TEST(DynamicIpv4, WithdrawTurnsIntoDrop) {
  route::Ipv4Fib fib;
  fib.announce({net::Ipv4Addr(10, 0, 0, 0), 8, 2});
  fib.commit();
  DynamicIpv4ForwardApp app(fib);

  auto frame = net::build_udp_ipv4({}, net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(10, 2, 3, 4));
  core::ShaderJob job(4);
  job.chunk.append(frame);
  app.process_cpu(job.chunk);
  EXPECT_EQ(job.chunk.out_port(0), 2);

  fib.withdraw({net::Ipv4Addr(10, 0, 0, 0), 8, 2});
  fib.commit();
  core::ShaderJob job2(4);
  job2.chunk.append(frame);
  app.process_cpu(job2.chunk);
  EXPECT_EQ(job2.chunk.verdict(0), iengine::PacketVerdict::kDrop);
}

TEST(DynamicIpv4, LiveUpdateUnderThreadedRouter) {
  // The §7 scenario: a control plane re-routes traffic while the router
  // forwards at full tilt. No packets are lost; eventually all traffic
  // shifts to the new next hop.
  route::Ipv4Fib fib;
  fib.announce(default_route(1));
  fib.commit();
  DynamicIpv4ForwardApp app(fib);

  core::Testbed testbed({.topo = pcie::Topology::paper_server(),
                         .use_gpu = true,
                         .ring_size = 4096,
                         .gpu_pool_workers = 2},
                        core::RouterConfig{.use_gpu = true});
  gen::TrafficGen traffic({.frame_size = 64, .seed = 52});
  testbed.connect_sink(&traffic);

  core::Router router(testbed.engine(), testbed.gpus(), app, core::RouterConfig{.use_gpu = true});
  router.start();

  const u64 phase = 1500;
  traffic.offer(testbed.ports(), phase);

  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (traffic.sunk_packets() < phase && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(traffic.sunk_packets(), phase);
  EXPECT_EQ(traffic.sunk_on_port(1), phase);  // all via old next hop

  // Control plane: re-route everything to port 6 while the router runs.
  fib.announce(default_route(6));
  fib.commit();
  app.sync();

  traffic.offer(testbed.ports(), phase);
  const auto deadline2 = std::chrono::steady_clock::now() + 5s;
  while (traffic.sunk_packets() < 2 * phase && std::chrono::steady_clock::now() < deadline2) {
    std::this_thread::sleep_for(1ms);
  }
  router.stop();

  EXPECT_EQ(traffic.sunk_packets(), 2 * phase);          // nothing lost
  EXPECT_EQ(traffic.sunk_on_port(6), phase);             // all new traffic moved
  EXPECT_EQ(traffic.sunk_on_port(1), phase);             // old traffic untouched
}

}  // namespace
}  // namespace ps::apps
