// Dynamic IPv4 forwarding: live FIB updates that each GPU's master
// uploads into its one device table copy, including updates while the
// real-threaded router forwards.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "apps/dynamic_ipv4.hpp"
#include "core/router.hpp"
#include "core/testbed.hpp"
#include "fault/fault_injector.hpp"
#include "gen/traffic.hpp"
#include "route/fib_updater.hpp"

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
  ASSERT_TRUE(app.shade(gpu.ctx, {jobs, 1}).ok());
  app.post_shade(job);
}

/// Shade one frame to `dst` on the GPU: the batch's status and, when it
/// succeeded, the port the frame leaves on.
struct Shaded {
  gpu::GpuStatus status;
  i16 port;
  bool operator==(const Shaded&) const = default;
};
Shaded shade_to(DynamicIpv4ForwardApp& app, GpuHarness& gpu, net::Ipv4Addr dst) {
  core::ShaderJob job(1);
  job.chunk.append(net::build_udp_ipv4({}, net::Ipv4Addr(1, 1, 1, 1), dst));
  app.pre_shade(job);
  core::ShaderJob* jobs[] = {&job};
  const core::ShadeOutcome outcome = app.shade(gpu.ctx, {jobs, 1});
  if (!outcome.ok()) return {outcome.status, -1};
  app.post_shade(job);
  return {outcome.status, job.chunk.out_port(0)};
}

/// Offer `n` frames and wait until the sink has seen `total`.
void offer_and_drain(gen::TrafficGen& traffic, core::Testbed& testbed, u64 n, u64 total) {
  traffic.offer(testbed.ports(), n);
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (traffic.sunk_packets() < total && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
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

TEST(DynamicIpv4, GpuPathFollowsCommits) {
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

  // A commit and nothing else: the next batch uploads the new generation
  // before its kernel runs.
  fib.announce(default_route(6));
  fib.commit();
  core::ShaderJob fresh(8);
  fresh.chunk.append(traffic.next_frame());
  run_gpu(app, gpu, fresh);
  EXPECT_EQ(fresh.chunk.out_port(0), 6);

  // With no new generation, a batch copies its keys and no table.
  const u64 h2d = gpu.device.bytes_h2d();
  core::ShaderJob again(8);
  again.chunk.append(traffic.next_frame());
  run_gpu(app, gpu, again);
  EXPECT_EQ(again.chunk.out_port(0), 6);
  EXPECT_EQ(gpu.device.bytes_h2d() - h2d, sizeof(u32));
}

TEST(DynamicIpv4, UnchangedFibHoldsOneDeviceTableCopy) {
  // The device holds one table copy (32 MiB tbl24 + 16 MiB tbl_long),
  // rewritten in place by each batch that finds a new generation.
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

  const net::Ipv4Addr dst(10, 0, 0, 1);
  for (route::NextHop nh = 2; nh <= 4; ++nh) {
    fib.announce(default_route(nh));
    fib.announce({dst, 32, static_cast<route::NextHop>(nh + 1)});
    fib.commit();
    EXPECT_EQ(shade_to(app, gpu, dst), (Shaded{gpu::GpuStatus::kOk, static_cast<i16>(nh + 1)}));
    EXPECT_EQ(gpu.device.allocated_bytes(), kStaging + kCopy);
  }
}

TEST(DynamicIpv4, FailedTableUploadIsNeverRead) {
  // Device memory is allocated for overwrite, and an upload rewrites the
  // one copy in place, so a copy whose upload failed holds unwritten or
  // mixed bytes. Its batch must report the failure (the router then
  // retries and falls back to the CPU), and the next batch uploads again.
  const net::Ipv4Addr dst(10, 0, 0, 1);
  route::Ipv4Fib fib;
  fib.announce(default_route(1));
  fib.announce({dst, 32, 2});  // a TBLlong chunk: each upload is two copies
  fib.commit();
  DynamicIpv4ForwardApp app(fib);
  GpuHarness gpu;
  fault::FaultInjector inj;
  gpu.device.set_fault_injector(&inj);

  // The bind-time upload fails at its TBL24 copy.
  inj.add_rule({.point = "gpu.copy", .after = 0, .count = 1});
  app.bind_gpu(gpu.device);
  EXPECT_EQ(shade_to(app, gpu, dst), (Shaded{gpu::GpuStatus::kOk, 2}));

  // A partial upload in shade(): TBL24 lands, TBLlong does not.
  fib.announce({dst, 32, 3});
  fib.commit();
  inj.reset();
  inj.add_rule({.point = "gpu.copy", .after = 1, .count = 1});
  EXPECT_EQ(shade_to(app, gpu, dst), (Shaded{gpu::GpuStatus::kCopyFailed, -1}));
  EXPECT_EQ(shade_to(app, gpu, dst), (Shaded{gpu::GpuStatus::kOk, 3}));
  EXPECT_EQ(inj.stats("gpu.copy").fired, 1u);
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
  // Each master uploads the new generation before its next batch.
  fib.announce(default_route(6));
  fib.commit();

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

TEST(DynamicIpv4, FibUpdaterCommitReachesGpuTraffic) {
  // A commit made by the updater thread, with no call into the app: the
  // traffic offered after it leaves on the new port, shaded on the GPUs.
  route::Ipv4Fib fib;
  fib.announce(default_route(1));
  fib.commit();
  DynamicIpv4ForwardApp app(fib);
  route::FibUpdater updater(fib);
  updater.start();

  core::Testbed testbed({.topo = pcie::Topology::paper_server(),
                         .use_gpu = true,
                         .ring_size = 4096,
                         .gpu_pool_workers = 2},
                        core::RouterConfig{.use_gpu = true});
  gen::TrafficGen traffic({.frame_size = 64, .seed = 53});
  testbed.connect_sink(&traffic);
  core::Router router(testbed.engine(), testbed.gpus(), app, core::RouterConfig{.use_gpu = true});
  router.start();

  const u64 phase = 1500;
  offer_and_drain(traffic, testbed, phase, phase);
  ASSERT_EQ(traffic.sunk_on_port(1), phase);

  fib.announce(default_route(5));
  updater.drain();
  offer_and_drain(traffic, testbed, phase, 2 * phase);
  router.stop();
  updater.stop();

  EXPECT_EQ(traffic.sunk_packets(), 2 * phase);
  EXPECT_EQ(traffic.sunk_on_port(5), phase);
  // The GPUs shaded them, save a chunk the router may divert down the CPU
  // path (backpressure while a master uploads); more than `phase` GPU
  // packets means some came after the commit.
  const auto stats = router.total_stats();
  EXPECT_EQ(stats.gpu_processed + stats.cpu_processed, 2 * phase);
  EXPECT_GT(stats.gpu_processed, phase);
  EXPECT_EQ(stats.dropped(), 0u);
}

}  // namespace
}  // namespace ps::apps
