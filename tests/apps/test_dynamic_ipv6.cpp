// Dynamic IPv6 forwarding: commits that each GPU's master uploads into
// its one device table copy (including table growth and failed uploads),
// GPU/CPU equivalence against a changing FIB, and a commit while the
// real-threaded router forwards.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "apps/dynamic_ipv6.hpp"
#include "core/router.hpp"
#include "core/testbed.hpp"
#include "fault/fault_injector.hpp"
#include "gen/traffic.hpp"
#include "route/rib_gen.hpp"

namespace ps::apps {
namespace {

using namespace std::chrono_literals;

struct GpuHarness {
  pcie::Topology topo = pcie::Topology::paper_server();
  gpu::GpuDevice device{0, topo, std::make_shared<gpu::SimtExecutor>(2u)};
  core::GpuContext ctx{&device, {gpu::kDefaultStream}};
};

void run_gpu(DynamicIpv6ForwardApp& app, GpuHarness& gpu, core::ShaderJob& job) {
  app.pre_shade(job);
  core::ShaderJob* jobs[] = {&job};
  ASSERT_TRUE(app.shade(gpu.ctx, {jobs, 1}).ok());
  app.post_shade(job);
}

route::Ipv6Prefix default6(route::NextHop nh) { return {net::Ipv6Addr{}, 0, nh}; }

/// Shade one frame to `dst` on the GPU: the batch's status and, when it
/// succeeded, the port the frame leaves on.
struct Shaded {
  gpu::GpuStatus status;
  i16 port;
  bool operator==(const Shaded&) const = default;
};
Shaded shade_to(DynamicIpv6ForwardApp& app, GpuHarness& gpu, net::Ipv6Addr dst) {
  net::FrameSpec spec;
  spec.frame_size = 78;
  core::ShaderJob job(1);
  job.chunk.append(net::build_udp_ipv6(spec, net::Ipv6Addr::from_words(1, 1), dst));
  app.pre_shade(job);
  core::ShaderJob* jobs[] = {&job};
  const core::ShadeOutcome outcome = app.shade(gpu.ctx, {jobs, 1});
  if (!outcome.ok()) return {outcome.status, -1};
  app.post_shade(job);
  return {outcome.status, job.chunk.out_port(0)};
}

/// Staging bytes per bound GPU: a 16 B key and a u16 next hop per item.
constexpr u64 kStaging = u64{DynamicIpv6ForwardApp::kMaxBatchItems} * (16 + sizeof(u16));
/// The offsets and masks arrays of a device copy, u32[129] each.
constexpr u64 kLevelArrays = 2 * 129 * sizeof(u32);

TEST(DynamicIpv6, CpuPathFollowsCommits) {
  route::Ipv6Fib fib;
  fib.announce(default6(2));
  fib.commit();
  DynamicIpv6ForwardApp app(fib);

  gen::TrafficGen traffic({.kind = gen::TrafficKind::kIpv6Udp, .frame_size = 78, .seed = 1});
  core::ShaderJob job(4);
  job.chunk.append(traffic.next_frame());
  app.process_cpu(job.chunk);
  EXPECT_EQ(job.chunk.out_port(0), 2);

  fib.announce(default6(7));
  fib.commit();
  core::ShaderJob job2(4);
  job2.chunk.append(traffic.next_frame());
  app.process_cpu(job2.chunk);
  EXPECT_EQ(job2.chunk.out_port(0), 7);
}

TEST(DynamicIpv6, GpuPathFollowsCommits) {
  route::Ipv6Fib fib;
  fib.announce(default6(1));
  fib.commit();
  DynamicIpv6ForwardApp app(fib);
  GpuHarness gpu;
  app.bind_gpu(gpu.device);

  gen::TrafficGen traffic({.kind = gen::TrafficKind::kIpv6Udp, .frame_size = 78, .seed = 2});

  core::ShaderJob before(4);
  before.chunk.append(traffic.next_frame());
  run_gpu(app, gpu, before);
  EXPECT_EQ(before.chunk.out_port(0), 1);

  // A commit and nothing else: the next batch uploads the new generation.
  fib.announce(default6(5));
  fib.commit();
  core::ShaderJob fresh(4);
  fresh.chunk.append(traffic.next_frame());
  run_gpu(app, gpu, fresh);
  EXPECT_EQ(fresh.chunk.out_port(0), 5);

  // With no new generation, a batch copies its keys and no table.
  const u64 h2d = gpu.device.bytes_h2d();
  core::ShaderJob again(4);
  again.chunk.append(traffic.next_frame());
  run_gpu(app, gpu, again);
  EXPECT_EQ(again.chunk.out_port(0), 5);
  EXPECT_EQ(gpu.device.bytes_h2d() - h2d, 16u);
}

TEST(DynamicIpv6, DeviceCopyGrowsWhenTableGrows) {
  // Start with a handful of routes, then commit a table 1000x larger: the
  // one device copy must grow its slot array, and lookups must stay correct.
  route::Ipv6Fib fib;
  fib.announce({net::Ipv6Addr::from_words(0x2001'0000'0000'0000ULL, 0), 16, 3});
  fib.commit();
  DynamicIpv6ForwardApp app(fib);
  GpuHarness gpu;
  app.bind_gpu(gpu.device);
  const u64 small_copy = gpu.device.allocated_bytes() - kStaging;

  const auto rib = route::generate_ipv6_rib(20'000, 8, 3);
  for (const auto& p : rib) fib.announce(p);
  fib.commit();

  // Every sampled covered address must resolve identically on GPU and CPU.
  gen::TrafficConfig cfg{.kind = gen::TrafficKind::kIpv6Udp, .frame_size = 78, .seed = 4};
  cfg.ipv6_dst_pool = route::sample_covered_ipv6(rib, 512);
  gen::TrafficGen traffic(cfg);

  core::ShaderJob gpu_job(64), cpu_job(64);
  for (int i = 0; i < 64; ++i) {
    const auto frame = traffic.next_frame();
    gpu_job.chunk.append(frame);
    cpu_job.chunk.append(frame);
  }
  run_gpu(app, gpu, gpu_job);
  app.process_cpu(cpu_job.chunk);

  for (u32 i = 0; i < 64; ++i) {
    EXPECT_EQ(gpu_job.chunk.verdict(i), cpu_job.chunk.verdict(i)) << i;
    EXPECT_EQ(gpu_job.chunk.out_port(i), cpu_job.chunk.out_port(i)) << i;
    EXPECT_NE(gpu_job.chunk.out_port(i), -1) << i;  // covered pool: all hit
  }

  // One copy, its slot array regrown with 50% headroom.
  const u64 slot_bytes = fib.read()->slots().size_bytes();
  EXPECT_GT(slot_bytes + kLevelArrays, small_copy);
  EXPECT_EQ(gpu.device.allocated_bytes(), kStaging + slot_bytes + slot_bytes / 2 + kLevelArrays);
}

TEST(DynamicIpv6, UnchangedFibHoldsOneDeviceTableCopy) {
  // As for IPv4: one device copy, rewritten in place by each batch that
  // finds a new generation.
  route::Ipv6Fib fib;
  for (const auto& p : route::generate_ipv6_rib(1000, 8, 5)) fib.announce(p);
  fib.commit();
  DynamicIpv6ForwardApp app(fib);
  GpuHarness gpu;
  app.bind_gpu(gpu.device);
  const u64 one_copy = gpu.device.allocated_bytes() - kStaging;
  EXPECT_GT(one_copy, 0u);

  // A default route adds no hash entries, so each new generation fits the
  // copy already there.
  const auto dst = net::Ipv6Addr::from_words(0xffff'0000'0000'0000ULL, 0);
  for (route::NextHop nh = 3; nh <= 5; ++nh) {
    fib.announce(default6(nh));
    fib.commit();
    EXPECT_EQ(shade_to(app, gpu, dst), (Shaded{gpu::GpuStatus::kOk, static_cast<i16>(nh)}));
    EXPECT_EQ(gpu.device.allocated_bytes(), kStaging + one_copy);
  }
}

TEST(DynamicIpv6, FailedTableUploadIsNeverRead) {
  // As for IPv4: a copy whose upload failed is never read. Its batch
  // reports the failure, and the next batch uploads again.
  const route::Ipv6Prefix p{net::Ipv6Addr::from_words(0xaaaa'0000'0000'0000ULL, 0), 16, 2};
  const auto dst = net::Ipv6Addr::from_words(0xaaaa'1234'0000'0000ULL, 0);
  route::Ipv6Fib fib;
  fib.announce(default6(1));
  fib.announce(p);
  fib.commit();
  DynamicIpv6ForwardApp app(fib);
  GpuHarness gpu;
  fault::FaultInjector inj;
  gpu.device.set_fault_injector(&inj);

  // The bind-time upload fails at its first copy, the slot array.
  inj.add_rule({.point = "gpu.copy", .after = 0, .count = 1});
  app.bind_gpu(gpu.device);
  EXPECT_EQ(shade_to(app, gpu, dst), (Shaded{gpu::GpuStatus::kOk, 2}));

  // A partial upload in shade(): the slots land, the level offsets do not.
  fib.announce({p.addr, 16, 3});
  fib.commit();
  inj.reset();
  inj.add_rule({.point = "gpu.copy", .after = 1, .count = 1});
  EXPECT_EQ(shade_to(app, gpu, dst), (Shaded{gpu::GpuStatus::kCopyFailed, -1}));
  EXPECT_EQ(shade_to(app, gpu, dst), (Shaded{gpu::GpuStatus::kOk, 3}));
  EXPECT_EQ(inj.stats("gpu.copy").fired, 1u);
}

TEST(DynamicIpv6, WithdrawTurnsIntoDrop) {
  route::Ipv6Fib fib;
  const route::Ipv6Prefix p{net::Ipv6Addr::from_words(0xaaaa'0000'0000'0000ULL, 0), 16, 4};
  fib.announce(p);
  fib.commit();
  DynamicIpv6ForwardApp app(fib);

  net::FrameSpec spec;
  spec.frame_size = 78;
  auto frame = net::build_udp_ipv6(spec, net::Ipv6Addr::from_words(1, 1),
                                   net::Ipv6Addr::from_words(0xaaaa'1234'0000'0000ULL, 0));
  core::ShaderJob job(2);
  job.chunk.append(frame);
  app.process_cpu(job.chunk);
  EXPECT_EQ(job.chunk.out_port(0), 4);

  fib.withdraw(p);
  fib.commit();
  core::ShaderJob job2(2);
  job2.chunk.append(frame);
  app.process_cpu(job2.chunk);
  EXPECT_EQ(job2.chunk.verdict(0), iengine::PacketVerdict::kDrop);
}

TEST(DynamicIpv6, LiveUpdateUnderThreadedRouter) {
  // The IPv4 test's twin: a commit while the router forwards moves all
  // later traffic to the new next hop, with no call into the app.
  route::Ipv6Fib fib;
  fib.announce(default6(1));
  fib.commit();
  DynamicIpv6ForwardApp app(fib);

  core::Testbed testbed({.topo = pcie::Topology::paper_server(),
                         .use_gpu = true,
                         .ring_size = 4096,
                         .gpu_pool_workers = 2},
                        core::RouterConfig{.use_gpu = true});
  gen::TrafficGen traffic({.kind = gen::TrafficKind::kIpv6Udp, .frame_size = 78, .seed = 6});
  testbed.connect_sink(&traffic);

  core::Router router(testbed.engine(), testbed.gpus(), app, core::RouterConfig{.use_gpu = true});
  router.start();

  const u64 phase = 1500;
  const auto drain = [&](u64 total) {
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (traffic.sunk_packets() < total && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
  };
  traffic.offer(testbed.ports(), phase);
  drain(phase);
  ASSERT_EQ(traffic.sunk_on_port(1), phase);

  fib.announce(default6(6));
  fib.commit();
  traffic.offer(testbed.ports(), phase);
  drain(2 * phase);
  router.stop();

  EXPECT_EQ(traffic.sunk_packets(), 2 * phase);
  EXPECT_EQ(traffic.sunk_on_port(6), phase);
  EXPECT_EQ(traffic.sunk_on_port(1), phase);
  // As in the IPv4 FibUpdater test: some packets after the commit were
  // shaded on the GPUs.
  const auto stats = router.total_stats();
  EXPECT_EQ(stats.gpu_processed + stats.cpu_processed, 2 * phase);
  EXPECT_GT(stats.gpu_processed, phase);
}

}  // namespace
}  // namespace ps::apps
