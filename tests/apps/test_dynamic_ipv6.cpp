// Dynamic IPv6 forwarding: commits, standby-buffer flips (including table
// growth), and GPU/CPU equivalence against a changing FIB.
#include <gtest/gtest.h>

#include "apps/dynamic_ipv6.hpp"
#include "gen/traffic.hpp"
#include "route/rib_gen.hpp"

namespace ps::apps {
namespace {

struct GpuHarness {
  pcie::Topology topo = pcie::Topology::paper_server();
  gpu::GpuDevice device{0, topo, std::make_shared<gpu::SimtExecutor>(2u)};
  core::GpuContext ctx{&device, {gpu::kDefaultStream}};
};

void run_gpu(DynamicIpv6ForwardApp& app, GpuHarness& gpu, core::ShaderJob& job) {
  app.pre_shade(job);
  core::ShaderJob* jobs[] = {&job};
  app.shade(gpu.ctx, {jobs, 1});
  app.post_shade(job);
}

route::Ipv6Prefix default6(route::NextHop nh) { return {net::Ipv6Addr{}, 0, nh}; }

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

TEST(DynamicIpv6, GpuFlipsOnSync) {
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

  fib.announce(default6(5));
  fib.commit();
  core::ShaderJob stale(4);
  stale.chunk.append(traffic.next_frame());
  run_gpu(app, gpu, stale);
  EXPECT_EQ(stale.chunk.out_port(0), 1);  // not synced yet

  EXPECT_EQ(app.sync(), 1);
  core::ShaderJob fresh(4);
  fresh.chunk.append(traffic.next_frame());
  run_gpu(app, gpu, fresh);
  EXPECT_EQ(fresh.chunk.out_port(0), 5);
  EXPECT_EQ(app.sync(), 0);  // idempotent
}

TEST(DynamicIpv6, StandbyGrowsWhenTableGrows) {
  // Start with a handful of routes, then commit a table 1000x larger: the
  // standby copy must be reallocated and lookups must stay correct.
  route::Ipv6Fib fib;
  fib.announce({net::Ipv6Addr::from_words(0x2001'0000'0000'0000ULL, 0), 16, 3});
  fib.commit();
  DynamicIpv6ForwardApp app(fib);
  GpuHarness gpu;
  app.bind_gpu(gpu.device);

  const auto rib = route::generate_ipv6_rib(20'000, 8, 3);
  for (const auto& p : rib) fib.announce(p);
  fib.commit();
  EXPECT_EQ(app.sync(), 1);

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
}

TEST(DynamicIpv6, UnchangedFibHoldsOneDeviceTableCopy) {
  // As for IPv4: one device copy until the first sync() after a commit.
  route::Ipv6Fib fib;
  for (const auto& p : route::generate_ipv6_rib(1000, 8, 5)) fib.announce(p);
  fib.commit();
  DynamicIpv6ForwardApp app(fib);
  GpuHarness gpu;
  constexpr u64 kStaging = u64{DynamicIpv6ForwardApp::kMaxBatchItems} * (16 + sizeof(u16));
  app.bind_gpu(gpu.device);
  const u64 one_copy = gpu.device.allocated_bytes() - kStaging;
  EXPECT_GT(one_copy, 0u);
  EXPECT_EQ(app.sync(), 0);
  EXPECT_EQ(gpu.device.allocated_bytes(), kStaging + one_copy);

  // A default route adds no hash entries, so the second copy is the same
  // size as the first.
  fib.announce(default6(3));
  fib.commit();
  EXPECT_EQ(app.sync(), 1);
  EXPECT_EQ(gpu.device.allocated_bytes(), kStaging + 2 * one_copy);
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

}  // namespace
}  // namespace ps::apps
