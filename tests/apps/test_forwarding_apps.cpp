// IPv4/IPv6 forwarding shaders over a FIB committed once (a static
// table): CPU path vs GPU path equivalence, classification
// (drop/slow-path), and header rewriting.
#include <gtest/gtest.h>

#include "apps/dynamic_ipv4.hpp"
#include "apps/dynamic_ipv6.hpp"
#include "core/shader.hpp"
#include "gen/traffic.hpp"
#include "route/rib_gen.hpp"

namespace ps::apps {
namespace {

struct GpuHarness {
  pcie::Topology topo = pcie::Topology::paper_server();
  std::shared_ptr<gpu::SimtExecutor> exec = std::make_shared<gpu::SimtExecutor>(2u);
  gpu::GpuDevice device{0, topo, exec};
  core::GpuContext ctx;

  GpuHarness() { ctx = core::GpuContext{&device, {gpu::kDefaultStream}}; }
};

/// Run one chunk through pre-shade -> shade -> post-shade.
void run_gpu_path(core::Shader& app, GpuHarness& gpu, core::ShaderJob& job) {
  app.bind_gpu(gpu.device);
  app.pre_shade(job);
  core::ShaderJob* jobs[] = {&job};
  app.shade(gpu.ctx, {jobs, 1});
  app.post_shade(job);
}

TEST(Ipv4ForwardApp, GpuPathMatchesCpuPathOnRandomTraffic) {
  const auto rib = route::generate_ipv4_rib({.prefix_count = 20'000, .num_next_hops = 8, .seed = 1});
  route::Ipv4Fib fib;
  for (const auto& p : rib) fib.announce(p);
  fib.commit();
  DynamicIpv4ForwardApp app(fib);
  GpuHarness gpu;

  gen::TrafficGen traffic({.seed = 2});
  core::ShaderJob gpu_job(128), cpu_job(128);
  for (int i = 0; i < 128; ++i) {
    const auto frame = traffic.next_frame();
    gpu_job.chunk.append(frame);
    cpu_job.chunk.append(frame);
  }
  gpu_job.chunk.in_port = cpu_job.chunk.in_port = 0;

  run_gpu_path(app, gpu, gpu_job);
  app.process_cpu(cpu_job.chunk);

  for (u32 i = 0; i < 128; ++i) {
    EXPECT_EQ(gpu_job.chunk.verdict(i), cpu_job.chunk.verdict(i)) << i;
    EXPECT_EQ(gpu_job.chunk.out_port(i), cpu_job.chunk.out_port(i)) << i;
    // Both paths must produce identical rewritten packets (TTL, checksum).
    EXPECT_TRUE(std::equal(gpu_job.chunk.packet(i).begin(), gpu_job.chunk.packet(i).end(),
                           cpu_job.chunk.packet(i).begin()))
        << i;
  }
}

TEST(Ipv4ForwardApp, RouteMissIsDropped) {
  route::Ipv4Fib fib;
  fib.announce({net::Ipv4Addr(10, 0, 0, 0), 8, 3});
  fib.commit();
  DynamicIpv4ForwardApp app(fib);

  core::ShaderJob job(4);
  net::FrameSpec spec;
  job.chunk.append(net::build_udp_ipv4(spec, net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(10, 1, 1, 1)));
  job.chunk.append(net::build_udp_ipv4(spec, net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(99, 1, 1, 1)));
  app.process_cpu(job.chunk);

  EXPECT_EQ(job.chunk.verdict(0), iengine::PacketVerdict::kForward);
  EXPECT_EQ(job.chunk.out_port(0), 3);
  EXPECT_EQ(job.chunk.verdict(1), iengine::PacketVerdict::kDrop);
}

TEST(Ipv4ForwardApp, TtlExpiredGoesToSlowPath) {
  route::Ipv4Fib fib;
  fib.announce({net::Ipv4Addr(0), 0, 1});
  fib.commit();
  DynamicIpv4ForwardApp app(fib);

  core::ShaderJob job(4);
  net::FrameSpec spec;
  spec.ttl = 1;
  job.chunk.append(net::build_udp_ipv4(spec, net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2)));
  app.process_cpu(job.chunk);
  EXPECT_EQ(job.chunk.verdict(0), iengine::PacketVerdict::kSlowPath);
}

TEST(Ipv4ForwardApp, MalformedPacketIsDropped) {
  route::Ipv4Fib fib;
  fib.announce({net::Ipv4Addr(0), 0, 1});
  fib.commit();
  DynamicIpv4ForwardApp app(fib);

  core::ShaderJob job(4);
  auto frame = net::build_udp_ipv4({}, net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2));
  frame[24] ^= 0xff;  // corrupt the IP checksum
  job.chunk.append(frame);
  app.process_cpu(job.chunk);
  EXPECT_EQ(job.chunk.verdict(0), iengine::PacketVerdict::kDrop);
}

TEST(Ipv4ForwardApp, NonIpGoesToSlowPath) {
  route::Ipv4Fib fib;  // no routes
  DynamicIpv4ForwardApp app(fib);

  core::ShaderJob job(4);
  auto frame = net::build_udp_ipv4({}, net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2));
  reinterpret_cast<net::EthernetHeader*>(frame.data())->set_ethertype(net::EtherType::kArp);
  job.chunk.append(frame);
  app.process_cpu(job.chunk);
  EXPECT_EQ(job.chunk.verdict(0), iengine::PacketVerdict::kSlowPath);
}

TEST(Ipv4ForwardApp, GpuPathSkipsIneligiblePackets) {
  route::Ipv4Fib fib;
  fib.announce({net::Ipv4Addr(0), 0, 1});
  fib.commit();
  DynamicIpv4ForwardApp app(fib);
  GpuHarness gpu;

  core::ShaderJob job(4);
  net::FrameSpec good;
  net::FrameSpec expired;
  expired.ttl = 1;
  job.chunk.append(net::build_udp_ipv4(good, net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2)));
  job.chunk.append(net::build_udp_ipv4(expired, net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2)));

  run_gpu_path(app, gpu, job);
  EXPECT_EQ(job.gpu_items, 1u);  // only the healthy packet went to the GPU
  EXPECT_EQ(job.chunk.out_port(0), 1);
  EXPECT_EQ(job.chunk.verdict(1), iengine::PacketVerdict::kSlowPath);
}

TEST(Ipv6ForwardApp, GpuPathMatchesCpuPath) {
  const auto rib = route::generate_ipv6_rib(10'000, 8, 7);
  route::Ipv6Fib fib;
  for (const auto& p : rib) fib.announce(p);
  fib.commit();
  DynamicIpv6ForwardApp app(fib);
  GpuHarness gpu;

  gen::TrafficGen traffic({.kind = gen::TrafficKind::kIpv6Udp, .frame_size = 78, .seed = 8});
  core::ShaderJob gpu_job(128), cpu_job(128);
  for (int i = 0; i < 128; ++i) {
    const auto frame = traffic.next_frame();
    gpu_job.chunk.append(frame);
    cpu_job.chunk.append(frame);
  }

  run_gpu_path(app, gpu, gpu_job);
  app.process_cpu(cpu_job.chunk);

  for (u32 i = 0; i < 128; ++i) {
    EXPECT_EQ(gpu_job.chunk.verdict(i), cpu_job.chunk.verdict(i)) << i;
    EXPECT_EQ(gpu_job.chunk.out_port(i), cpu_job.chunk.out_port(i)) << i;
  }
}

TEST(Ipv6ForwardApp, HopLimitDecremented) {
  route::Ipv6Fib fib;
  fib.announce({net::Ipv6Addr{}, 0, 2});
  fib.commit();
  DynamicIpv6ForwardApp app(fib);

  core::ShaderJob job(2);
  net::FrameSpec spec;
  spec.ttl = 30;
  job.chunk.append(net::build_udp_ipv6(spec, net::Ipv6Addr::from_words(1, 1),
                                       net::Ipv6Addr::from_words(2, 2)));
  app.process_cpu(job.chunk);

  net::PacketView view;
  auto pkt = job.chunk.packet(0);
  ASSERT_EQ(net::parse_packet(pkt.data(), static_cast<u32>(pkt.size()), view),
            net::ParseStatus::kOk);
  EXPECT_EQ(view.ipv6().hop_limit, 29);
  EXPECT_EQ(job.chunk.out_port(0), 2);
}

TEST(Ipv6ForwardApp, GatherScatterAcrossMultipleJobs) {
  // Several chunks shaded in one batch must each get their own results.
  const auto rib = route::generate_ipv6_rib(5000, 8, 9);
  route::Ipv6Fib fib;
  for (const auto& p : rib) fib.announce(p);
  fib.commit();
  DynamicIpv6ForwardApp app(fib);
  GpuHarness gpu;
  app.bind_gpu(gpu.device);

  gen::TrafficGen traffic({.kind = gen::TrafficKind::kIpv6Udp, .frame_size = 78, .seed = 10});
  std::vector<std::unique_ptr<core::ShaderJob>> jobs;
  std::vector<core::ShaderJob*> ptrs;
  for (int j = 0; j < 4; ++j) {
    jobs.push_back(std::make_unique<core::ShaderJob>(32));
    for (int i = 0; i < 32; ++i) jobs.back()->chunk.append(traffic.next_frame());
    app.pre_shade(*jobs.back());
    ptrs.push_back(jobs.back().get());
  }
  app.shade(gpu.ctx, {ptrs.data(), ptrs.size()});

  for (auto& job : jobs) {
    app.post_shade(*job);
    // Verify each packet against a direct CPU lookup.
    for (u32 k = 0; k < job->gpu_items; ++k) {
      const u32 i = job->gpu_index[k];
      auto pkt = job->chunk.packet(i);
      net::PacketView view;
      ASSERT_EQ(net::parse_packet(pkt.data(), static_cast<u32>(pkt.size()), view),
                net::ParseStatus::kOk);
      const auto expected = fib.snapshot()->lookup(view.ipv6().dst());
      if (expected == route::kNoRoute) {
        EXPECT_EQ(job->chunk.verdict(i), iengine::PacketVerdict::kDrop);
      } else {
        EXPECT_EQ(job->chunk.out_port(i), static_cast<i16>(expected));
      }
    }
  }
}

TEST(Ipv4ForwardApp, StreamedShadingProducesSameResults) {
  const auto rib = route::generate_ipv4_rib({.prefix_count = 5000, .num_next_hops = 8, .seed = 11});
  route::Ipv4Fib fib;
  for (const auto& p : rib) fib.announce(p);
  fib.commit();
  DynamicIpv4ForwardApp app(fib);

  GpuHarness gpu;
  gpu.ctx.streams.push_back(gpu.device.create_stream());
  gpu.ctx.streams.push_back(gpu.device.create_stream());
  app.bind_gpu(gpu.device);

  gen::TrafficGen traffic({.seed = 12});
  std::vector<std::unique_ptr<core::ShaderJob>> jobs;
  std::vector<core::ShaderJob*> ptrs;
  for (int j = 0; j < 3; ++j) {
    jobs.push_back(std::make_unique<core::ShaderJob>(64));
    for (int i = 0; i < 64; ++i) jobs.back()->chunk.append(traffic.next_frame());
    app.pre_shade(*jobs.back());
    ptrs.push_back(jobs.back().get());
  }
  app.shade(gpu.ctx, {ptrs.data(), ptrs.size()});

  for (auto& job : jobs) {
    app.post_shade(*job);
    for (u32 k = 0; k < job->gpu_items; ++k) {
      const u32 i = job->gpu_index[k];
      auto pkt = job->chunk.packet(i);
      net::PacketView view;
      ASSERT_EQ(net::parse_packet(pkt.data(), static_cast<u32>(pkt.size()), view),
                net::ParseStatus::kOk);
      const auto expected = fib.snapshot()->lookup(view.ipv4().dst());
      if (expected == route::kNoRoute) {
        EXPECT_EQ(job->chunk.verdict(i), iengine::PacketVerdict::kDrop);
      } else {
        EXPECT_EQ(job->chunk.out_port(i), static_cast<i16>(expected));
      }
    }
  }
}

}  // namespace
}  // namespace ps::apps
