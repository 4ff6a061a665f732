// Multi-protocol composition (section 7): IPv4 + IPv6 (+ IPsec) active on
// one router, packets dispatched by ethertype, per-flow order preserved
// through split/reassembly, and concurrent child kernels via streams.
#include <gtest/gtest.h>

#include "apps/dynamic_ipv4.hpp"
#include "apps/dynamic_ipv6.hpp"
#include "apps/ipsec_gateway.hpp"
#include "apps/multi_app.hpp"
#include "core/model_driver.hpp"
#include "core/testbed.hpp"
#include "gen/traffic.hpp"
#include "route/rib_gen.hpp"

namespace ps::apps {
namespace {

struct DualStackFixture {
  route::Ipv4Fib v4_fib;
  route::Ipv6Fib v6_fib;
  DynamicIpv4ForwardApp v4{v4_fib};
  DynamicIpv6ForwardApp v6{v6_fib};
  MultiProtocolApp multi;

  DualStackFixture() {
    v4_fib.announce({net::Ipv4Addr(0), 0, 2});
    v4_fib.commit();
    v6_fib.announce({net::Ipv6Addr{}, 0, 5});
    v6_fib.commit();
    multi.add_protocol(net::EtherType::kIpv4, &v4);
    multi.add_protocol(net::EtherType::kIpv6, &v6);
  }
};

struct GpuHarness {
  pcie::Topology topo = pcie::Topology::paper_server();
  gpu::GpuDevice device{0, topo, std::make_shared<gpu::SimtExecutor>(2u)};
  core::GpuContext ctx{&device, {gpu::kDefaultStream}};
};

TEST(MultiProtocolApp, CpuPathDispatchesByEthertype) {
  DualStackFixture fx;
  gen::TrafficGen v4_traffic({.kind = gen::TrafficKind::kIpv4Udp, .seed = 60});
  gen::TrafficGen v6_traffic({.kind = gen::TrafficKind::kIpv6Udp, .frame_size = 78, .seed = 61});

  core::ShaderJob job(8);
  job.chunk.append(v4_traffic.next_frame());
  job.chunk.append(v6_traffic.next_frame());
  job.chunk.append(v4_traffic.next_frame());
  fx.multi.process_cpu(job.chunk);

  ASSERT_EQ(job.chunk.count(), 3u);
  EXPECT_EQ(job.chunk.out_port(0), 2);  // IPv4 route
  EXPECT_EQ(job.chunk.out_port(1), 5);  // IPv6 route
  EXPECT_EQ(job.chunk.out_port(2), 2);
}

TEST(MultiProtocolApp, UnknownProtocolGoesToSlowPath) {
  DualStackFixture fx;
  auto arp = net::build_udp_ipv4({}, net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2));
  reinterpret_cast<net::EthernetHeader*>(arp.data())->set_ethertype(net::EtherType::kArp);

  core::ShaderJob job(4);
  job.chunk.append(arp);
  fx.multi.process_cpu(job.chunk);
  EXPECT_EQ(job.chunk.verdict(0), iengine::PacketVerdict::kSlowPath);
}

TEST(MultiProtocolApp, GpuPathMatchesCpuPathInterleaved) {
  DualStackFixture fx;
  GpuHarness gpu;
  fx.multi.bind_gpu(gpu.device);

  gen::TrafficGen v4_traffic({.kind = gen::TrafficKind::kIpv4Udp, .seed = 62});
  gen::TrafficGen v6_traffic({.kind = gen::TrafficKind::kIpv6Udp, .frame_size = 78, .seed = 63});

  core::ShaderJob gpu_job(64), cpu_job(64);
  for (int i = 0; i < 32; ++i) {
    const auto f4 = v4_traffic.next_frame();
    const auto f6 = v6_traffic.next_frame();
    gpu_job.chunk.append(f4);
    gpu_job.chunk.append(f6);
    cpu_job.chunk.append(f4);
    cpu_job.chunk.append(f6);
  }

  fx.multi.pre_shade(gpu_job);
  EXPECT_EQ(gpu_job.sub_jobs.size(), 2u);  // one sub-job per protocol
  core::ShaderJob* jobs[] = {&gpu_job};
  fx.multi.shade(gpu.ctx, {jobs, 1});
  fx.multi.post_shade(gpu_job);

  fx.multi.process_cpu(cpu_job.chunk);

  ASSERT_EQ(gpu_job.chunk.count(), cpu_job.chunk.count());
  for (u32 i = 0; i < cpu_job.chunk.count(); ++i) {
    EXPECT_EQ(gpu_job.chunk.verdict(i), cpu_job.chunk.verdict(i)) << i;
    EXPECT_EQ(gpu_job.chunk.out_port(i), cpu_job.chunk.out_port(i)) << i;
    // Reassembly preserved order: packet contents line up too.
    EXPECT_TRUE(std::equal(gpu_job.chunk.packet(i).begin(), gpu_job.chunk.packet(i).end(),
                           cpu_job.chunk.packet(i).begin()))
        << i;
  }
}

TEST(MultiProtocolApp, EachChildShadesOnItsOwnStream) {
  // Two streams in the context: the IPv4 child (first sub-job) gets
  // stream 0 and the IPv6 child the second stream, so their kernels can
  // run concurrently instead of serializing on stream 0.
  DualStackFixture fx;
  GpuHarness gpu;
  const gpu::StreamId second = gpu.device.create_stream();
  gpu.ctx.streams.push_back(second);
  fx.multi.bind_gpu(gpu.device);
  const Picos first_tail = gpu.device.stream_tail(gpu::kDefaultStream);
  ASSERT_EQ(gpu.device.stream_tail(second), 0);

  gen::TrafficGen v4_traffic({.kind = gen::TrafficKind::kIpv4Udp, .seed = 68});
  gen::TrafficGen v6_traffic({.kind = gen::TrafficKind::kIpv6Udp, .frame_size = 78, .seed = 69});
  core::ShaderJob job(8);
  job.chunk.append(v4_traffic.next_frame());
  job.chunk.append(v6_traffic.next_frame());
  fx.multi.pre_shade(job);
  ASSERT_EQ(job.sub_jobs.size(), 2u);
  ASSERT_EQ(job.sub_jobs[1].app, &fx.v6);
  core::ShaderJob* jobs[] = {&job};
  ASSERT_TRUE(fx.multi.shade(gpu.ctx, {jobs, 1}).ok());

  EXPECT_GT(gpu.device.stream_tail(gpu::kDefaultStream), first_tail);
  EXPECT_GT(gpu.device.stream_tail(second), 0);
  fx.multi.post_shade(job);
  EXPECT_EQ(job.chunk.out_port(0), 2);
  EXPECT_EQ(job.chunk.out_port(1), 5);
}

TEST(MultiProtocolApp, SizeChangingChildReassemblesInOrder) {
  // The ESP child resizes its packets; reassembly must still restore
  // original order.
  const auto sa = crypto::SecurityAssociation::make_test_sa(
      0x7777, net::Ipv4Addr(172, 16, 0, 1), net::Ipv4Addr(172, 16, 0, 2));
  IpsecGatewayApp ipsec(sa);

  MultiProtocolApp multi;
  multi.add_protocol(net::EtherType::kIpv4, &ipsec);

  gen::TrafficGen traffic({.frame_size = 128, .seed = 64});
  core::ShaderJob job(8);
  std::vector<std::size_t> original_sizes;
  for (int i = 0; i < 4; ++i) {
    auto f = traffic.next_frame();
    original_sizes.push_back(f.size());
    job.chunk.append(f);
  }
  job.chunk.in_port = 0;
  multi.process_cpu(job.chunk);

  ASSERT_EQ(job.chunk.count(), 4u);
  for (u32 i = 0; i < 4; ++i) {
    EXPECT_EQ(job.chunk.packet(i).size(),
              crypto::esp_output_frame_size(static_cast<u32>(original_sizes[i])));
    EXPECT_EQ(job.chunk.out_port(i), 1);  // in 0 -> out 1
  }
}

TEST(MultiProtocolApp, EndToEndDualStackModelRun) {
  const auto rib4 = route::generate_ipv4_rib({.prefix_count = 10'000, .num_next_hops = 8, .seed = 65});
  route::Ipv4Fib fib4;
  for (const auto& p : rib4) fib4.announce(p);
  fib4.commit();
  const auto rib6 = route::generate_ipv6_rib(10'000, 8, 66);
  route::Ipv6Fib fib6;
  for (const auto& p : rib6) fib6.announce(p);
  fib6.commit();
  DynamicIpv4ForwardApp v4(fib4);
  DynamicIpv6ForwardApp v6(fib6);
  MultiProtocolApp multi;
  multi.add_protocol(net::EtherType::kIpv4, &v4);
  multi.add_protocol(net::EtherType::kIpv6, &v6);

  core::Testbed testbed({.topo = pcie::Topology::paper_server(), .use_gpu = true, .ring_size = 4096},
                        core::RouterConfig{.use_gpu = true});
  gen::TrafficConfig tcfg{.kind = gen::TrafficKind::kIpv4Udp, .frame_size = 64, .seed = 67};
  tcfg.ipv4_dst_pool = route::sample_covered_ipv4(rib4, 8192);
  gen::TrafficGen traffic(tcfg);
  testbed.connect_sink(&traffic);

  core::ModelDriver driver(testbed, &multi, core::RouterConfig{.use_gpu = true});
  const auto result = driver.run(traffic, 20'000);
  EXPECT_EQ(result.forwarded, result.accepted);
  EXPECT_EQ(traffic.sunk_packets(), result.forwarded);
}

}  // namespace
}  // namespace ps::apps
