// GPU/CPU differential: for every app, identical randomized chunks go
// through the GPU shading path (pre_shade -> shade -> post_shade) and the
// CPU fallback path the router uses when the device is sick or
// backpressured (pre_shade -> shade_cpu -> post_shade), and the results
// must be byte-identical — frames, verdicts, and output ports. The
// fallback is load-bearing (PR 1 routes every failed batch through it), so
// it is held to exact equivalence, not plausibility.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "apps/dynamic_ipv4.hpp"
#include "apps/dynamic_ipv6.hpp"
#include "apps/ipsec_gateway.hpp"
#include "apps/openflow_app.hpp"
#include "gen/traffic.hpp"
#include "route/rib_gen.hpp"

namespace ps::apps {
namespace {

struct GpuHarness {
  pcie::Topology topo = pcie::Topology::paper_server();
  // Inline execution (no pool threads): determinism is the point here,
  // and it keeps the test clean under TSan like the testbed default.
  gpu::GpuDevice device{0, topo, std::make_shared<gpu::SimtExecutor>(0u)};
  core::GpuContext ctx{&device, {gpu::kDefaultStream}};
};

constexpr u32 kChunkSizes[] = {1, 3, 64, 128};

void fill_identical(core::ShaderJob& a, core::ShaderJob& b, gen::TrafficGen& traffic, u32 n) {
  for (u32 i = 0; i < n; ++i) {
    const auto frame = traffic.next_frame();
    a.chunk.append(frame);
    b.chunk.append(frame);
  }
}

void expect_identical(const core::ShaderJob& gpu_job, const core::ShaderJob& cpu_job) {
  ASSERT_EQ(gpu_job.chunk.count(), cpu_job.chunk.count());
  for (u32 i = 0; i < gpu_job.chunk.count(); ++i) {
    EXPECT_EQ(gpu_job.chunk.verdict(i), cpu_job.chunk.verdict(i)) << "packet " << i;
    EXPECT_EQ(gpu_job.chunk.out_port(i), cpu_job.chunk.out_port(i)) << "packet " << i;
    const auto g = gpu_job.chunk.packet(i);
    const auto c = cpu_job.chunk.packet(i);
    ASSERT_EQ(g.size(), c.size()) << "packet " << i;
    EXPECT_TRUE(std::equal(g.begin(), g.end(), c.begin())) << "packet " << i << " bytes differ";
  }
}

/// Shade `gpu_job` on the device and `cpu_job` through the router's CPU
/// fallback (shade_cpu), then post-shade both. Chunks must be pre-filled
/// with identical packets and already pre-shaded.
void shade_both(core::Shader& gpu_app, core::Shader& cpu_app, GpuHarness& gpu,
                core::ShaderJob& gpu_job, core::ShaderJob& cpu_job) {
  core::ShaderJob* jobs[] = {&gpu_job};
  const core::ShadeOutcome outcome = gpu_app.shade(gpu.ctx, {jobs, 1});
  ASSERT_TRUE(outcome.ok());
  cpu_app.shade_cpu(cpu_job);
  gpu_app.post_shade(gpu_job);
  cpu_app.post_shade(cpu_job);
}

/// Append every packet's output port, so two generations' runs over the
/// same traffic can be told apart.
void record_ports(const core::ShaderJob& job, std::vector<i16>& ports) {
  for (u32 i = 0; i < job.chunk.count(); ++i) ports.push_back(job.chunk.out_port(i));
}

// The forwarding apps run each input twice: on the first FIB generation,
// then, after an announce/withdraw batch and commit(), on the second, with
// the GPU path reading the device copy its first batch re-uploaded.
TEST(GpuCpuDifferential, Ipv4Forward) {
  const auto rib =
      route::generate_ipv4_rib({.prefix_count = 30'000, .num_next_hops = 8, .seed = 101});
  route::Ipv4Fib fib;
  for (const auto& p : rib) fib.announce(p);
  fib.commit();
  DynamicIpv4ForwardApp app(fib);
  GpuHarness gpu;
  app.bind_gpu(gpu.device);

  std::vector<i16> ports[2];
  for (int generation = 0; generation < 2; ++generation) {
    SCOPED_TRACE("generation " + std::to_string(generation));
    if (generation == 1) {
      for (std::size_t i = 0; i < rib.size(); i += 3) fib.withdraw(rib[i]);
      fib.announce({net::Ipv4Addr(0), 0, 7});  // former misses now forward
      fib.commit();
    }
    u32 seed = 200;
    for (const u32 n : kChunkSizes) {
      SCOPED_TRACE("chunk size " + std::to_string(n));
      gen::TrafficGen traffic({.seed = seed++});
      core::ShaderJob gpu_job(n), cpu_job(n);
      fill_identical(gpu_job, cpu_job, traffic, n);
      app.pre_shade(gpu_job);
      app.pre_shade(cpu_job);
      shade_both(app, app, gpu, gpu_job, cpu_job);
      expect_identical(gpu_job, cpu_job);
      record_ports(gpu_job, ports[generation]);
    }
  }
  EXPECT_NE(ports[0], ports[1]) << "the second generation changed no tested route";
}

TEST(GpuCpuDifferential, Ipv6Forward) {
  const auto rib = route::generate_ipv6_rib(20'000, 8, 102);
  route::Ipv6Fib fib;
  for (const auto& p : rib) fib.announce(p);
  fib.commit();
  DynamicIpv6ForwardApp app(fib);
  GpuHarness gpu;
  app.bind_gpu(gpu.device);

  std::vector<i16> ports[2];
  for (int generation = 0; generation < 2; ++generation) {
    SCOPED_TRACE("generation " + std::to_string(generation));
    if (generation == 1) {
      for (std::size_t i = 0; i < rib.size(); i += 3) fib.withdraw(rib[i]);
      fib.announce({net::Ipv6Addr{}, 0, 7});  // former misses now forward
      fib.commit();
    }
    u32 seed = 300;
    for (const u32 n : kChunkSizes) {
      SCOPED_TRACE("chunk size " + std::to_string(n));
      gen::TrafficGen traffic(
          {.kind = gen::TrafficKind::kIpv6Udp, .frame_size = 78, .seed = seed++});
      core::ShaderJob gpu_job(n), cpu_job(n);
      fill_identical(gpu_job, cpu_job, traffic, n);
      app.pre_shade(gpu_job);
      app.pre_shade(cpu_job);
      shade_both(app, app, gpu, gpu_job, cpu_job);
      expect_identical(gpu_job, cpu_job);
      record_ports(gpu_job, ports[generation]);
    }
  }
  EXPECT_NE(ports[0], ports[1]) << "the second generation changed no tested route";
}

TEST(GpuCpuDifferential, OpenFlow) {
  openflow::OpenFlowSwitch sw;
  gen::TrafficGen setup({.seed = 103, .flow_count = 64});
  // Exact entries for half the flows, a UDP wildcard, and a drop default,
  // so the randomized traffic exercises all three match sources.
  for (u32 flow = 0; flow < 32; ++flow) {
    const auto frame = setup.frame_for_flow(flow);
    net::PacketView view;
    ASSERT_EQ(net::parse_packet(const_cast<u8*>(frame.data()), static_cast<u32>(frame.size()),
                                view),
              net::ParseStatus::kOk);
    sw.exact().insert(openflow::extract_flow_key(view, 0),
                      openflow::Action::output(static_cast<u16>(flow % 8)));
  }
  openflow::WildcardMatch udp_any;
  udp_any.wildcards = openflow::kWildAll & ~openflow::kWildNwProto;
  udp_any.key.nw_proto = 17;
  udp_any.priority = 10;
  sw.wildcard().insert(udp_any, openflow::Action::output(7));
  sw.set_default_action(openflow::Action::drop());

  OpenFlowApp app(sw);
  GpuHarness gpu;
  app.bind_gpu(gpu.device);

  u32 seed = 400;
  for (const u32 n : kChunkSizes) {
    SCOPED_TRACE("chunk size " + std::to_string(n));
    gen::TrafficGen traffic({.seed = seed++, .flow_count = 64});
    core::ShaderJob gpu_job(n), cpu_job(n);
    fill_identical(gpu_job, cpu_job, traffic, n);
    gpu_job.chunk.in_port = cpu_job.chunk.in_port = 0;
    app.pre_shade(gpu_job);
    app.pre_shade(cpu_job);
    shade_both(app, app, gpu, gpu_job, cpu_job);
    expect_identical(gpu_job, cpu_job);
  }
}

TEST(GpuCpuDifferential, IpsecGateway) {
  // pre_shade allocates ESP sequence numbers from the app's atomic, so two
  // pre_shades on ONE instance would diverge. Two instances over the same
  // SA allocate the same sequences for the same chunk order, and the IV is
  // derived deterministically from the sequence — so the two paths must
  // still produce byte-identical ESP frames.
  const auto sa = crypto::SecurityAssociation::make_test_sa(
      0x7777, net::Ipv4Addr(172, 16, 0, 1), net::Ipv4Addr(172, 16, 0, 2));
  IpsecGatewayApp gpu_app(sa);
  IpsecGatewayApp cpu_app(sa);
  GpuHarness gpu;
  gpu_app.bind_gpu(gpu.device);

  u32 seed = 500;
  for (const u32 n : kChunkSizes) {
    SCOPED_TRACE("chunk size " + std::to_string(n));
    gen::TrafficGen traffic({.frame_size = 128, .seed = seed++});
    core::ShaderJob gpu_job(n), cpu_job(n);
    fill_identical(gpu_job, cpu_job, traffic, n);
    gpu_job.chunk.in_port = cpu_job.chunk.in_port = 0;
    gpu_app.pre_shade(gpu_job);
    cpu_app.pre_shade(cpu_job);
    ASSERT_EQ(gpu_job.gpu_items, cpu_job.gpu_items);
    ASSERT_EQ(gpu_job.gpu_input.size(), cpu_job.gpu_input.size());
    ASSERT_TRUE(std::equal(gpu_job.gpu_input.begin(), gpu_job.gpu_input.end(),
                           cpu_job.gpu_input.begin()))
        << "pre-shade outputs diverged: sequence allocation is not in lockstep";
    shade_both(gpu_app, cpu_app, gpu, gpu_job, cpu_job);
    expect_identical(gpu_job, cpu_job);
  }
}

}  // namespace
}  // namespace ps::apps
