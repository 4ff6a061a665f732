// OpenFlow shader: CPU/GPU path equivalence, action semantics (output,
// drop, flood, controller), and precedence.
#include <gtest/gtest.h>

#include <set>

#include "apps/openflow_app.hpp"
#include "fault/fault_injector.hpp"
#include "gen/traffic.hpp"

namespace ps::apps {
namespace {

struct GpuHarness {
  pcie::Topology topo = pcie::Topology::paper_server();
  gpu::GpuDevice device{0, topo, std::make_shared<gpu::SimtExecutor>(2u)};
  core::GpuContext ctx{&device, {gpu::kDefaultStream}};
};

openflow::FlowKey key_of_frame(std::span<const u8> frame, u16 in_port) {
  net::PacketView view;
  EXPECT_EQ(net::parse_packet(const_cast<u8*>(frame.data()), static_cast<u32>(frame.size()),
                              view),
            net::ParseStatus::kOk);
  return openflow::extract_flow_key(view, in_port);
}

TEST(OpenFlowApp, GpuPathMatchesCpuPath) {
  openflow::OpenFlowSwitch sw;
  gen::TrafficGen traffic({.seed = 20, .flow_count = 64});

  // Install exact entries for half the flows and a wildcard catch-all for
  // UDP; the rest hit the default action.
  for (u32 flow = 0; flow < 32; ++flow) {
    const auto frame = traffic.frame_for_flow(flow);
    sw.exact().insert(key_of_frame(frame, 0), openflow::Action::output(static_cast<u16>(flow % 8)));
  }
  openflow::WildcardMatch udp_any;
  udp_any.wildcards = openflow::kWildAll & ~openflow::kWildNwProto;
  udp_any.key.nw_proto = 17;
  udp_any.priority = 10;
  sw.wildcard().insert(udp_any, openflow::Action::output(7));
  sw.set_default_action(openflow::Action::drop());

  OpenFlowApp app(sw);
  GpuHarness gpu;

  core::ShaderJob gpu_job(128), cpu_job(128);
  for (int i = 0; i < 128; ++i) {
    const auto frame = traffic.next_frame();
    gpu_job.chunk.append(frame);
    cpu_job.chunk.append(frame);
  }
  gpu_job.chunk.in_port = cpu_job.chunk.in_port = 0;

  app.bind_gpu(gpu.device);
  app.pre_shade(gpu_job);
  core::ShaderJob* jobs[] = {&gpu_job};
  app.shade(gpu.ctx, {jobs, 1});
  app.post_shade(gpu_job);

  app.process_cpu(cpu_job.chunk);

  ASSERT_EQ(gpu_job.chunk.count(), cpu_job.chunk.count());
  for (u32 i = 0; i < cpu_job.chunk.count(); ++i) {
    EXPECT_EQ(gpu_job.chunk.verdict(i), cpu_job.chunk.verdict(i)) << i;
    EXPECT_EQ(gpu_job.chunk.out_port(i), cpu_job.chunk.out_port(i)) << i;
  }
}

TEST(OpenFlowApp, FailedTableUploadFailsShadeUntilReloaded) {
  // The bind-time upload and the first batch's retry of it both fail: each
  // batch reports the failure until an upload at the start of a batch
  // lands, and then the device classifies like the CPU path.
  openflow::OpenFlowSwitch sw;
  gen::TrafficGen traffic({.seed = 27, .flow_count = 16});
  for (u32 flow = 0; flow < 8; ++flow) {
    sw.exact().insert(key_of_frame(traffic.frame_for_flow(flow), 0),
                      openflow::Action::output(static_cast<u16>(flow % 8)));
  }
  openflow::WildcardMatch udp_any;
  udp_any.wildcards = openflow::kWildAll & ~openflow::kWildNwProto;
  udp_any.key.nw_proto = 17;
  sw.wildcard().insert(udp_any, openflow::Action::output(7));
  sw.set_default_action(openflow::Action::drop());

  OpenFlowApp app(sw);
  GpuHarness gpu;
  fault::FaultInjector inj;
  gpu.device.set_fault_injector(&inj);
  inj.add_rule({.point = "gpu.copy", .after = 0, .count = 2});
  app.bind_gpu(gpu.device);

  core::ShaderJob gpu_job(32), cpu_job(32);
  for (int i = 0; i < 32; ++i) {
    const auto frame = traffic.next_frame();
    gpu_job.chunk.append(frame);
    cpu_job.chunk.append(frame);
  }
  gpu_job.chunk.in_port = cpu_job.chunk.in_port = 0;
  app.pre_shade(gpu_job);
  core::ShaderJob* jobs[] = {&gpu_job};
  EXPECT_EQ(app.shade(gpu.ctx, {jobs, 1}).status, gpu::GpuStatus::kCopyFailed);
  ASSERT_TRUE(app.shade(gpu.ctx, {jobs, 1}).ok());
  EXPECT_EQ(inj.stats("gpu.copy").fired, 2u);
  app.post_shade(gpu_job);
  app.process_cpu(cpu_job.chunk);

  ASSERT_EQ(gpu_job.chunk.count(), cpu_job.chunk.count());
  for (u32 i = 0; i < cpu_job.chunk.count(); ++i) {
    EXPECT_EQ(gpu_job.chunk.verdict(i), cpu_job.chunk.verdict(i)) << i;
    EXPECT_EQ(gpu_job.chunk.out_port(i), cpu_job.chunk.out_port(i)) << i;
  }
}

TEST(OpenFlowApp, ExactEntryTakesPrecedenceOverWildcard) {
  openflow::OpenFlowSwitch sw;
  gen::TrafficGen traffic({.seed = 21, .flow_count = 4});
  const auto frame = traffic.frame_for_flow(0);
  sw.exact().insert(key_of_frame(frame, 0), openflow::Action::output(2));

  openflow::WildcardMatch any;
  any.wildcards = openflow::kWildAll;
  any.priority = 65535;
  sw.wildcard().insert(any, openflow::Action::output(5));

  OpenFlowApp app(sw);
  core::ShaderJob job(4);
  job.chunk.append(frame);
  job.chunk.in_port = 0;
  app.process_cpu(job.chunk);
  EXPECT_EQ(job.chunk.out_port(0), 2);
}

TEST(OpenFlowApp, ControllerActionGoesToSlowPath) {
  openflow::OpenFlowSwitch sw;  // default action is kController
  OpenFlowApp app(sw);
  gen::TrafficGen traffic({.seed = 22});

  core::ShaderJob job(4);
  job.chunk.append(traffic.next_frame());
  job.chunk.in_port = 0;
  app.process_cpu(job.chunk);
  EXPECT_EQ(job.chunk.verdict(0), iengine::PacketVerdict::kSlowPath);
}

TEST(OpenFlowApp, FloodDuplicatesToAllOtherPorts) {
  openflow::OpenFlowSwitch sw;
  openflow::WildcardMatch any;
  any.wildcards = openflow::kWildAll;
  sw.wildcard().insert(any, openflow::Action::flood());

  OpenFlowApp app(sw);
  gen::TrafficGen traffic({.seed = 23});
  core::ShaderJob job(16);
  job.chunk.append(traffic.next_frame());
  job.chunk.in_port = 2;
  app.process_cpu(job.chunk);

  // Original + 6 clones = 7 copies, to every port except ingress 2.
  ASSERT_EQ(job.chunk.count(), 7u);
  std::set<i16> out_ports;
  for (u32 i = 0; i < job.chunk.count(); ++i) {
    EXPECT_EQ(job.chunk.verdict(i), iengine::PacketVerdict::kForward);
    out_ports.insert(job.chunk.out_port(i));
  }
  EXPECT_EQ(out_ports.size(), 7u);
  EXPECT_EQ(out_ports.count(2), 0u);
}

TEST(OpenFlowApp, GpuWildcardScanRespectsPriority) {
  openflow::OpenFlowSwitch sw;
  gen::TrafficGen traffic({.seed = 24, .flow_count = 1});
  const auto frame = traffic.frame_for_flow(0);

  // Two overlapping wildcard entries; higher priority must win on GPU too.
  openflow::WildcardMatch low;
  low.wildcards = openflow::kWildAll;
  low.priority = 1;
  sw.wildcard().insert(low, openflow::Action::output(1));
  openflow::WildcardMatch high;
  high.wildcards = openflow::kWildAll & ~openflow::kWildNwProto;
  high.key.nw_proto = 17;
  high.priority = 100;
  sw.wildcard().insert(high, openflow::Action::output(6));

  OpenFlowApp app(sw);
  GpuHarness gpu;
  app.bind_gpu(gpu.device);

  core::ShaderJob job(4);
  job.chunk.append(frame);
  job.chunk.in_port = 0;
  app.pre_shade(job);
  core::ShaderJob* jobs[] = {&job};
  app.shade(gpu.ctx, {jobs, 1});
  app.post_shade(job);
  EXPECT_EQ(job.chunk.out_port(0), 6);
}

TEST(OpenFlowApp, PerEntryCountersAdvanceOnCpuPath) {
  openflow::OpenFlowSwitch sw;
  gen::TrafficGen traffic({.seed = 25, .flow_count = 1});
  const auto frame = traffic.frame_for_flow(0);
  sw.exact().insert(key_of_frame(frame, 0), openflow::Action::output(0));

  OpenFlowApp app(sw);
  core::ShaderJob job(8);
  for (int i = 0; i < 8; ++i) job.chunk.append(frame);
  job.chunk.in_port = 0;
  app.process_cpu(job.chunk);

  u64 hits = 0;
  for (const auto& slot : sw.exact().slots()) {
    if (slot.occupied) hits += slot.stats.packets;
  }
  EXPECT_EQ(hits, 8u);
  EXPECT_EQ(sw.exact_hits(), 8u);
}


TEST(OpenFlowApp, L2RewriteActionsApplyOnCpuPath) {
  openflow::OpenFlowSwitch sw;
  gen::TrafficGen traffic({.seed = 26, .flow_count = 1});
  const auto frame = traffic.frame_for_flow(0);
  const auto new_src = net::MacAddr::for_port(42);
  const auto new_dst = net::MacAddr::for_port(43);
  sw.exact().insert(key_of_frame(frame, 0),
                    openflow::Action::output(3).with_dl_src(new_src).with_dl_dst(new_dst));

  OpenFlowApp app(sw);
  core::ShaderJob job(2);
  job.chunk.append(frame);
  job.chunk.in_port = 0;
  app.process_cpu(job.chunk);

  EXPECT_EQ(job.chunk.out_port(0), 3);
  net::PacketView view;
  auto pkt = job.chunk.packet(0);
  ASSERT_EQ(net::parse_packet(pkt.data(), static_cast<u32>(pkt.size()), view),
            net::ParseStatus::kOk);
  EXPECT_EQ(view.eth().src_mac(), new_src);
  EXPECT_EQ(view.eth().dst_mac(), new_dst);
}

TEST(OpenFlowApp, L2RewriteActionsApplyOnGpuPath) {
  // The GPU returns (table, index); the post-shader must resolve the full
  // action — including rewrites — from the host table.
  openflow::OpenFlowSwitch sw;
  gen::TrafficGen traffic({.seed = 27, .flow_count = 1});
  const auto frame = traffic.frame_for_flow(0);
  const auto new_dst = net::MacAddr::for_port(55);
  sw.exact().insert(key_of_frame(frame, 0),
                    openflow::Action::output(4).with_dl_dst(new_dst));

  OpenFlowApp app(sw);
  GpuHarness gpu;
  app.bind_gpu(gpu.device);

  core::ShaderJob job(2);
  job.chunk.append(frame);
  job.chunk.in_port = 0;
  app.pre_shade(job);
  core::ShaderJob* jobs[] = {&job};
  app.shade(gpu.ctx, {jobs, 1});
  app.post_shade(job);

  EXPECT_EQ(job.chunk.out_port(0), 4);
  net::PacketView view;
  auto pkt = job.chunk.packet(0);
  ASSERT_EQ(net::parse_packet(pkt.data(), static_cast<u32>(pkt.size()), view),
            net::ParseStatus::kOk);
  EXPECT_EQ(view.eth().dst_mac(), new_dst);
}

TEST(OpenFlowApp, GpuIndexResolvesWildcardEntryExactly) {
  // Two wildcard entries with identical actions except the rewrite: the
  // index-based result must pick the right entry, not just any match.
  openflow::OpenFlowSwitch sw;
  gen::TrafficGen traffic({.seed = 28, .flow_count = 2});
  const auto f0 = traffic.frame_for_flow(0);

  net::PacketView v0;
  ASSERT_EQ(net::parse_packet(const_cast<u8*>(f0.data()), static_cast<u32>(f0.size()), v0),
            net::ParseStatus::kOk);

  openflow::WildcardMatch specific;  // matches only flow 0's src address
  specific.wildcards = openflow::kWildAll;
  specific.nw_src_bits = 32;
  specific.key.nw_src = v0.ipv4().src().value;
  specific.priority = 100;
  sw.wildcard().insert(specific,
                       openflow::Action::output(1).with_dl_dst(net::MacAddr::for_port(77)));

  openflow::WildcardMatch catchall;
  catchall.wildcards = openflow::kWildAll;
  catchall.priority = 1;
  sw.wildcard().insert(catchall, openflow::Action::output(2));

  OpenFlowApp app(sw);
  GpuHarness gpu;
  app.bind_gpu(gpu.device);

  core::ShaderJob job(4);
  job.chunk.append(f0);                        // hits the specific entry
  job.chunk.append(traffic.frame_for_flow(1)); // falls to the catch-all
  job.chunk.in_port = 0;
  app.pre_shade(job);
  core::ShaderJob* jobs[] = {&job};
  app.shade(gpu.ctx, {jobs, 1});
  app.post_shade(job);

  EXPECT_EQ(job.chunk.out_port(0), 1);
  EXPECT_EQ(job.chunk.out_port(1), 2);
  net::PacketView after;
  auto pkt = job.chunk.packet(0);
  ASSERT_EQ(net::parse_packet(pkt.data(), static_cast<u32>(pkt.size()), after),
            net::ParseStatus::kOk);
  EXPECT_EQ(after.eth().dst_mac(), net::MacAddr::for_port(77));
}

}  // namespace
}  // namespace ps::apps
