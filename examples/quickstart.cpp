// Quickstart: the smallest complete PacketShader setup.
//
// Builds a single-node testbed, installs three routes, pushes a handful of
// packets through the CPU forwarding path, and prints what happened.
// No GPU, no threads — just the public API end to end.
#include <cstdio>

#include "apps/dynamic_ipv4.hpp"
#include "core/model_driver.hpp"
#include "core/testbed.hpp"
#include "gen/traffic.hpp"

int main() {
  using namespace ps;
  std::printf("PacketShader quickstart\n=======================\n\n");

  // 1. A small machine: one NUMA node, four 10 GbE ports.
  core::TestbedConfig config;
  config.topo = pcie::Topology::single_node();
  config.use_gpu = false;
  core::Testbed testbed(config, core::RouterConfig{.use_gpu = false});

  // 2. A traffic generator wired to every port as source and sink.
  gen::TrafficGen traffic({.frame_size = 64, .seed = 1});
  testbed.connect_sink(&traffic);

  // 3. Three routes: two specific prefixes and a default. The FIB takes
  //    route changes at any time; a table that never changes is simply a
  //    FIB that is committed once.
  route::Ipv4Fib fib;
  fib.announce({net::Ipv4Addr::parse("10.0.0.0").value(), 8, /*next hop port*/ 1});
  fib.announce({net::Ipv4Addr::parse("192.168.0.0").value(), 16, 2});
  fib.announce({net::Ipv4Addr(0), 0, 3});  // default route
  fib.commit();
  std::printf("installed %zu routes (DIR-24-8: %zu overflow chunks)\n",
              fib.snapshot()->prefix_count(), fib.snapshot()->overflow_chunks());

  // 4. The IPv4 forwarding application on the CPU path.
  apps::DynamicIpv4ForwardApp app(fib);
  core::ModelDriver driver(testbed, &app, core::RouterConfig{.use_gpu = false});

  // 5. Push packets through and look at the results.
  const auto result = driver.run(traffic, 10'000);
  std::printf("\noffered   %llu packets\n", static_cast<unsigned long long>(result.offered));
  std::printf("forwarded %llu packets\n", static_cast<unsigned long long>(result.forwarded));
  std::printf("modeled throughput: %.1f Gbps (bottleneck: %s)\n", result.output_gbps,
              result.bottleneck.c_str());

  std::printf("\nper-port TX (everything matches the default route -> port 3,\n"
              "except 10/8 -> port 1 and 192.168/16 -> port 2):\n");
  for (int p = 0; p < testbed.topology().num_ports(); ++p) {
    std::printf("  port %d: %llu packets\n", p,
                static_cast<unsigned long long>(testbed.port(p).tx_totals().packets));
  }

  // 6. Route one hand-built packet and watch the TTL change.
  auto frame = net::build_udp_ipv4({}, net::Ipv4Addr(1, 2, 3, 4),
                                   net::Ipv4Addr::parse("10.9.9.9").value());
  core::ShaderJob job(4);
  job.chunk.append(frame);
  app.process_cpu(job.chunk);
  net::PacketView view;
  auto pkt = job.chunk.packet(0);
  (void)net::parse_packet(pkt.data(), static_cast<u32>(pkt.size()), view);
  std::printf("\nhand-built packet to 10.9.9.9: out port %d, TTL %u -> %u, checksum ok\n",
              job.chunk.out_port(0), 64, view.ipv4().ttl);
  return 0;
}
