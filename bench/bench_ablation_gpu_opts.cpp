// Section 5.4 ablation: the three GPU-acceleration optimizations.
//  - gather/scatter (Figure 10(b)): shading many chunks per kernel launch
//    amortizes the launch overhead and exposes more parallelism; measured
//    as the GPU pipeline's packet capacity (work / device busy time);
//  - concurrent copy and execution (Figure 10(c)): multiple streams
//    overlap PCIe copies with kernels — they lift IPsec (heavy kernels,
//    big copies) but *hurt* lightweight kernels like IPv4 lookup because
//    every CUDA call gets more expensive. The paper enables streams only
//    for IPsec;
//  - chunk pipelining (Figure 10(a)) keeps workers busy while the master
//    shades; in the steady-state model it is what lets the system run at
//    the bottleneck resource's rate, so it is implicit in every number.
#include <cstdio>

#include "apps/dynamic_ipv4.hpp"
#include "apps/dynamic_ipv6.hpp"
#include "apps/ipsec_gateway.hpp"
#include "bench/bench_util.hpp"
#include "core/model_driver.hpp"
#include "route/rib_gen.hpp"

namespace {

using namespace ps;

struct GatherResult {
  double system_gbps;
  double gpu_capacity_mpps;  // forwarded / GPU-exec busy time, both GPUs
};

GatherResult run_ipv6_gather(route::Ipv6Fib& fib,
                             const std::vector<net::Ipv6Addr>& pool, u32 gather_max) {
  core::TestbedConfig cfg{.topo = pcie::Topology::paper_server(),
                          .use_gpu = true,
                          .ring_size = 4096};
  core::RouterConfig rcfg{.use_gpu = true, .gather_max = gather_max};
  core::Testbed testbed(cfg, rcfg);
  gen::TrafficConfig tcfg{.kind = gen::TrafficKind::kIpv6Udp, .frame_size = 64, .seed = 13};
  tcfg.ipv6_dst_pool = pool;
  gen::TrafficGen traffic(tcfg);
  testbed.connect_sink(&traffic);
  apps::DynamicIpv6ForwardApp app(fib);
  core::ModelDriver driver(testbed, &app, rcfg);
  const auto result = driver.run(traffic, 60'000);

  Picos gpu_busy = 0;
  for (u16 g = 0; g < 2; ++g) {
    gpu_busy += driver.ledger().busy({perf::ResourceKind::kGpuExec, g});
  }
  const double capacity =
      gpu_busy > 0 ? 2.0 * static_cast<double>(result.forwarded) / to_seconds(gpu_busy) / 1e6
                   : 0.0;
  return {result.input_gbps, capacity};
}

double run_ipv4_streams(route::Ipv4Fib& fib, const std::vector<u32>& pool,
                        u32 num_streams) {
  core::TestbedConfig cfg{.topo = pcie::Topology::paper_server(),
                          .use_gpu = true,
                          .ring_size = 4096};
  core::RouterConfig rcfg{.use_gpu = true, .gather_max = 8, .num_streams = num_streams};
  core::Testbed testbed(cfg, rcfg);
  gen::TrafficConfig tcfg{.frame_size = 64, .seed = 14};
  tcfg.ipv4_dst_pool = pool;
  gen::TrafficGen traffic(tcfg);
  testbed.connect_sink(&traffic);
  apps::DynamicIpv4ForwardApp app(fib);
  core::ModelDriver driver(testbed, &app, rcfg);
  return driver.run(traffic, 60'000).input_gbps;
}

double run_ipsec_streams(const crypto::SecurityAssociation& sa, u32 num_streams) {
  core::TestbedConfig cfg{.topo = pcie::Topology::paper_server(),
                          .use_gpu = true,
                          .ring_size = 4096};
  core::RouterConfig rcfg{.use_gpu = true, .gather_max = 8, .num_streams = num_streams};
  core::Testbed testbed(cfg, rcfg);
  gen::TrafficGen traffic({.frame_size = 1024, .seed = 15});
  testbed.connect_sink(&traffic);
  apps::IpsecGatewayApp app(sa);
  core::ModelDriver driver(testbed, &app, rcfg);
  return driver.run(traffic, 40'000).input_gbps;
}

}  // namespace

int main() {
  bench::print_header("Section 5.4 ablation", "GPU optimization strategies");

  const auto rib6 = route::generate_ipv6_rib(100'000, 8, 16);
  route::Ipv6Fib fib6;
  for (const auto& p : rib6) fib6.announce(p);
  fib6.commit();
  const auto pool6 = route::sample_covered_ipv6(rib6, 16384);

  const auto rib4 =
      route::generate_ipv4_rib({.prefix_count = 100'000, .num_next_hops = 8, .seed = 15});
  route::Ipv4Fib fib4;
  for (const auto& p : rib4) fib4.announce(p);
  fib4.commit();
  const auto pool4 = route::sample_covered_ipv4(rib4, 16384);

  const auto sa = crypto::SecurityAssociation::make_test_sa(
      0x2222, net::Ipv4Addr(172, 16, 0, 1), net::Ipv4Addr(172, 16, 0, 2));

  std::printf("--- gather/scatter (IPv6 forwarding, 64 B) ---\n");
  std::printf("%22s %14s %26s\n", "chunks per shading", "system Gbps", "GPU pipeline capacity");
  double cap1 = 0, cap8 = 0;
  for (const u32 gather : {1u, 2u, 4u, 8u}) {
    const auto r = run_ipv6_gather(fib6, pool6, gather);
    std::printf("%22u %14.1f %21.1f Mpps\n", gather, r.system_gbps, r.gpu_capacity_mpps);
    if (gather == 1) cap1 = r.gpu_capacity_mpps;
    if (gather == 8) cap8 = r.gpu_capacity_mpps;
  }

  std::printf("\n--- concurrent copy and execution (streams) ---\n");
  const double ipv4_serial = run_ipv4_streams(fib4, pool4, 1);
  const double ipv4_streams = run_ipv4_streams(fib4, pool4, 2);
  const double ipsec_serial = run_ipsec_streams(sa, 1);
  const double ipsec_streams = run_ipsec_streams(sa, 2);
  std::printf("%-42s %8.1f Gbps\n", "IPv4 (lightweight kernel), 1 stream", ipv4_serial);
  std::printf("%-42s %8.1f Gbps  <- streams hurt light kernels\n", "IPv4, 2 streams",
              ipv4_streams);
  std::printf("%-42s %8.1f Gbps\n", "IPsec (heavy kernel, 1024 B), 1 stream", ipsec_serial);
  std::printf("%-42s %8.1f Gbps  <- streams help heavy kernels\n", "IPsec, 2 streams",
              ipsec_streams);

  bench::print_comparisons({
      {"gather/scatter GPU-capacity gain (x, >1)", 2.0, cap8 / cap1},
      {"streams on lightweight IPv4 (x, <1 = hurts)", 0.9, ipv4_streams / ipv4_serial},
      {"streams on IPsec (x, >1 = helps)", 1.3, ipsec_streams / ipsec_serial},
  });
  return 0;
}
