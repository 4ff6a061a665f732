// Figure 11(b): IPv6 forwarding throughput vs packet size, CPU-only vs
// CPU+GPU, 200,000 random prefixes. Paper anchors: CPU+GPU 38.2 Gbps
// @64 B vs CPU-only ~8 Gbps @64 B — the biggest GPU win, since every
// lookup costs seven dependent memory accesses.
//
//   bench_fig11b_ipv6 [--smoke]
//
// --smoke runs the 64 B row only, at the full packet count, so its BENCH
// line carries the same model numbers as a full run.
#include <cstdio>
#include <cstring>

#include "apps/dynamic_ipv6.hpp"
#include "bench/bench_util.hpp"
#include "core/model_driver.hpp"
#include "route/rib_gen.hpp"

namespace {

double run_ipv6(ps::route::Ipv6Fib& fib,
                const std::vector<ps::net::Ipv6Addr>& dst_pool, ps::u32 frame_size,
                bool use_gpu) {
  using namespace ps;
  core::TestbedConfig cfg{.topo = pcie::Topology::paper_server(),
                          .use_gpu = use_gpu,
                          .ring_size = 4096};
  core::RouterConfig rcfg{.use_gpu = use_gpu};
  core::Testbed testbed(cfg, rcfg);
  gen::TrafficConfig tcfg{.kind = gen::TrafficKind::kIpv6Udp, .frame_size = frame_size,
                          .seed = 8};
  tcfg.ipv6_dst_pool = dst_pool;
  gen::TrafficGen traffic(tcfg);
  testbed.connect_sink(&traffic);
  apps::DynamicIpv6ForwardApp app(fib);
  core::ModelDriver driver(testbed, &app, rcfg);
  return driver.run(traffic, 80'000).input_gbps;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ps;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  bench::print_header("Figure 11(b)", "IPv6 forwarding throughput vs packet size (Gbps)");
  bench::print_note("table: 200,000 random prefixes; lookup = binary search on prefix length");

  const auto rib = route::generate_ipv6_rib(route::kPaperIpv6PrefixCount, 8, 2010);
  route::Ipv6Fib fib;
  for (const auto& p : rib) fib.announce(p);
  fib.commit();
  const auto table = fib.snapshot();
  std::printf("prefixes: %zu, markers: %zu\n", table->prefix_count(), table->marker_count());
  const auto dst_pool = route::sample_covered_ipv6(rib, 65536);

  // IPv6/UDP frames need >= 62 B; 64 B is still the paper's smallest size.
  const std::vector<u32> sizes =
      smoke ? std::vector<u32>{64} : std::vector<u32>{64, 128, 256, 512, 1024, 1514};
  std::printf("\n%8s %12s %12s\n", "size", "CPU-only", "CPU+GPU");
  double cpu64 = 0, gpu64 = 0;
  for (const u32 size : sizes) {
    const double cpu = run_ipv6(fib, dst_pool, size, false);
    const double gpu = run_ipv6(fib, dst_pool, size, true);
    std::printf("%8u %12.1f %12.1f\n", size, cpu, gpu);
    if (size == 64) {
      cpu64 = cpu;
      gpu64 = gpu;
    }
  }

  telemetry::BenchLine line("fig11b_ipv6");
  line.field("frame_size", 64);
  line.fixed("cpu64_gbps", cpu64, 2);
  line.fixed("gpu64_gbps", gpu64, 2);
  bench::emit_bench(line);

  bench::print_comparisons({
      {"CPU+GPU @64 B (Gbps)", 38.2, gpu64},
      {"CPU-only @64 B (Gbps)", 8.0, cpu64},
      {"GPU speedup @64 B", 38.2 / 8.0, gpu64 / cpu64},
  });
  return 0;
}
