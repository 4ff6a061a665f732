// Figure 11(a): IPv4 forwarding throughput vs packet size, CPU-only vs
// CPU+GPU, with a RouteViews-scale table (282,797 prefixes). Paper
// anchors: CPU+GPU ~39 Gbps @64 B and ~40 Gbps for all sizes; CPU-only
// ~28 Gbps @64 B.
#include <cstdio>
#include <cstring>

#include "apps/dynamic_ipv4.hpp"
#include "bench/bench_util.hpp"
#include "core/model_driver.hpp"
#include "integrity/integrity.hpp"
#include "route/rib_gen.hpp"

namespace {

ps::core::ModelResult run_shaped(ps::route::Ipv4Fib& fib,
                                 const std::vector<ps::u32>& dst_pool,
                                 ps::gen::TrafficConfig tcfg, bool use_gpu, bool batched,
                                 ps::u64 packets,
                                 ps::integrity::IntegrityChecker* checker = nullptr) {
  using namespace ps;
  core::TestbedConfig cfg{.topo = pcie::Topology::paper_server(),
                          .use_gpu = use_gpu,
                          .ring_size = 4096};
  core::RouterConfig rcfg{.use_gpu = use_gpu};
  core::Testbed testbed(cfg, rcfg);
  tcfg.ipv4_dst_pool = dst_pool;
  gen::TrafficGen traffic(tcfg);
  testbed.connect_sink(&traffic);
  apps::DynamicIpv4ForwardApp app(fib);
  app.set_batched_lookup(batched);
  core::ModelDriver driver(testbed, &app, rcfg);
  if (checker != nullptr) driver.set_integrity(checker);
  return driver.run(traffic, packets);
}

ps::core::ModelResult run_ipv4(ps::route::Ipv4Fib& fib,
                               const std::vector<ps::u32>& dst_pool, ps::u32 frame_size,
                               bool use_gpu, bool batched, ps::u64 packets,
                               ps::integrity::IntegrityChecker* checker = nullptr) {
  return run_shaped(fib, dst_pool, {.frame_size = frame_size, .seed = 7}, use_gpu, batched,
                    packets, checker);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ps;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const u64 packets = smoke ? 20'000 : 100'000;

  bench::print_header("Figure 11(a)", "IPv4 forwarding throughput vs packet size (Gbps)");
  bench::print_note("table: 282,797 synthetic prefixes matching the 2009 RouteViews histogram");

  const auto rib = route::generate_ipv4_rib({});  // paper-scale defaults
  route::Ipv4Fib fib;
  for (const auto& p : rib) fib.announce(p);
  fib.commit();
  // Destinations covered by the table, so the router forwards (not drops).
  const auto dst_pool = route::sample_covered_ipv4(rib, 65536);
  const auto table = fib.snapshot();
  std::printf("prefixes: %zu, >24-bit overflow chunks: %zu\n", table->prefix_count(),
              table->overflow_chunks());

  const std::vector<u32> sizes =
      smoke ? std::vector<u32>{64} : std::vector<u32>{64, 128, 256, 512, 1024, 1514};
  std::printf("\n%8s %12s %12s\n", "size", "CPU-only", "CPU+GPU");
  double gpu64 = 0, gpu_min = 1e9;
  for (const u32 size : sizes) {
    const double cpu = run_ipv4(fib, dst_pool, size, false, true, packets).input_gbps;
    const double gpu = run_ipv4(fib, dst_pool, size, true, true, packets).input_gbps;
    std::printf("%8u %12.1f %12.1f\n", size, cpu, gpu);
    if (size == 64) gpu64 = gpu;
    gpu_min = std::min(gpu_min, gpu);
  }

  // CPU-only 64 B ablation: the batched (prefetched, software-pipelined)
  // lookup path vs the scalar path it replaced. The scalar number is what
  // the pre-batching code produced, so the BENCH line carries both sides
  // of the regression gate's before/after pair.
  const auto scalar64 = run_ipv4(fib, dst_pool, 64, false, false, packets);
  const auto batch64 = run_ipv4(fib, dst_pool, 64, false, true, packets);
  std::printf("\nCPU-only 64 B ablation: scalar %.2f Mpps, batched %.2f Mpps (%.2fx)\n",
              scalar64.mpps, batch64.mpps, batch64.mpps / scalar64.mpps);

  // Integrity ablation (DESIGN.md §15): the same CPU-only batched run with
  // boundary stamping + default shadow sampling attached. 64 B is the
  // worst case — the per-packet CRC cost is fixed while the cycle budget
  // shrinks with frame size. The bench-smoke gate holds the retention
  // ratio at >= 0.95 (the <= 5% overhead acceptance bound).
  integrity::IntegrityChecker checker;  // default config
  const auto integ64 = run_ipv4(fib, dst_pool, 64, false, true, packets, &checker);
  const double retention = batch64.mpps > 0 ? integ64.mpps / batch64.mpps : 0.0;
  std::printf("CPU-only 64 B integrity ablation: off %.2f Mpps, on %.2f Mpps (retention %.3f)\n",
              batch64.mpps, integ64.mpps, retention);

  // Realistic load shapes (DESIGN.md §18), both on the CPU+GPU path: the
  // 7:4:1 IMIX frame-size mix, and 64 B frames whose flow popularity is
  // Zipf(1.0)-skewed across one million distinct flows (all destinations
  // still drawn from the covered pool, so every packet forwards). Both
  // are deterministic model metrics — imix_mpps / zipf1m_mpps are what
  // the nightly bench gate diffs.
  const auto imix = run_shaped(fib, dst_pool, {.seed = 7, .size_dist = gen::SizeDist::kImix},
                               true, true, packets);
  const auto zipf1m = run_shaped(fib, dst_pool,
                                 {.frame_size = 64,
                                  .seed = 7,
                                  .flow_count = 1'000'000,
                                  .flow_dist = gen::FlowDist::kZipf},
                                 true, true, packets);
  std::printf("CPU+GPU realistic shapes: IMIX %.2f Mpps (%.1f Gbps), Zipf-1M flows %.2f Mpps\n",
              imix.mpps, imix.input_gbps, zipf1m.mpps);

  telemetry::BenchLine line("fig11a_ipv4");
  line.field("frame_size", 64);
  line.fixed("cpu64_scalar_mpps", scalar64.mpps, 3);
  line.fixed("cpu64_batch_mpps", batch64.mpps, 3);
  line.fixed("cpu64_batch_speedup", batch64.mpps / scalar64.mpps, 3);
  line.fixed("cpu64_scalar_gbps", scalar64.input_gbps, 2);
  line.fixed("cpu64_batch_gbps", batch64.input_gbps, 2);
  line.fixed("cpu64_integrity_mpps", integ64.mpps, 3);
  line.fixed("integrity_retention", retention, 3);
  line.fixed("gpu64_gbps", gpu64, 2);
  line.fixed("imix_mpps", imix.mpps, 3);
  line.fixed("imix_gbps", imix.input_gbps, 2);
  line.fixed("zipf1m_mpps", zipf1m.mpps, 3);
  bench::emit_bench(line);

  bench::print_comparisons({
      {"CPU+GPU @64 B (Gbps)", 39.0, gpu64},
      {"CPU-only @64 B (Gbps, scalar lookup)", 28.0, scalar64.input_gbps},
      {"CPU+GPU minimum across sizes (Gbps)", 40.0, gpu_min},
  });
  return 0;
}
