// Section 7, "opportunistic offloading": use the CPU for low latency at
// light load and the GPU for throughput when loaded. The chunk size is
// the natural signal — light load produces small chunks.
//
// This bench sweeps offered load and shows (a) which path the threshold
// rule selects, (b) the resulting latency vs always-GPU, and (c) that the
// functional opportunistic router really shifts from cpu_processed to
// gpu_processed as chunks grow.
#include <cmath>
#include <cstdio>

#include "apps/dynamic_ipv6.hpp"
#include "bench/bench_util.hpp"
#include "core/model_driver.hpp"
#include "perf/calibration.hpp"
#include "perf/model.hpp"
#include "route/rib_gen.hpp"

namespace {

using namespace ps;

/// Chunk fill at a given offered load: packets arriving within one ~30 us
/// fetch interval per worker.
double chunk_fill(double offered_gbps) {
  const double pps = offered_gbps * 1e9 / (88.0 * 8.0);
  return std::clamp(pps / 6.0 * 30e-6, 1.0, 256.0);
}

/// GPU-path extra latency for a chunk of `n` packets (transfers + kernel +
/// master queueing), from the calibrated model.
double gpu_extra_us(double n) {
  const u32 items = static_cast<u32>(n * 3);
  const Picos h2d = perf::pcie_transfer_time(items * 16, perf::Direction::kHostToDevice);
  const Picos d2h = perf::pcie_transfer_time(items * 2, perf::Direction::kDeviceToHost);
  const Picos kernel = perf::gpu_kernel_time(
      std::max(items, 1u),
      {.instructions = 7 * perf::kGpuIpv6LookupInstrPerProbe, .mem_accesses = 7,
       .bytes_per_access = 48});
  return 2.2 * to_micros(h2d + kernel + d2h) + 90.0;
}

/// CPU-path extra latency: the chunk is processed in place by the worker.
double cpu_extra_us(double n) {
  return n * 7 * perf::kCpuIpv6LookupCyclesPerProbe / perf::kCpuHz * 1e6;
}

}  // namespace

int main() {
  bench::print_header("Section 7 ablation",
                      "opportunistic offloading: CPU at light load, GPU when busy");

  const u32 threshold = 64;  // packets per chunk
  std::printf("threshold: chunks below %u packets take the CPU path\n\n", threshold);
  std::printf("%12s %8s %12s %16s %16s\n", "load Gbps", "chunk", "path", "always-GPU (us)",
              "opportunistic");
  for (const double load : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 28.0}) {
    const double n = chunk_fill(load);
    const bool cpu = n < threshold;
    const double gpu_lat = gpu_extra_us(n);
    const double opp_lat = cpu ? cpu_extra_us(n) : gpu_lat;
    std::printf("%12.2f %8.0f %12s %16.0f %16.0f\n", load, n, cpu ? "CPU" : "GPU", gpu_lat,
                opp_lat);
  }

  // Functional check: the real router's opportunistic switch moves work
  // from cpu_processed to gpu_processed as the chunk fill crosses the
  // threshold (emulated by the model driver's saturated chunks vs a
  // threshold above/below the fill).
  const auto rib = route::generate_ipv6_rib(20'000, 8, 80);
  route::Ipv6Fib fib;
  for (const auto& p : rib) fib.announce(p);
  fib.commit();

  auto run_with_threshold = [&](u32 opp_threshold) {
    core::TestbedConfig cfg{.topo = pcie::Topology::paper_server(),
                            .use_gpu = true,
                            .ring_size = 4096};
    core::RouterConfig rcfg{.use_gpu = true, .opportunistic_threshold = opp_threshold};
    core::Testbed testbed(cfg, rcfg);
    gen::TrafficConfig tcfg{.kind = gen::TrafficKind::kIpv6Udp, .frame_size = 64, .seed = 81};
    tcfg.ipv6_dst_pool = route::sample_covered_ipv6(rib, 8192);
    gen::TrafficGen traffic(tcfg);
    testbed.connect_sink(&traffic);
    apps::DynamicIpv6ForwardApp app(fib);
    core::ModelDriver driver(testbed, &app, rcfg);
    return driver.run(traffic, 20'000);
  };

  // Saturated chunks are full (256): a threshold above that forces CPU,
  // below lets the GPU take them.
  const auto gpu_run = run_with_threshold(16);
  const auto cpu_run = run_with_threshold(10'000);
  std::printf("\nfunctional switch (saturated, chunk=256):\n");
  std::printf("  threshold 16     -> GPU path, %.1f Gbps\n", gpu_run.input_gbps);
  std::printf("  threshold 10000  -> CPU path, %.1f Gbps\n", cpu_run.input_gbps);

  bench::print_comparisons({
      {"GPU keeps throughput when loaded (x vs CPU)", 4.5,
       gpu_run.input_gbps / cpu_run.input_gbps},
      {"CPU path cheaper at light load (1=yes)", 1.0,
       cpu_extra_us(chunk_fill(0.5)) < gpu_extra_us(chunk_fill(0.5)) ? 1.0 : 0.0},
  });
  return 0;
}
