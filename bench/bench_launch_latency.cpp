// Section 2.2 microbenchmark: GPU kernel launch latency vs thread count.
// Paper: 3.8 us for one thread, 4.1 us for 4096 — amortized per-thread
// launch cost vanishes with enough parallelism.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "gpu/device.hpp"

int main() {
  using namespace ps;
  bench::print_header("Section 2.2", "kernel launch latency vs number of threads");

  pcie::Topology topo = pcie::Topology::paper_server();
  gpu::GpuDevice device(0, topo, std::make_shared<gpu::SimtExecutor>(0u));

  std::printf("%10s %14s %20s\n", "threads", "latency (us)", "per-thread (ns)");
  double lat1 = 0, lat4096 = 0;
  for (const u32 threads : {1u, 32u, 256u, 1024u, 4096u, 16384u, 65536u}) {
    device.reset_timeline();
    // An empty kernel isolates launch cost (no compute / memory terms).
    gpu::KernelLaunch kernel{.threads = threads, .body = [](gpu::ThreadCtx&) {}, .cost = {}};
    const auto timing = device.launch(kernel);
    const double us = to_micros(timing.duration());
    std::printf("%10u %14.2f %20.3f\n", threads, us, us * 1000.0 / threads);
    if (threads == 1) lat1 = us;
    if (threads == 4096) lat4096 = us;
  }

  bench::print_comparisons({
      {"launch latency, 1 thread (us)", 3.8, lat1},
      {"launch latency, 4096 threads (us)", 4.1, lat4096},
  });
  return 0;
}
