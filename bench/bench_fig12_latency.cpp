// Figure 12: average round-trip latency of IPv6 forwarding (64 B packets)
// over offered load, for three configurations:
//   (i)  CPU-only without batched I/O,
//   (ii) CPU-only with batching,
//   (iii) CPU+GPU with batching and parallelization.
//
// Paper observations reproduced here:
//  - latency is elevated at very low load by NIC interrupt moderation
//    (all configurations);
//  - batching *lowers* latency under load: the unbatched path pays a
//    per-packet interrupt/syscall round and saturates early, so queues
//    grow sooner;
//  - GPU acceleration adds transfer + input/output queueing delay but
//    stays in the 200-400 us band up to the generator's 28 Gbps limit.
//
// Latency is a stage walk on the model clock: moderation + chunk assembly
// + service (processor-shared over the worker cores) + GPU pipeline
// residence + M/D/1-style queueing against the configuration's capacity.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <thread>
#include <vector>

#include "apps/dynamic_ipv6.hpp"
#include "bench/bench_util.hpp"
#include "core/router.hpp"
#include "core/testbed.hpp"
#include "gen/traffic.hpp"
#include "perf/calibration.hpp"
#include "perf/model.hpp"
#include "telemetry/exporter.hpp"
#include "telemetry/tracer.hpp"

namespace {

using namespace ps;
using namespace std::chrono_literals;

struct Config {
  const char* name;
  bool batched;
  bool gpu;
  int workers;
  double capacity_gbps;  // saturation point of this configuration
};

double latency_us(const Config& cfg, double offered_gbps) {
  const double wire_bits = 88.0 * 8.0;
  const double pps = offered_gbps * 1e9 / wire_bits;
  const double per_worker_pps = pps / cfg.workers;

  double lat = 0.0;

  // Wire both ways plus generator turnaround.
  lat += 2.0 * to_micros(perf::port_wire_time(64)) + 8.0;

  // Interrupt moderation: the NIC holds interrupts while the engine
  // sleeps; the deeper the idle periods, the more of the timer a packet
  // eats. Same mechanism for every configuration (section 6.4).
  lat += to_micros(perf::kInterruptModerationDelay) * std::exp(-offered_gbps / 3.0);

  // Chunk assembly: the oldest packet of a chunk waits for the rest.
  const double batch =
      cfg.batched ? std::clamp(per_worker_pps * 30e-6, 1.0, 256.0) : 1.0;
  if (cfg.batched && batch > 1.0) lat += batch / per_worker_pps * 1e6 / 2.0;

  // Unbatched: every packet takes its own interrupt + mode-switch round.
  if (!cfg.batched) lat += 30.0;

  // Service: one chunk's CPU work, processor-shared across workers.
  const double per_packet_cycles = cfg.batched ? 1900.0 : 4200.0;
  const double chunk_service_us = batch * per_packet_cycles / perf::kCpuHz * 1e6;
  lat += chunk_service_us;

  // GPU pipeline residence: input queue, gathered copies, kernel, output
  // queue (Figure 9). Grows slowly with chunk size.
  if (cfg.gpu) {
    const u32 items = static_cast<u32>(batch * 3);  // gather across workers
    const Picos h2d = perf::pcie_transfer_time(items * 16, perf::Direction::kHostToDevice);
    const Picos d2h = perf::pcie_transfer_time(items * 2, perf::Direction::kDeviceToHost);
    const Picos kernel = perf::gpu_kernel_time(
        std::max(items, 1u),
        {.instructions = 7 * perf::kGpuIpv6LookupInstrPerProbe, .mem_accesses = 7,
         .bytes_per_access = 48});
    // Master input/output queues roughly double the device residence.
    lat += 2.2 * to_micros(h2d + kernel + d2h) + 90.0;
  }

  // Queueing toward saturation.
  const double rho = std::min(0.93, offered_gbps / cfg.capacity_gbps);
  lat += (chunk_service_us / cfg.workers + 2.0) * rho / (1.0 - rho);

  return lat;
}

/// Measured counterpart of the analytic walk: drive 64 B IPv6 traffic
/// through the real threaded router with the pipeline tracer enabled and
/// report the per-stage latency breakdown from the drained spans — the
/// stages are stamped by the router itself (PipelineTracer), not by
/// ad-hoc timers in this bench.
telemetry::StageBreakdown measure_stage_breakdown() {
  route::Ipv6Fib fib;
  fib.announce({net::Ipv6Addr{}, 0, 1});  // default route
  fib.commit();
  apps::DynamicIpv6ForwardApp app(fib);

  core::Testbed testbed({.topo = pcie::Topology::single_node(),
                         .use_gpu = true,
                         .ring_size = 4096,
                         .gpu_pool_workers = 0},
                        core::RouterConfig{.use_gpu = true});
  gen::TrafficGen traffic({.kind = gen::TrafficKind::kIpv6Udp, .frame_size = 78, .seed = 12});
  testbed.connect_sink(&traffic);

  core::RouterConfig config;
  config.use_gpu = true;
  config.chunk_capacity = 64;
  // Latency-leaning pipeline depth: fig12 is a latency figure, so the
  // router runs with the shallow pipeline a latency-sensitive operator
  // would deploy (fewer chunks resident per worker by Little's law). The
  // throughput benches keep the deeper default, which trades residence
  // time for overlap.
  config.pipeline_depth = 2;

  telemetry::PipelineTracer tracer(1u << 15);
  tracer.set_enabled(true);

  core::Router router(testbed.engine(), testbed.gpus(), app, config);
  router.set_tracer(&tracer);
  router.start();

  // Paced open-loop load: offer a burst, then yield the core for the
  // inter-burst gap. An unpaced offer loop spins whenever the rings are
  // full, and on a machine with fewer hardware threads than router
  // threads that spin steals cycles from the workers and inflates the
  // measured latency with generator-induced timesharing — the paper's
  // fig12 likewise measures below saturation, not under bufferbloat.
  u64 accepted = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - t0 < 400ms) {
    accepted += traffic.offer(testbed.ports(), 128);
    std::this_thread::sleep_for(200us);
  }
  // Drain-wait on total_stats() (single-writer atomics); audit()'s
  // job-pool scan is only race-free once the router is stopped.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto s = router.total_stats();
    if (s.packets_in == accepted &&
        s.packets_out + s.dropped() + s.slow_path == s.packets_in) {
      break;
    }
    std::this_thread::sleep_for(1ms);
  }
  router.stop();

  std::vector<telemetry::TraceSpan> spans;
  tracer.drain(spans);
  return telemetry::compute_stage_breakdown(spans);
}

}  // namespace

int main() {
  bench::print_header("Figure 12",
                      "average round-trip latency, IPv6 forwarding, 64 B packets (us)");
  bench::print_note("generator supports up to 28 Gbps, as in the paper");

  const Config configs[] = {
      {"CPU-only, no batching", false, false, 8, 3.4},
      {"CPU-only, batched", true, false, 8, 8.0},
      {"CPU+GPU, batched", true, true, 6, 33.0},
  };

  std::printf("%12s %22s %22s %22s\n", "load Gbps", configs[0].name, configs[1].name,
              configs[2].name);
  double gpu_min = 1e12, gpu_max = 0;
  bool batched_never_higher = true;
  for (const double load : {0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0}) {
    std::printf("%12.1f", load);
    double unbatched = -1, batched = -1;
    for (const auto& cfg : configs) {
      if (load > cfg.capacity_gbps * 0.96) {
        std::printf(" %22s", "saturated");
        continue;
      }
      const double lat = latency_us(cfg, load);
      std::printf(" %22.0f", lat);
      if (&cfg == &configs[0]) unbatched = lat;
      if (&cfg == &configs[1]) batched = lat;
      if (&cfg == &configs[2]) {
        gpu_min = std::min(gpu_min, lat);
        gpu_max = std::max(gpu_max, lat);
      }
    }
    if (unbatched > 0 && batched > 0 && batched > unbatched) batched_never_higher = false;
    std::printf("\n");
  }

  bench::print_comparisons({
      {"CPU+GPU latency range low end (us)", 200.0, gpu_min},
      {"CPU+GPU latency range high end (us)", 400.0, gpu_max},
      {"batched <= unbatched wherever both run (1=yes)", 1.0,
       batched_never_higher ? 1.0 : 0.0},
  });

  bench::print_note("measured run: real threaded router, tracer-stamped stage boundaries");
  const auto breakdown = measure_stage_breakdown();
  telemetry::Exporter exporter(std::cout);
  exporter.print_stage_breakdown(breakdown, "per-stage latency (measured, CPU+GPU batched)");

  telemetry::BenchLine line("fig12_stage_breakdown");
  line.field("spans", breakdown.spans).fixed("end_to_end_mean_us", breakdown.total_mean_us, 2);
  line.array("stages");
  for (std::size_t i = 1; i < telemetry::kNumStages; ++i) {
    if (breakdown.samples[i] == 0) continue;
    line.object()
        .field("stage", std::string(telemetry::to_string(static_cast<telemetry::Stage>(i))))
        .fixed("mean_us", breakdown.mean_us[i], 2)
        .field("samples", breakdown.samples[i])
        .end();
  }
  line.end();
  bench::emit_bench(line);
  return 0;
}
