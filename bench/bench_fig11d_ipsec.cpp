// Figure 11(d): IPsec gateway (ESP tunnel, AES-128-CTR + HMAC-SHA1)
// *input* throughput vs packet size, CPU-only vs CPU+GPU. Paper anchors:
// CPU+GPU 10.2 Gbps @64 B rising to 20.0 Gbps @1514 B; ~3.5x over
// CPU-only; RouteBricks does 1.9 Gbps @64 B (5x gap); two GPUs without
// packet I/O scale to 33 Gbps.
//
//   bench_fig11d_ipsec [--smoke]
//
// --smoke runs the 64 B and 1514 B rows only, at the full packet count,
// so its BENCH line carries the same model numbers as a full run.
#include <cstdio>
#include <cstring>

#include "apps/ipsec_gateway.hpp"
#include "bench/bench_util.hpp"
#include "core/model_driver.hpp"
#include "perf/model.hpp"

namespace {

using namespace ps;

double run_ipsec(const crypto::SecurityAssociation& sa, u32 frame_size, bool use_gpu) {
  core::TestbedConfig cfg{.topo = pcie::Topology::paper_server(),
                          .use_gpu = use_gpu,
                          .ring_size = 4096};
  // The paper applies the concurrent copy-and-execution streams only to
  // IPsec (section 5.4), so the GPU configuration uses two streams.
  core::RouterConfig rcfg{.use_gpu = use_gpu, .num_streams = use_gpu ? 2u : 1u};
  core::Testbed testbed(cfg, rcfg);
  gen::TrafficGen traffic({.frame_size = frame_size, .seed = 10});
  testbed.connect_sink(&traffic);

  apps::IpsecGatewayApp app(sa);
  core::ModelDriver driver(testbed, &app, rcfg);
  return driver.run(traffic, 40'000).input_gbps;
}

/// GPU-only crypto capacity (no packet I/O): the section 6.3 check that
/// two GTX480s sustain ~33 Gbps of AES+HMAC.
double gpu_only_crypto_gbps() {
  const u32 bytes_per_packet = 1514;
  const u32 cipher = crypto::esp_cipher_bytes(bytes_per_packet - 14);
  const u32 auth = cipher + 16;
  const double aes_blocks = (cipher + 15) / 16;
  const double sha_blocks = (64.0 + auth + 9 + 63) / 64 + 2;

  const perf::KernelCost aes{.instructions = perf::kGpuAesInstrPerBlock, .mem_accesses = 1.0};
  const perf::KernelCost sha{.instructions = sha_blocks * perf::kGpuSha1InstrPerBlock,
                             .mem_accesses = auth / 32.0};
  const u32 batch_packets = 4096;
  const Picos t_aes =
      perf::gpu_exec_time(static_cast<u32>(batch_packets * aes_blocks), aes);
  const Picos t_sha = perf::gpu_exec_time(batch_packets, sha);
  const double secs = to_seconds(t_aes + t_sha);
  // Two GPUs, input bits per packet on the wire.
  return 2.0 * batch_packets * wire_bytes(bytes_per_packet) * 8.0 / secs / 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  bench::print_header("Figure 11(d)", "IPsec gateway input throughput vs packet size (Gbps)");
  bench::print_note("ESP tunnel mode, AES-128-CTR + HMAC-SHA1-96, one SA");

  const auto sa = crypto::SecurityAssociation::make_test_sa(
      0x1111, net::Ipv4Addr(172, 16, 0, 1), net::Ipv4Addr(172, 16, 0, 2));

  std::printf("%8s %12s %12s %9s\n", "size", "CPU-only", "CPU+GPU", "speedup");
  const std::vector<u32> sizes = smoke ? std::vector<u32>{64, 1514}
                                       : std::vector<u32>{64, 128, 256, 512, 1024, 1514};
  double cpu64 = 0, gpu64 = 0, cpu1514 = 0, gpu1514 = 0;
  for (const u32 size : sizes) {
    const double cpu = run_ipsec(sa, size, false);
    const double gpu = run_ipsec(sa, size, true);
    std::printf("%8u %12.2f %12.2f %8.2fx\n", size, cpu, gpu, gpu / cpu);
    if (size == 64) {
      cpu64 = cpu;
      gpu64 = gpu;
    }
    if (size == 1514) {
      cpu1514 = cpu;
      gpu1514 = gpu;
    }
  }

  telemetry::BenchLine line("fig11d_ipsec");
  line.fixed("cpu64_gbps", cpu64, 2);
  line.fixed("gpu64_gbps", gpu64, 2);
  line.fixed("cpu1514_gbps", cpu1514, 2);
  line.fixed("gpu1514_gbps", gpu1514, 2);
  bench::emit_bench(line);

  const double gpu_only = gpu_only_crypto_gbps();
  std::printf("\ntwo GPUs, crypto only (no packet I/O): %.1f Gbps\n", gpu_only);

  bench::print_comparisons({
      {"CPU+GPU @64 B (Gbps)", 10.2, gpu64},
      {"CPU+GPU @1514 B (Gbps)", 20.0, gpu1514},
      {"GPU speedup @64 B", 3.5, gpu64 / cpu64},
      {"2-GPU crypto-only capacity (Gbps)", 33.0, gpu_only},
      {"speedup over RouteBricks (1.9 Gbps) @64 B", 5.0, gpu64 / 1.9},
  });
  return 0;
}
