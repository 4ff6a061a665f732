// Figure 2: IPv6 forwarding-table lookup throughput (no packet I/O) as a
// function of batch size — the paper's motivating example. GPU throughput
// grows with parallelism, crossing one quad-core X5550 around 320 packets
// and two around 640; at the peak one GTX480 is worth ~10 CPUs.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "gpu/device.hpp"
#include "perf/model.hpp"
#include "route/rib_gen.hpp"
#include "route/ipv6_table.hpp"

int main() {
  using namespace ps;
  bench::print_header("Figure 2", "IPv6 lookup throughput (Mpps) vs batch size, no packet I/O");
  bench::print_note("table: 200,000 random prefixes (paper section 6.2.2)");

  // Build the real table; its arrays are what the router uploads.
  const auto rib = route::generate_ipv6_rib(route::kPaperIpv6PrefixCount, 8, 2010);
  route::Ipv6Table table;
  table.build(rib);

  pcie::Topology topo = pcie::Topology::paper_server();
  gpu::GpuDevice device(0, topo, std::make_shared<gpu::SimtExecutor>());

  auto slots_buf = device.alloc(table.slots().size_bytes());
  device.memcpy_h2d(slots_buf, 0,
                    {reinterpret_cast<const u8*>(table.slots().data()),
                     table.slots().size_bytes()});
  auto offsets_buf = device.alloc(table.level_offsets().size_bytes());
  device.memcpy_h2d(offsets_buf, 0,
                    {reinterpret_cast<const u8*>(table.level_offsets().data()),
                     table.level_offsets().size_bytes()});
  auto masks_buf = device.alloc(table.level_masks().size_bytes());
  device.memcpy_h2d(masks_buf, 0,
                    {reinterpret_cast<const u8*>(table.level_masks().data()),
                     table.level_masks().size_bytes()});

  const double cpu1 = perf::cpu_lookup_only_rate(1, 7) / 1e6;
  const double cpu2 = perf::cpu_lookup_only_rate(2, 7) / 1e6;

  std::printf("%10s %14s %14s %14s\n", "batch", "GPU Mpps", "1x X5550", "2x X5550");

  Rng rng(99);
  double peak = 0;
  u32 cross1 = 0, cross2 = 0;
  const u32 batches[] = {32,   64,   128,  192,  256,   320,   384,   512,   640,
                         768,  1024, 2048, 4096, 8192,  16384, 32768, 65536, 131072};
  for (const u32 batch : batches) {
    // Random addresses, transferred to the device, looked up for real.
    std::vector<u64> addrs(batch * 2);
    for (auto& w : addrs) w = rng.next_u64();
    auto in_buf = device.alloc(addrs.size() * 8);
    auto out_buf = device.alloc(batch * 2);

    device.reset_timeline();
    const auto h2d = device.memcpy_h2d(
        in_buf, 0, {reinterpret_cast<const u8*>(addrs.data()), addrs.size() * 8});

    const auto* slots = slots_buf.as<const route::Ipv6Table::Slot>();
    const auto* offsets = offsets_buf.as<const u32>();
    const auto* masks = masks_buf.as<const u32>();
    const u64* in = in_buf.as<const u64>();
    u16* out = out_buf.as<u16>();
    const route::NextHop default_nh = table.default_route();

    gpu::KernelLaunch kernel{
        .threads = batch,
        .body =
            [=](gpu::ThreadCtx& ctx) {
              const u32 tid = ctx.thread_id();
              out[tid] = route::Ipv6Table::lookup_in_arrays(slots, offsets, masks, in[tid * 2],
                                                            in[tid * 2 + 1], default_nh);
            },
        .cost = {.instructions = 7 * perf::kGpuIpv6LookupInstrPerProbe,
                 .mem_accesses = 7.0,
                 .bytes_per_access = 48},
    };
    device.launch(kernel, gpu::kDefaultStream, h2d.end);

    std::vector<u8> results(batch * 2);
    const auto d2h = device.memcpy_d2h(results, out_buf, 0);

    const double mpps = static_cast<double>(batch) / to_seconds(d2h.end) / 1e6;
    std::printf("%10u %14.2f %14.2f %14.2f\n", batch, mpps, cpu1, cpu2);
    peak = std::max(peak, mpps);
    if (cross1 == 0 && mpps > cpu1) cross1 = batch;
    if (cross2 == 0 && mpps > cpu2) cross2 = batch;
  }

  bench::print_comparisons({
      {"GPU crosses 1x X5550 at batch", 320, static_cast<double>(cross1)},
      {"GPU crosses 2x X5550 at batch", 640, static_cast<double>(cross2)},
      {"peak GPU / one X5550 (paper: ~10x)", 10.0, peak / cpu1},
  });
  return 0;
}
