// A full 8-port GPU-accelerated IPv4 router on the paper's server:
// RouteViews-scale table, real worker/master threads, GPU offload, live
// counters. This is the headline configuration of Figure 11(a), run
// functionally with the real multithreaded runtime.
#include <chrono>
#include <cstdio>
#include <thread>

#include "apps/dynamic_ipv4.hpp"
#include "core/router.hpp"
#include "core/testbed.hpp"
#include "gen/traffic.hpp"
#include "route/rib_gen.hpp"

int main() {
  using namespace ps;
  using namespace std::chrono_literals;
  std::printf("PacketShader IPv4 router (8 ports, 2 GPUs, worker/master threads)\n");
  std::printf("=================================================================\n\n");

  // RouteViews-scale synthetic RIB (282,797 prefixes).
  std::printf("building forwarding table...\n");
  const auto rib = route::generate_ipv4_rib({});
  route::Ipv4Fib fib;
  for (const auto& p : rib) fib.announce(p);
  fib.commit();
  std::printf("  %zu prefixes, %zu >24-bit overflow chunks\n\n", fib.snapshot()->prefix_count(),
              fib.snapshot()->overflow_chunks());

  core::TestbedConfig config;
  config.topo = pcie::Topology::paper_server();
  config.gpu_pool_workers = 4;  // real host parallelism for the SIMT executor
  core::Testbed testbed(config, core::RouterConfig{});

  gen::TrafficConfig tcfg{.frame_size = 64, .seed = 99};
  tcfg.ipv4_dst_pool = route::sample_covered_ipv4(rib, 65536);
  gen::TrafficGen traffic(tcfg);
  testbed.connect_sink(&traffic);

  apps::DynamicIpv4ForwardApp app(fib);
  core::RouterConfig router_config;
  router_config.pipeline_depth = 4;
  router_config.gather_max = 8;
  core::Router router(testbed.engine(), testbed.gpus(), app, router_config);

  std::printf("starting %d workers + 2 masters...\n", router.num_workers());
  router.start();

  // Offer traffic in bursts and print live counters.
  const u64 burst = 20'000;
  for (int round = 1; round <= 5; ++round) {
    traffic.offer(testbed.ports(), burst);
    std::this_thread::sleep_for(100ms);
    const auto stats = router.total_stats();
    std::printf("  round %d: in=%llu out=%llu gpu=%llu drop=%llu slow=%llu\n", round,
                static_cast<unsigned long long>(stats.packets_in),
                static_cast<unsigned long long>(stats.packets_out),
                static_cast<unsigned long long>(stats.gpu_processed),
                static_cast<unsigned long long>(stats.dropped()),
                static_cast<unsigned long long>(stats.slow_path));
  }

  // Drain and stop.
  std::this_thread::sleep_for(300ms);
  router.stop();

  const auto stats = router.total_stats();
  std::printf("\nfinal: %llu in, %llu out, %llu via GPU\n",
              static_cast<unsigned long long>(stats.packets_in),
              static_cast<unsigned long long>(stats.packets_out),
              static_cast<unsigned long long>(stats.gpu_processed));
  if (stats.dropped() > 0) {
    std::printf("drops by reason:\n");
    for (std::size_t r = 0; r < iengine::kNumDropReasons; ++r) {
      if (stats.drops_by_reason[r] == 0) continue;
      std::printf("  %-12s %llu\n", iengine::to_string(static_cast<iengine::DropReason>(r)),
                  static_cast<unsigned long long>(stats.drops_by_reason[r]));
    }
  }
  std::printf("per-port egress distribution (next hops spread over 8 ports):\n");
  for (int p = 0; p < 8; ++p) {
    std::printf("  port %d: %llu\n", p,
                static_cast<unsigned long long>(traffic.sunk_on_port(p)));
  }
  return 0;
}
