// The everything-on example: a dual-stack router with live control plane,
// GPU offload, and a slow-path host stack — the section 7 extensions
// working together on the real threaded runtime.
//
//  - IPv4 and IPv6 via the FIB-backed forwarding apps, composed with
//    MultiProtocolApp: routes come from an Ipv4Fib / Ipv6Fib; we re-route
//    IPv4 mid-run and the change takes effect without stopping, while the
//    IPv6 FIB is committed once and never updated (a static table);
//  - TTL-expired packets answered with real ICMP Time Exceeded replies;
//  - the liveness layer at work: a worker thread is wedged mid-run by a
//    fault point, the heartbeat supervisor detects it, a peer adopts its
//    NIC queues, and the packet-conservation audit still balances.
#include <chrono>
#include <cstdio>
#include <thread>

#include "apps/dynamic_ipv4.hpp"
#include "apps/dynamic_ipv6.hpp"
#include "apps/multi_app.hpp"
#include "core/router.hpp"
#include "core/testbed.hpp"
#include "fault/fault_injector.hpp"
#include "gen/traffic.hpp"
#include "route/rib_gen.hpp"
#include "slowpath/host_stack.hpp"

int main() {
  using namespace ps;
  using namespace std::chrono_literals;
  std::printf("PacketShader full router: dual stack + live FIB + slow path\n");
  std::printf("===========================================================\n\n");

  // Control plane: an IPv4 FIB we will edit while traffic flows.
  route::Ipv4Fib fib;
  fib.announce({net::Ipv4Addr(0), 0, 1});  // default -> port 1
  fib.commit();
  apps::DynamicIpv4ForwardApp v4(fib);

  // IPv6 routes: a FIB committed once and never updated again.
  route::Ipv6Fib fib6;
  const auto rib6 = route::generate_ipv6_rib(20'000, 8, 123);
  for (const auto& p : rib6) fib6.announce(p);
  fib6.commit();
  apps::DynamicIpv6ForwardApp v6(fib6);

  apps::MultiProtocolApp multi;
  multi.add_protocol(net::EtherType::kIpv4, &v4);
  multi.add_protocol(net::EtherType::kIpv6, &v6);

  // The machine, the host stack, the router.
  core::Testbed testbed({.topo = pcie::Topology::paper_server(), .gpu_pool_workers = 4},
                        core::RouterConfig{});
  gen::TrafficGen sink({.seed = 1});
  testbed.connect_sink(&sink);

  slowpath::HostStack host_stack(net::Ipv4Addr(192, 0, 2, 1));
  core::RouterConfig config;
  // Overload control (README "Tuning" section): keep the defaults for the
  // watermarks, budget the slow path explicitly.
  config.slowpath_admission = {.rate_pps = 50'000, .burst = 512, .queue_capacity = 2048};
  core::Router router(testbed.engine(), testbed.gpus(), multi, config);
  router.set_host_stack(&host_stack);

  // Liveness demo: the 200th worker-loop iteration parks its thread, as a
  // wedged thread would. Nobody restarts it by hand — watch the supervisor.
  fault::FaultInjector inj(/*seed=*/42);
  inj.add_rule({.point = std::string(fault::Point::kWorkerHang), .after = 200, .count = 1});
  router.set_fault_injector(&inj);

  router.start();
  std::printf("router up: %d workers + 2 masters, host stack at 192.0.2.1\n\n",
              router.num_workers());

  // Phase 1: IPv4 traffic rides the default route to port 1.
  gen::TrafficGen v4_traffic({.kind = gen::TrafficKind::kIpv4Udp, .seed = 2});
  v4_traffic.offer(testbed.ports(), 5000);
  std::this_thread::sleep_for(200ms);
  std::printf("phase 1: 5000 IPv4 packets -> port 1 saw %llu\n",
              static_cast<unsigned long long>(sink.sunk_on_port(1)));

  // Control-plane event: re-route the default to port 6, live. Each master
  // uploads the new generation to its GPU before its next batch.
  fib.announce({net::Ipv4Addr(0), 0, 6});
  fib.commit();
  std::printf("control plane: default route moved to port 6 (generation %llu)\n",
              static_cast<unsigned long long>(fib.generation()));

  v4_traffic.offer(testbed.ports(), 5000);
  std::this_thread::sleep_for(200ms);
  std::printf("phase 2: 5000 more  -> port 6 saw %llu\n\n",
              static_cast<unsigned long long>(sink.sunk_on_port(6)));

  // IPv6 alongside (dual stack through the same router), destinations
  // drawn from the table so they forward.
  gen::TrafficConfig v6cfg{.kind = gen::TrafficKind::kIpv6Udp, .frame_size = 78, .seed = 3};
  v6cfg.ipv6_dst_pool = route::sample_covered_ipv6(rib6, 4096);
  gen::TrafficGen v6_traffic(v6cfg);
  const u64 sunk_before_v6 = sink.sunk_packets();
  v6_traffic.offer(testbed.ports(), 2000);
  std::this_thread::sleep_for(200ms);
  std::printf("dual stack: 2000 IPv6 packets forwarded alongside (%llu sunk)\n",
              static_cast<unsigned long long>(sink.sunk_packets() - sunk_before_v6));

  // A dying packet: the host stack answers with ICMP.
  net::FrameSpec dying;
  dying.ttl = 1;
  testbed.port(2).receive_frame(
      net::build_udp_ipv4(dying, net::Ipv4Addr(10, 0, 0, 7), net::Ipv4Addr(20, 0, 0, 1)));
  std::this_thread::sleep_for(200ms);

  // The hang fired somewhere in the middle of all that. Report what the
  // supervisor saw before stopping.
  const auto& sup = router.supervisor();
  std::printf("\nsupervisor: %llu stall(s) detected, %llu recovered",
              static_cast<unsigned long long>(sup.stalls_detected()),
              static_cast<unsigned long long>(sup.recoveries()));
  for (const auto& ev : sup.stall_events()) {
    std::printf("  [%s silent %lld ms, queues adopted by a peer]", ev.name.c_str(),
                static_cast<long long>(
                    std::chrono::duration_cast<std::chrono::milliseconds>(ev.silent_for).count()));
  }
  std::printf("\n");

  router.stop();

  const auto stats = router.total_stats();
  std::printf("totals: %llu in, %llu out, %llu slow-path\n",
              static_cast<unsigned long long>(stats.packets_in),
              static_cast<unsigned long long>(stats.packets_out),
              static_cast<unsigned long long>(stats.slow_path));
  std::printf("host stack: %llu ICMP time-exceeded sent, %llu delivered locally\n",
              static_cast<unsigned long long>(host_stack.stats().icmp_time_exceeded),
              static_cast<unsigned long long>(host_stack.stats().delivered_locally));
  std::printf("drops by reason:");
  if (stats.dropped() == 0) std::printf(" none");
  std::printf("\n");
  for (std::size_t r = 0; r < iengine::kNumDropReasons; ++r) {
    if (stats.drops_by_reason[r] == 0) continue;
    std::printf("  %-12s %llu\n", iengine::to_string(static_cast<iengine::DropReason>(r)),
                static_cast<unsigned long long>(stats.drops_by_reason[r]));
  }

  const auto audit = router.audit();
  std::printf("conservation: rx %llu == tx %llu + drops %llu + slow-path %llu (%s)\n",
              static_cast<unsigned long long>(audit.rx),
              static_cast<unsigned long long>(audit.tx),
              static_cast<unsigned long long>(audit.dropped),
              static_cast<unsigned long long>(audit.slow_path),
              audit.balanced() ? "balanced" : "VIOLATED");
  return audit.balanced() ? 0 : 1;
}
