// Supervisor chaos: deterministic hung-thread fault points park a worker
// or a master mid-run. The heartbeat supervisor must detect the stall
// within its bounded window, recover the thread (quarantine + kick for a
// worker, re-kick for a master), and the run must end with zero
// unaccounted packets.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <thread>

#include "apps/dynamic_ipv4.hpp"
#include "core/router.hpp"
#include "core/testbed.hpp"
#include "fault/fault_injector.hpp"
#include "gen/traffic.hpp"

namespace ps {
namespace {

using namespace std::chrono_literals;

bool wait_for(const std::function<bool()>& cond, std::chrono::milliseconds timeout = 20000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return cond();
}

std::unique_ptr<route::Ipv4Fib> default_route_fib(route::NextHop out_port) {
  auto fib = std::make_unique<route::Ipv4Fib>();
  fib->announce({net::Ipv4Addr(0), 0, out_port});
  fib->commit();
  return fib;
}

TEST(SupervisorChaos, WorkerHangIsDetectedQuarantinedAndRecovered) {
  const auto fib = default_route_fib(1);
  apps::DynamicIpv4ForwardApp app(*fib);

  core::Testbed testbed({.topo = pcie::Topology::single_node(),
                         .use_gpu = true,
                         .ring_size = 4096,
                         .gpu_pool_workers = 0},
                        core::RouterConfig{.use_gpu = true});
  gen::TrafficGen traffic({.frame_size = 64, .seed = 91});
  testbed.connect_sink(&traffic);

  core::RouterConfig config;
  config.use_gpu = true;
  config.chunk_capacity = 64;
  config.supervisor_interval = 1ms;
  config.supervisor_stall_window = 5ms;

  // One worker parks after 400 loop iterations (whichever worker reaches
  // the shared hit counter first) and stays parked until kicked.
  fault::FaultInjector inj(/*seed=*/21);
  inj.add_rule({.point = std::string(fault::Point::kWorkerHang), .after = 400, .count = 1});
  testbed.set_fault_injector(&inj);

  core::Router router(testbed.engine(), testbed.gpus(), app, config);
  router.set_fault_injector(&inj);
  router.start();

  // Keep traffic flowing so the hang happens mid-load and the quarantined
  // worker's queues have something for the adopter to drain.
  u64 offered = 0;
  u64 accepted = 0;
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (std::chrono::steady_clock::now() < deadline) {
    accepted += traffic.offer(testbed.ports(), 1'000);
    offered += 1'000;
    if (router.supervisor().stalls_detected() >= 1 && router.supervisor().recoveries() >= 1 &&
        offered >= 10'000) {
      break;
    }
    std::this_thread::sleep_for(1ms);
  }

  // Detection and recovery both happened (the detection itself is bounded
  // by stall_window + check_interval; the loop deadline is pure slack).
  EXPECT_EQ(inj.stats(fault::Point::kWorkerHang).fired, 1u);
  ASSERT_GE(router.supervisor().stalls_detected(), 1u);
  ASSERT_GE(router.supervisor().recoveries(), 1u);
  const auto events = router.supervisor().stall_events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].kind, supervise::ThreadKind::kWorker);
  EXPECT_GT(events[0].silent_for, config.supervisor_stall_window);
  const auto health = router.supervisor().health(events[0].thread_id);
  EXPECT_EQ(health.state, supervise::ThreadState::kLive);  // it came back
  EXPECT_GE(health.recoveries, 1u);

  // Zero unaccounted loss across the hang + quarantine + handback.
  u64 hw_rx_drops = 0;
  for (auto* port : testbed.ports()) hw_rx_drops += port->rx_totals().drops;
  EXPECT_EQ(accepted + hw_rx_drops, offered);
  EXPECT_TRUE(wait_for([&] { return traffic.sunk_packets() == accepted; }));
  router.stop();

  const auto stats = router.total_stats();
  EXPECT_EQ(stats.packets_in, accepted);
  EXPECT_EQ(stats.packets_out + stats.dropped() + stats.slow_path, stats.packets_in);
  const auto audit = router.audit();
  EXPECT_TRUE(audit.balanced());
  EXPECT_EQ(audit.in_flight, 0u);
}

TEST(SupervisorChaos, MasterHangIsDetectedWorkersAbsorbAndMasterResumes) {
  const auto fib = default_route_fib(1);
  apps::DynamicIpv4ForwardApp app(*fib);

  core::Testbed testbed({.topo = pcie::Topology::single_node(),
                         .use_gpu = true,
                         .ring_size = 4096,
                         .gpu_pool_workers = 0},
                        core::RouterConfig{.use_gpu = true});
  gen::TrafficGen traffic({.frame_size = 64, .seed = 92});
  testbed.connect_sink(&traffic);

  core::RouterConfig config;
  config.use_gpu = true;
  config.chunk_capacity = 64;
  // Fills fast while the master is out. Since the SPSC fan-in split this
  // capacity across per-worker lanes (4 over 3 workers -> 2 slots each,
  // aggregate 6), there is no shared queue and no global FIFO to rely
  // on: each worker's own lane saturates independently, which is exactly
  // what diverts its dispatches down the CPU path below.
  config.master_queue_capacity = 4;
  config.supervisor_interval = 1ms;
  config.supervisor_stall_window = 5ms;

  fault::FaultInjector inj(/*seed=*/22);
  inj.add_rule({.point = std::string(fault::Point::kMasterHang), .after = 30, .count = 1});
  testbed.set_fault_injector(&inj);

  core::Router router(testbed.engine(), testbed.gpus(), app, config);
  router.set_fault_injector(&inj);
  router.start();

  u64 offered = 0;
  u64 accepted = 0;
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (std::chrono::steady_clock::now() < deadline) {
    accepted += traffic.offer(testbed.ports(), 1'000);
    offered += 1'000;
    if (router.supervisor().stalls_detected() >= 1 && router.supervisor().recoveries() >= 1 &&
        offered >= 10'000) {
      break;
    }
    std::this_thread::sleep_for(1ms);
  }

  EXPECT_EQ(inj.stats(fault::Point::kMasterHang).fired, 1u);
  ASSERT_GE(router.supervisor().stalls_detected(), 1u);
  ASSERT_GE(router.supervisor().recoveries(), 1u);
  const auto events = router.supervisor().stall_events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].kind, supervise::ThreadKind::kMaster);

  EXPECT_TRUE(wait_for([&] { return traffic.sunk_packets() == accepted; }));
  router.stop();

  const auto stats = router.total_stats();
  EXPECT_EQ(stats.packets_in, accepted);
  EXPECT_EQ(stats.packets_out, traffic.sunk_packets());
  EXPECT_EQ(stats.packets_out + stats.dropped() + stats.slow_path, stats.packets_in);
  // While the master was parked its queue filled, so every dispatch was
  // diverted down the CPU path — the workers absorbed the load and
  // forwarding never stopped.
  EXPECT_GT(stats.bp_diverted_chunks, 0u);
  EXPECT_GT(stats.cpu_processed, 0u);
  const auto audit = router.audit();
  EXPECT_TRUE(audit.balanced());
  EXPECT_EQ(audit.in_flight, 0u);
}

}  // namespace
}  // namespace ps
