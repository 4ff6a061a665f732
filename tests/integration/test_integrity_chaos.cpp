// Corruption chaos: the full threaded router under injected *silent*
// corruption — huge-buffer bit flips, PCIe transfer errors in both
// directions, and GPU miscomputation — each of which no hardware status
// bit ever reports. The integrity layer must catch every injected fault
// at the boundary that first saw it, repair or quarantine, and let zero
// corrupted bytes reach TX, with packet conservation staying exact.
//
// Determinism: fault windows are indexed by per-point hit counters. In
// gathered mode each shading batch is one "gpu.launch" hit, one
// "pcie.h2d_corrupt" hit per job's input copy and one "pcie.d2h_corrupt"
// hit per job's output copy — and every copy belongs to exactly one job,
// so disjoint hit windows corrupt disjoint jobs and the per-stage counts
// below are exact, not bounds.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>

#include "apps/dynamic_ipv4.hpp"
#include "apps/ipsec_gateway.hpp"
#include "core/router.hpp"
#include "core/testbed.hpp"
#include "fault/fault_injector.hpp"
#include "gen/traffic.hpp"
#include "integrity/integrity.hpp"
#include "route/fib_manager.hpp"

namespace ps {
namespace {

using namespace std::chrono_literals;
using integrity::Stage;

bool wait_for(const std::function<bool()>& cond, std::chrono::milliseconds timeout = 20000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return cond();
}

// One /32 the traffic actually hits (-> port 1) over a default (-> port 2):
// any single-bit flip of a staged lookup key resolves to the default, and
// any single-bit flip of a result value changes the port — so every
// injected corruption is guaranteed to change an output, never masked.
std::unique_ptr<route::Ipv4Fib> corruption_sensitive_fib() {
  auto fib = std::make_unique<route::Ipv4Fib>();
  fib->announce({net::Ipv4Addr(10, 0, 0, 1), 32, 1});
  fib->announce({net::Ipv4Addr(0), 0, 2});
  fib->commit();
  return fib;
}

TEST(IntegrityChaos, EveryInjectedCorruptionLocalizedAtItsStage) {
  const auto fib = corruption_sensitive_fib();
  apps::DynamicIpv4ForwardApp app(*fib);

  core::Testbed testbed({.topo = pcie::Topology::single_node(),
                         .use_gpu = true,
                         .ring_size = 4096,
                         .gpu_pool_workers = 0},
                        core::RouterConfig{.use_gpu = true});
  gen::TrafficGen traffic(
      {.frame_size = 64, .seed = 81, .ipv4_dst_pool = {net::Ipv4Addr(10, 0, 0, 1).value}});
  testbed.connect_sink(&traffic);

  // Disjoint windows, one per corruption class. h2d hits 50..53 are jobs
  // ~48..51 (bind_gpu uploads burn two hits), d2h hits 100..103 are jobs
  // 100..103, and a bad result at launch N lands on a job >= N (the d2h
  // counter can never trail the launch counter) — no window can overlap
  // another in job space. The bitflip window is frames 500..539.
  fault::FaultInjector inj(/*seed=*/17);
  inj.add_rule({.point = std::string(fault::Point::kMemBitflip), .after = 500, .count = 40});
  inj.add_rule({.point = std::string(fault::Point::kPcieH2dCorrupt), .after = 50, .count = 4});
  inj.add_rule({.point = std::string(fault::Point::kPcieD2hCorrupt), .after = 100, .count = 4});
  inj.add_rule({.point = std::string(fault::Point::kGpuBadResult), .after = 150, .count = 4});
  testbed.set_fault_injector(&inj);

  core::RouterConfig config;
  config.use_gpu = true;
  config.chunk_capacity = 64;
  config.gather_max = 4;
  // Verify every batch (exact counts) and never trip: escalation/trip
  // behavior gets its own test below.
  integrity::IntegrityChecker checker(
      {.shadow_sample_every = 1, .shadow_trip_threshold = 1000});

  core::Router router(testbed.engine(), testbed.gpus(), app, config);
  router.set_fault_injector(&inj);
  router.set_integrity(&checker);
  router.start();

  // Offer until every fault window is consumed (the bad-result window needs
  // ~154 shading batches), bounded by a deadline.
  u64 accepted = 0;
  u64 offered = 0;
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while (std::chrono::steady_clock::now() < deadline && offered < 400'000) {
    accepted += traffic.offer(testbed.ports(), 2'000);
    offered += 2'000;
    if (inj.stats(fault::Point::kMemBitflip).fired == 40 &&
        inj.stats(fault::Point::kPcieH2dCorrupt).fired == 4 &&
        inj.stats(fault::Point::kPcieD2hCorrupt).fired == 4 &&
        inj.stats(fault::Point::kGpuBadResult).fired == 4) {
      break;
    }
    std::this_thread::sleep_for(1ms);
  }

  // Drain: everything accepted reaches the sink except the 40 bit-flipped
  // frames quarantined at RX admission. Corrupted GPU results are repaired
  // (CPU re-shade), not dropped, so they still arrive.
  EXPECT_TRUE(wait_for([&] { return traffic.sunk_packets() + 40 == accepted; }, 30s));
  router.stop();

  ASSERT_EQ(inj.stats(fault::Point::kMemBitflip).fired, 40u);
  ASSERT_EQ(inj.stats(fault::Point::kPcieH2dCorrupt).fired, 4u);
  ASSERT_EQ(inj.stats(fault::Point::kPcieD2hCorrupt).fired, 4u);
  ASSERT_EQ(inj.stats(fault::Point::kGpuBadResult).fired, 4u);

  // --- every corruption localized at the boundary that first saw it --------
  EXPECT_EQ(checker.corrupt_at(Stage::kRx), 40u);       // huge-buffer flips
  EXPECT_EQ(checker.corrupt_at(Stage::kShadow), 12u);   // 4 h2d + 4 d2h + 4 bad
  EXPECT_EQ(checker.corrupt_at(Stage::kGather), 0u);
  EXPECT_EQ(checker.corrupt_at(Stage::kScatter), 0u);
  EXPECT_EQ(checker.corrupt_at(Stage::kTx), 0u);
  EXPECT_EQ(checker.shadow_mismatch_batches(), 12u);  // each corrupt job caught
  EXPECT_EQ(checker.reshaded_batches(), 12u);         // ...and repaired once
  EXPECT_EQ(checker.quarantined_packets(), 40u);
  EXPECT_EQ(checker.devices_tripped(), 0u);
  EXPECT_GT(checker.shadow_batches(), 150u);  // sampling actually ran
  EXPECT_GT(checker.verified_packets(), 0u);
  EXPECT_GT(checker.stamped_packets(), 0u);

  // --- conservation: quarantined packets are accounted drops, nothing else -
  const auto stats = router.total_stats();
  EXPECT_EQ(stats.packets_in, accepted);
  EXPECT_EQ(stats.packets_out + stats.dropped() + stats.slow_path, stats.packets_in);
  EXPECT_EQ(stats.packets_out, traffic.sunk_packets());
  EXPECT_EQ(stats.drops(iengine::DropReason::kIntegrityFail), 40u);
  EXPECT_EQ(stats.dropped(), 40u);

  // The device was never tripped: silent corruption was repaired in-line.
  const auto health = router.gpu_health(0);
  EXPECT_TRUE(health.healthy);
  EXPECT_EQ(health.trips, 0u);
}

TEST(IntegrityChaos, ShadowSamplingEscalatesAndTripsSickDevice) {
  const auto fib = corruption_sensitive_fib();
  apps::DynamicIpv4ForwardApp app(*fib);

  core::Testbed testbed({.topo = pcie::Topology::single_node(),
                         .use_gpu = true,
                         .ring_size = 4096,
                         .gpu_pool_workers = 0},
                        core::RouterConfig{.use_gpu = true});
  gen::TrafficGen traffic(
      {.frame_size = 64, .seed = 82, .ipv4_dst_pool = {net::Ipv4Addr(10, 0, 0, 1).value}});
  testbed.connect_sink(&traffic);

  // A persistently-lying D2H path: 32 consecutive output copies corrupted.
  // At 1-in-4 sampling the first few corrupted batches can slip through,
  // but within four batches one is sampled, sampling escalates to every
  // batch, strikes accumulate, and the device trips into CPU-only mode.
  fault::FaultInjector inj(/*seed=*/19);
  inj.add_rule({.point = std::string(fault::Point::kPcieD2hCorrupt), .after = 100, .count = 32});
  testbed.set_fault_injector(&inj);

  core::RouterConfig config;
  config.use_gpu = true;
  config.chunk_capacity = 64;
  config.gather_max = 4;
  config.gpu_probe_interval_batches = 2;  // recover quickly once clean
  integrity::IntegrityChecker checker({.shadow_sample_every = 4,
                                       .shadow_escalate_batches = 64,
                                       .shadow_trip_threshold = 3});

  core::Router router(testbed.engine(), testbed.gpus(), app, config);
  router.set_fault_injector(&inj);
  router.set_integrity(&checker);
  router.start();

  u64 accepted = 0;
  u64 offered = 0;
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while (std::chrono::steady_clock::now() < deadline && offered < 400'000) {
    accepted += traffic.offer(testbed.ports(), 2'000);
    offered += 2'000;
    const auto health = router.gpu_health(0);
    if (inj.stats(fault::Point::kPcieD2hCorrupt).fired == 32 && health.trips >= 1 &&
        health.recoveries >= 1) {
      break;
    }
    std::this_thread::sleep_for(1ms);
  }

  // No byte-level corruption: nothing is quarantined, so everything
  // accepted drains to the sink (repaired or — before escalation kicked
  // in — misdelivered, but never lost).
  EXPECT_TRUE(wait_for([&] { return traffic.sunk_packets() == accepted; }, 30s));
  router.stop();

  ASSERT_EQ(inj.stats(fault::Point::kPcieD2hCorrupt).fired, 32u);

  // Escalation caught the sick device and tripped it into the PR 1
  // gpu_health fallback; the fault window then expired and a clean probe
  // re-admitted it.
  EXPECT_GE(checker.shadow_mismatch_batches(), 3u);
  EXPECT_LE(checker.corrupt_at(Stage::kShadow), 32u);
  EXPECT_GE(checker.devices_tripped(), 1u);
  const auto health = router.gpu_health(0);
  EXPECT_GE(health.trips, 1u);
  EXPECT_GE(health.recoveries, 1u);
  EXPECT_GT(health.cpu_fallback_chunks, 0u);
  EXPECT_TRUE(health.healthy);

  const auto stats = router.total_stats();
  EXPECT_EQ(stats.packets_in, accepted);
  EXPECT_EQ(stats.packets_out + stats.dropped() + stats.slow_path, stats.packets_in);
  EXPECT_EQ(stats.dropped(), 0u);  // repairs and misdeliveries, never drops
}

TEST(IntegrityChaos, CorruptionUnderFibChurnStaysExact) {
  // Live control plane + silent corruption at once. The churned prefixes
  // (192.168.x.0/24) never cover the traffic pool and resolve to the same
  // port as the default route, so a CPU shadow re-shade against a *newer*
  // FIB generation than the one pinned on the device still computes
  // identical results — every shadow mismatch is injected, none is
  // generation skew. (No h2d window here: sync() uploads table
  // generations over the same PCIe path, and corrupting a table upload
  // would corrupt every subsequent lookup.)
  route::Ipv4Fib fib;
  fib.announce({net::Ipv4Addr(10, 0, 0, 1), 32, 1});
  fib.announce({net::Ipv4Addr(10, 0, 0, 2), 32, 1});
  fib.announce({net::Ipv4Addr(0), 0, 2});
  fib.commit();
  apps::DynamicIpv4ForwardApp app(fib);

  core::Testbed testbed({.topo = pcie::Topology::single_node(),
                         .use_gpu = true,
                         .ring_size = 4096,
                         .gpu_pool_workers = 0},
                        core::RouterConfig{.use_gpu = true});
  gen::TrafficGen traffic({.frame_size = 64,
                           .seed = 83,
                           .ipv4_dst_pool = {net::Ipv4Addr(10, 0, 0, 1).value,
                                             net::Ipv4Addr(10, 0, 0, 2).value}});
  testbed.connect_sink(&traffic);

  fault::FaultInjector inj(/*seed=*/23);
  inj.add_rule({.point = std::string(fault::Point::kMemBitflip), .after = 200, .count = 30});
  inj.add_rule({.point = std::string(fault::Point::kPcieD2hCorrupt), .after = 100, .count = 6});
  testbed.set_fault_injector(&inj);

  core::RouterConfig config;
  config.use_gpu = true;
  config.chunk_capacity = 64;
  config.gather_max = 4;
  integrity::IntegrityChecker checker(
      {.shadow_sample_every = 1, .shadow_trip_threshold = 1000});

  core::Router router(testbed.engine(), testbed.gpus(), app, config);
  router.set_fault_injector(&inj);
  router.set_integrity(&checker);
  router.start();

  // Control-plane churn racing the corrupted data plane: announce/withdraw
  // disjoint /24s, committing + syncing the device tables each round.
  std::atomic<bool> churn_done{false};
  std::thread churner([&] {
    for (int round = 0; round < 200; ++round) {
      const route::Ipv4Prefix p{net::Ipv4Addr(192, 168, static_cast<u8>(round % 250), 0), 24, 2};
      if (round % 2 == 0) {
        fib.announce(p);
      } else {
        fib.withdraw(p);
      }
      fib.commit();
      app.sync();
      std::this_thread::sleep_for(200us);
    }
    churn_done.store(true, std::memory_order_release);
  });

  u64 accepted = 0;
  u64 offered = 0;
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while (std::chrono::steady_clock::now() < deadline && offered < 400'000) {
    accepted += traffic.offer(testbed.ports(), 2'000);
    offered += 2'000;
    if (churn_done.load(std::memory_order_acquire) &&
        inj.stats(fault::Point::kMemBitflip).fired == 30 &&
        inj.stats(fault::Point::kPcieD2hCorrupt).fired == 6) {
      break;
    }
    std::this_thread::sleep_for(1ms);
  }
  churner.join();

  EXPECT_TRUE(wait_for([&] { return traffic.sunk_packets() + 30 == accepted; }, 30s));
  router.stop();

  ASSERT_EQ(inj.stats(fault::Point::kMemBitflip).fired, 30u);
  ASSERT_EQ(inj.stats(fault::Point::kPcieD2hCorrupt).fired, 6u);

  // Exact localization even with the FIB moving underneath: 30 flips at RX
  // admission, 6 lying result copies at the shadow check — and *only* the
  // injected ones (any generation-skew false positive would inflate these).
  EXPECT_EQ(checker.corrupt_at(Stage::kRx), 30u);
  EXPECT_EQ(checker.corrupt_at(Stage::kShadow), 6u);
  EXPECT_EQ(checker.corrupt_at(Stage::kGather), 0u);
  EXPECT_EQ(checker.corrupt_at(Stage::kScatter), 0u);
  EXPECT_EQ(checker.corrupt_at(Stage::kTx), 0u);
  EXPECT_EQ(checker.shadow_mismatch_batches(), 6u);
  EXPECT_EQ(checker.quarantined_packets(), 30u);
  EXPECT_EQ(checker.devices_tripped(), 0u);

  const auto stats = router.total_stats();
  EXPECT_EQ(stats.packets_in, accepted);
  EXPECT_EQ(stats.packets_out + stats.dropped() + stats.slow_path, stats.packets_in);
  EXPECT_EQ(stats.packets_out, traffic.sunk_packets());
  EXPECT_EQ(stats.drops(iengine::DropReason::kIntegrityFail), 30u);
  EXPECT_EQ(stats.dropped(), 30u);
  EXPECT_TRUE(router.gpu_health(0).healthy);
}

TEST(IntegrityChaos, InPlaceScatterCorruptionLocalizedAtItsStage) {
  // PR 8's in-place zero-copy scatter moves the result-apply mutation from
  // the worker's post_shade memcpy to the device's scatter DMA — so a
  // lying D2H now corrupts packet frames directly, with no bounce buffer
  // in between to absorb it. The contract must not weaken: a huge-buffer
  // bit flip is still caught at RX admission, a corrupted scatter copy is
  // still caught (and repaired span-by-span) at the shadow check, and
  // zero corrupted bytes reach TX. IPsec is the app that uses the
  // in-place path (ciphertext + ICV spans per packet).
  const auto sa = crypto::SecurityAssociation::make_test_sa(
      0x6161, net::Ipv4Addr(172, 16, 0, 1), net::Ipv4Addr(172, 16, 0, 2));
  apps::IpsecGatewayApp app(sa);

  core::Testbed testbed({.topo = pcie::Topology::single_node(),
                         .use_gpu = true,
                         .ring_size = 4096,
                         .gpu_pool_workers = 0},
                        core::RouterConfig{.use_gpu = true});
  gen::TrafficGen traffic({.frame_size = 64, .seed = 84});
  testbed.connect_sink(&traffic);

  // Each in-place job issues exactly two scatter D2H transactions (the
  // ciphertext blob, then the ICV array), so d2h hits come in per-job
  // pairs and a 4-hit window lands on whole jobs. Both hits of one job
  // corrupt spans of that job's first packet (bit 0 of the first seg), so
  // per-packet shadow counts stay exact.
  fault::FaultInjector inj(/*seed=*/29);
  inj.add_rule({.point = std::string(fault::Point::kMemBitflip), .after = 200, .count = 20});
  inj.add_rule({.point = std::string(fault::Point::kPcieD2hCorrupt), .after = 40, .count = 4});
  testbed.set_fault_injector(&inj);

  core::RouterConfig config;
  config.use_gpu = true;
  config.chunk_capacity = 64;
  config.gather_max = 4;
  integrity::IntegrityChecker checker(
      {.shadow_sample_every = 1, .shadow_trip_threshold = 1000});

  core::Router router(testbed.engine(), testbed.gpus(), app, config);
  router.set_fault_injector(&inj);
  router.set_integrity(&checker);
  router.start();

  u64 accepted = 0;
  u64 offered = 0;
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while (std::chrono::steady_clock::now() < deadline && offered < 200'000) {
    accepted += traffic.offer(testbed.ports(), 2'000);
    offered += 2'000;
    if (inj.stats(fault::Point::kMemBitflip).fired == 20 &&
        inj.stats(fault::Point::kPcieD2hCorrupt).fired == 4) {
      break;
    }
    std::this_thread::sleep_for(1ms);
  }

  // Everything accepted drains to the sink except the 20 bit-flipped
  // frames quarantined at RX; scatter-corrupted packets are repaired in
  // place from the CPU ground truth and still ship.
  EXPECT_TRUE(wait_for([&] { return traffic.sunk_packets() + 20 == accepted; }, 30s));
  router.stop();

  ASSERT_EQ(inj.stats(fault::Point::kMemBitflip).fired, 20u);
  ASSERT_EQ(inj.stats(fault::Point::kPcieD2hCorrupt).fired, 4u);

  // Localization: flips at RX, lying scatter copies at the shadow check,
  // nothing anywhere else — in particular kScatter and kTx stay zero,
  // which is the "zero corrupted bytes at TX" claim for the in-place
  // path (the shadow repair happened before the worker's sweep).
  EXPECT_EQ(checker.corrupt_at(Stage::kRx), 20u);
  EXPECT_EQ(checker.corrupt_at(Stage::kGather), 0u);
  EXPECT_EQ(checker.corrupt_at(Stage::kScatter), 0u);
  EXPECT_EQ(checker.corrupt_at(Stage::kTx), 0u);
  // 4 hits in per-job pairs: exactly 2 jobs, each with both segs of its
  // first packet corrupted -> one bad packet per job at the shadow check.
  EXPECT_EQ(checker.corrupt_at(Stage::kShadow), 2u);
  EXPECT_EQ(checker.shadow_mismatch_batches(), 2u);
  EXPECT_EQ(checker.reshaded_batches(), 2u);
  EXPECT_EQ(checker.quarantined_packets(), 20u);
  EXPECT_EQ(checker.devices_tripped(), 0u);

  const auto stats = router.total_stats();
  EXPECT_EQ(stats.packets_in, accepted);
  EXPECT_EQ(stats.packets_out + stats.dropped() + stats.slow_path, stats.packets_in);
  EXPECT_EQ(stats.packets_out, traffic.sunk_packets());
  EXPECT_EQ(stats.drops(iengine::DropReason::kIntegrityFail), 20u);
  EXPECT_EQ(stats.dropped(), 20u);
  EXPECT_TRUE(router.gpu_health(0).healthy);
}

TEST(IntegrityChaos, ConservationExactUnderWorkerQuarantineMidBatch) {
  // A worker parks mid-run with in-place jobs in flight: the master keeps
  // returning results to the hung worker's output ring, a peer adopts its
  // NIC queues, and the owner drains everything when kicked back to life.
  // With integrity armed and shadow verification on every batch, the
  // whole episode must produce zero false integrity positives and an
  // exact conservation identity — no packet lost, duplicated, or
  // silently mutated across the quarantine/handback.
  const auto sa = crypto::SecurityAssociation::make_test_sa(
      0x6262, net::Ipv4Addr(172, 16, 0, 1), net::Ipv4Addr(172, 16, 0, 2));
  apps::IpsecGatewayApp app(sa);

  core::Testbed testbed({.topo = pcie::Topology::single_node(),
                         .use_gpu = true,
                         .ring_size = 4096,
                         .gpu_pool_workers = 0},
                        core::RouterConfig{.use_gpu = true});
  gen::TrafficGen traffic({.frame_size = 64, .seed = 85});
  testbed.connect_sink(&traffic);

  fault::FaultInjector inj(/*seed=*/31);
  inj.add_rule({.point = std::string(fault::Point::kWorkerHang), .after = 300, .count = 1});
  testbed.set_fault_injector(&inj);

  core::RouterConfig config;
  config.use_gpu = true;
  config.chunk_capacity = 64;
  config.gather_max = 4;
  config.supervisor_interval = 1ms;
  config.supervisor_stall_window = 5ms;
  integrity::IntegrityChecker checker(
      {.shadow_sample_every = 1, .shadow_trip_threshold = 1000});

  core::Router router(testbed.engine(), testbed.gpus(), app, config);
  router.set_fault_injector(&inj);
  router.set_integrity(&checker);
  router.start();

  u64 offered = 0;
  u64 accepted = 0;
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (std::chrono::steady_clock::now() < deadline) {
    accepted += traffic.offer(testbed.ports(), 1'000);
    offered += 1'000;
    if (router.supervisor().stalls_detected() >= 1 &&
        router.supervisor().recoveries() >= 1 && offered >= 10'000) {
      break;
    }
    std::this_thread::sleep_for(1ms);
  }

  EXPECT_EQ(inj.stats(fault::Point::kWorkerHang).fired, 1u);
  ASSERT_GE(router.supervisor().stalls_detected(), 1u);
  ASSERT_GE(router.supervisor().recoveries(), 1u);

  EXPECT_TRUE(wait_for([&] { return traffic.sunk_packets() == accepted; }));
  router.stop();

  // No injected corruption: every boundary check must have stayed silent
  // even though chunks crossed the hand-off while their owner was out.
  EXPECT_EQ(checker.corrupt_at(Stage::kRx), 0u);
  EXPECT_EQ(checker.corrupt_at(Stage::kGather), 0u);
  EXPECT_EQ(checker.corrupt_at(Stage::kShadow), 0u);
  EXPECT_EQ(checker.corrupt_at(Stage::kScatter), 0u);
  EXPECT_EQ(checker.corrupt_at(Stage::kTx), 0u);
  EXPECT_EQ(checker.quarantined_packets(), 0u);
  EXPECT_GT(checker.shadow_batches(), 0u);
  EXPECT_GT(checker.verified_packets(), 0u);

  const auto stats = router.total_stats();
  EXPECT_EQ(stats.packets_in, accepted);
  EXPECT_EQ(stats.packets_out + stats.dropped() + stats.slow_path, stats.packets_in);
  EXPECT_EQ(stats.packets_out, traffic.sunk_packets());
  EXPECT_EQ(stats.dropped(), 0u);
  const auto audit = router.audit();
  EXPECT_TRUE(audit.balanced());
  EXPECT_EQ(audit.in_flight, 0u);
}

}  // namespace
}  // namespace ps
