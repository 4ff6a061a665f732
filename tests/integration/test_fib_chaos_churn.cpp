// Chaos variant of FIB churn under traffic: the supervised FibUpdater
// pumps a generated announce/withdraw stream through the epoch-published
// FIB while every fault class fires at once — updater faults (allocation
// failure, crash mid-batch, silent stall), master-queue overflow, and a
// link flap — and the data plane keeps forwarding with full packet
// conservation. A differential oracle checks after every committed batch
// that the incrementally-updated table answers exactly like a
// from-scratch longest-prefix-match over the same route set, and a full
// DIR-24-8 rebuild is compared periodically and at the end.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "apps/dynamic_ipv4.hpp"
#include "core/router.hpp"
#include "core/testbed.hpp"
#include "fault/fault_injector.hpp"
#include "gen/traffic.hpp"
#include "route/fib_updater.hpp"
#include "route/rib_gen.hpp"
#include "supervise/supervisor.hpp"

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

u64 key_of(const route::Ipv4Prefix& p) {
  return (static_cast<u64>(p.network()) << 8) | p.length;
}

// From-scratch longest-prefix-match over the model route set: the oracle
// the incremental table must agree with. O(32) map probes per address, so
// it is cheap enough to run after every committed batch.
route::NextHop model_lookup(const std::unordered_map<u64, route::Ipv4Prefix>& model, u32 addr) {
  for (int len = 32; len >= 0; --len) {
    const u32 mask = len == 0 ? 0 : static_cast<u32>(~((u64{1} << (32 - len)) - 1));
    const auto it = model.find((static_cast<u64>(addr & mask) << 8) | static_cast<u64>(len));
    if (it != model.end()) return it->second.next_hop;
  }
  return route::kNoRoute;
}

TEST(FibChaosChurn, FaultedChurnUnderTrafficStaysCorrectAndConservesPackets) {
  constexpr u16 kNextHops = 4;  // single_node exposes 4 ports
  const auto base = route::generate_ipv4_rib(
      {.prefix_count = 20'000, .num_next_hops = kNextHops, .seed = 51});
  const auto churn = route::generate_ipv4_churn(base, 600, kNextHops, 52);

  route::Ipv4Fib fib;
  const route::Ipv4Prefix default_route{net::Ipv4Addr(0), 0, 1};
  fib.announce(default_route);  // never withdrawn: no packet can miss
  for (const auto& p : base) fib.announce(p);
  fib.commit();

  // Model of the committed route set, updated in lockstep with the ops we
  // queue; the differential oracle reads it after every drained batch.
  std::unordered_map<u64, route::Ipv4Prefix> model;
  model.reserve(base.size() * 2);
  model.emplace(key_of(default_route), default_route);
  for (const auto& p : base) model.emplace(key_of(p), p);

  apps::DynamicIpv4ForwardApp app(fib);
  core::Testbed testbed({.topo = pcie::Topology::single_node(),
                         .use_gpu = true,
                         .ring_size = 4096,
                         .gpu_pool_workers = 0},
                        core::RouterConfig{.use_gpu = true});
  gen::TrafficGen traffic({.frame_size = 64, .seed = 53});
  testbed.connect_sink(&traffic);

  // Every fault class at once. The updater faults are windows of the
  // per-point hit counters, so the schedule is reproducible: two straight
  // allocation failures, then three crashes mid-batch, and one silent
  // stall around the middle of the run.
  fault::FaultInjector inj(/*seed=*/54);
  inj.add_rule({.point = std::string(fault::Point::kMasterQueue), .after = 50, .count = 100});
  inj.add_rule({.point = std::string(fault::Point::kLinkFlap) + ".0", .after = 1'000, .count = 200});
  inj.add_rule({.point = std::string(fault::Point::kFibUpdateAllocFail), .after = 2, .count = 2});
  inj.add_rule({.point = std::string(fault::Point::kFibUpdateCrashMidBatch), .after = 5, .count = 3});
  inj.add_rule({.point = std::string(fault::Point::kFibUpdateStall), .after = 40, .count = 1});
  testbed.set_fault_injector(&inj);

  route::FibUpdater updater(fib, {}, &inj);
  supervise::Supervisor supervisor({.check_interval = 1ms, .stall_window = 5ms});
  const int updater_tid = updater.attach_supervisor(supervisor);
  updater.start();
  supervisor.start();

  core::RouterConfig config;
  config.use_gpu = true;
  config.chunk_capacity = 64;
  core::Router router(testbed.engine(), testbed.gpus(), app, config);
  router.set_fault_injector(&inj);
  router.start();

  std::atomic<bool> churn_done{false};
  std::atomic<u64> accepted{0};
  std::thread offerer([&] {
    while (!churn_done.load(std::memory_order_relaxed)) {
      accepted.fetch_add(traffic.offer(testbed.ports(), 500), std::memory_order_relaxed);
      std::this_thread::sleep_for(500us);
    }
  });

  // Deterministic probe pool for the oracle: covered addresses of the
  // base RIB plus raw addresses (these exercise withdrawn regions, where
  // cover falls back to a shorter prefix or the default route).
  std::vector<u32> probes = route::sample_covered_ipv4(base, 384, 55);
  {
    Rng rng(56);
    for (int i = 0; i < 128; ++i) probes.push_back(rng.next_u32());
  }

  constexpr std::size_t kBatch = 25;
  const u64 base_generation = fib.generation();
  u64 batches = 0;
  for (std::size_t start = 0; start < churn.size(); start += kBatch) {
    const std::size_t end = std::min(start + kBatch, churn.size());
    for (std::size_t i = start; i < end; ++i) {
      const auto& op = churn[i];
      if (op.announce) {
        fib.announce(op.prefix);
        model[key_of(op.prefix)] = op.prefix;
      } else {
        ASSERT_TRUE(fib.withdraw(op.prefix));
        model.erase(key_of(op.prefix));
      }
    }
    updater.drain();  // survives rollbacks, retries, and the stall window
    ++batches;

    // Differential oracle, every committed batch: the incrementally
    // updated generation must answer exactly like from-scratch LPM.
    {
      const auto table = fib.read();
      for (const u32 addr : probes) {
        ASSERT_EQ(table->lookup(net::Ipv4Addr(addr)), model_lookup(model, addr))
            << "divergence after batch " << batches;
      }
    }

    // Periodically (and on the last batch) compare against a full
    // DIR-24-8 rebuild of the model — same construction the updater would
    // use if it started from scratch.
    if (batches % 8 == 0 || end == churn.size()) {
      std::vector<route::Ipv4Prefix> routes;
      routes.reserve(model.size());
      for (const auto& [k, p] : model) routes.push_back(p);
      route::Ipv4Table rebuilt;
      rebuilt.build(routes);
      const auto table = fib.read();
      EXPECT_EQ(table->prefix_count(), rebuilt.prefix_count());
      for (const u32 addr : probes) {
        ASSERT_EQ(table->lookup(net::Ipv4Addr(addr)), rebuilt.lookup(net::Ipv4Addr(addr)))
            << "rebuild divergence after batch " << batches;
      }
    }

    app.sync();  // refresh GPU copies off the data path
  }
  churn_done.store(true);
  offerer.join();

  // Every batch committed despite the fault windows. The pump may split a
  // batch it catches mid-queueing into two commits, so the generation
  // advanced at least once per drained batch (and exactly once per
  // commit — all-or-nothing, no partials).
  EXPECT_GE(fib.generation(), base_generation + batches);
  EXPECT_EQ(fib.generation(), base_generation + updater.commits());
  EXPECT_EQ(fib.pending_updates(), 0u);

  // The chaos actually happened: rollbacks from both fault points, a
  // detected stall with a kick-based recovery, the master-queue window,
  // and a carrier-loss window on port 0.
  EXPECT_EQ(inj.stats(fault::Point::kFibUpdateAllocFail).fired, 2u);
  EXPECT_EQ(inj.stats(fault::Point::kFibUpdateCrashMidBatch).fired, 3u);
  EXPECT_EQ(inj.stats(fault::Point::kFibUpdateStall).fired, 1u);
  EXPECT_GE(updater.rollbacks(), 5u);
  EXPECT_GE(updater.stall_recoveries(), 1u);
  EXPECT_GE(supervisor.stalls_detected(), 1u);
  EXPECT_GT(inj.stats(fault::Point::kMasterQueue).fired, 0u);
  EXPECT_EQ(testbed.port(0).link_flaps(), 1u);
  EXPECT_TRUE(testbed.port(0).link_up());

  supervisor.stop();
  // Observe the post-kick recovery: under sanitizer slowdown a single
  // synchronous pass can catch the idle pump with a beat older than the
  // stall window (a false stall the kick handler absorbs), so poll until
  // a pass lands near a fresh beat.
  bool live = false;
  for (int i = 0; i < 5000 && !live; ++i) {
    supervisor.check_now();
    live = supervisor.health(updater_tid).state == supervise::ThreadState::kLive;
    if (!live) std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(live);
  updater.stop();

  // Packet conservation: everything accepted past the wire leaves the
  // router with exactly one disposition, and the default route means not
  // one packet missed the table mid-churn. A TX attempt that lands inside
  // the carrier-loss window is dropped by the NIC after the retry limit —
  // a legal disposition, bounded by the flap window — so sunk + dropped
  // accounts for every accepted packet.
  EXPECT_TRUE(wait_for([&] {
    return traffic.sunk_packets() + router.total_stats().dropped() == accepted.load();
  }));
  router.stop();

  const auto stats = router.total_stats();
  EXPECT_EQ(stats.drops(iengine::DropReason::kNoRoute), 0u);
  EXPECT_EQ(stats.packets_in, accepted.load());
  EXPECT_EQ(stats.packets_out + stats.dropped(), accepted.load());
  EXPECT_LE(stats.dropped(), 200u);  // only carrier-loss TX drops possible

  const auto audit = router.audit();
  EXPECT_TRUE(audit.balanced());
  EXPECT_EQ(audit.in_flight, 0u);
}

}  // namespace
}  // namespace ps
