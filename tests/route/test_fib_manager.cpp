// FIB manager: announce/withdraw semantics, queued announces and their
// settling into the RIB, double-buffered snapshots, generation tracking,
// and concurrent reader and writer safety.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault_injector.hpp"
#include "route/fib_manager.hpp"
#include "route/rib_gen.hpp"

namespace ps::route {
namespace {

Ipv4Prefix p(u8 a, u8 b, u8 len, NextHop nh) {
  return {net::Ipv4Addr(a, b, 0, 0), len, nh};
}

TEST(FibManager, StartsEmpty) {
  Ipv4Fib fib;
  EXPECT_EQ(fib.route_count(), 0u);
  EXPECT_EQ(fib.generation(), 0u);
  EXPECT_EQ(fib.snapshot()->lookup(net::Ipv4Addr(1, 2, 3, 4)), kNoRoute);
}

TEST(FibManager, AnnouncementsApplyOnlyAtCommit) {
  Ipv4Fib fib;
  fib.announce(p(10, 0, 8, 1));
  // Before commit: the active table is untouched.
  EXPECT_EQ(fib.snapshot()->lookup(net::Ipv4Addr(10, 1, 1, 1)), kNoRoute);

  EXPECT_EQ(fib.commit(), 1u);
  EXPECT_EQ(fib.snapshot()->lookup(net::Ipv4Addr(10, 1, 1, 1)), 1);
}

TEST(FibManager, WithdrawRemovesRoute) {
  Ipv4Fib fib;
  fib.announce(p(10, 0, 8, 1));
  fib.announce(p(20, 0, 8, 2));
  fib.commit();

  EXPECT_TRUE(fib.withdraw(p(10, 0, 8, 1)));
  EXPECT_FALSE(fib.withdraw(p(30, 0, 8, 9)));  // never present
  fib.commit();

  EXPECT_EQ(fib.snapshot()->lookup(net::Ipv4Addr(10, 1, 1, 1)), kNoRoute);
  EXPECT_EQ(fib.snapshot()->lookup(net::Ipv4Addr(20, 1, 1, 1)), 2);
}

TEST(FibManager, ReAnnounceReplacesNextHop) {
  Ipv4Fib fib;
  fib.announce(p(10, 0, 8, 1));
  fib.commit();
  fib.announce(p(10, 0, 8, 7));  // same prefix, new next hop
  fib.commit();
  EXPECT_EQ(fib.route_count(), 1u);
  EXPECT_EQ(fib.snapshot()->lookup(net::Ipv4Addr(10, 1, 1, 1)), 7);
}

TEST(FibManager, CommitWithoutChangesIsANoop) {
  Ipv4Fib fib;
  fib.announce(p(10, 0, 8, 1));
  EXPECT_EQ(fib.commit(), 1u);
  EXPECT_EQ(fib.commit(), 1u);  // not dirty: generation unchanged
  EXPECT_EQ(fib.generation(), 1u);
}

TEST(FibManager, OldSnapshotSurvivesCommit) {
  // Double buffering: a data-path thread holding the old snapshot keeps a
  // consistent view while the control plane publishes a new one.
  Ipv4Fib fib;
  fib.announce(p(10, 0, 8, 1));
  fib.commit();

  const auto old_snapshot = fib.snapshot();
  fib.withdraw(p(10, 0, 8, 1));
  fib.announce(p(20, 0, 8, 2));
  fib.commit();

  EXPECT_EQ(old_snapshot->lookup(net::Ipv4Addr(10, 1, 1, 1)), 1);  // old view intact
  EXPECT_EQ(fib.snapshot()->lookup(net::Ipv4Addr(10, 1, 1, 1)), kNoRoute);
}

TEST(FibManager, Ipv6VariantWorks) {
  Ipv6Fib fib;
  fib.announce({net::Ipv6Addr::from_words(0x2001'0000'0000'0000ULL, 0), 16, 3});
  fib.commit();
  EXPECT_EQ(fib.snapshot()->lookup(net::Ipv6Addr::from_words(0x2001'0000'0000'0001ULL, 0)), 3);
}

TEST(FibManager, Ipv6DistinctPrefixesWhoseHashesCollide) {
  // Both /128 keys hash to the same 64-bit value (hi * golden ^ lo is 5
  // for each); the RIB must still hold them as two routes.
  const net::Ipv6Addr first = net::Ipv6Addr::from_words(0, 5);
  const net::Ipv6Addr second = net::Ipv6Addr::from_words(1, 0x9e3779b97f4a7c15ULL ^ 5);
  Ipv6Fib fib;
  fib.announce({first, 128, 1});
  fib.announce({second, 128, 2});
  fib.commit();
  EXPECT_EQ(fib.route_count(), 2u);
  EXPECT_EQ(fib.snapshot()->lookup(first), 1);
  EXPECT_EQ(fib.snapshot()->lookup(second), 2);

  EXPECT_TRUE(fib.withdraw({first, 128, 1}));
  fib.commit();
  EXPECT_EQ(fib.route_count(), 1u);
  EXPECT_EQ(fib.snapshot()->lookup(first), kNoRoute);
  EXPECT_EQ(fib.snapshot()->lookup(second), 2);
}

TEST(FibManager, Ipv4OutOfRangeAnnounceIsRejected) {
  Ipv4Fib fib;
  fib.announce(p(10, 0, 8, 1));
  const u64 generation = fib.commit();
  const auto published = fib.snapshot();

  constexpr NextHop kTooHigh = kNoRoute + 1;  // tbl24 would read it as a chunk index
  EXPECT_FALSE(fib.announce(p(10, 0, 33, 2)));
  EXPECT_FALSE(fib.announce(p(20, 0, 8, kTooHigh)));
  EXPECT_FALSE(fib.withdraw(p(10, 0, 33, 1)));
  EXPECT_EQ(fib.pending_updates(), 0u);
  EXPECT_EQ(fib.commit(), generation);
  EXPECT_EQ(fib.route_count(), 1u);
  EXPECT_EQ(fib.snapshot(), published);
  EXPECT_EQ(fib.snapshot()->lookup(net::Ipv4Addr(10, 0, 0, 1)), 1);
  EXPECT_EQ(fib.snapshot()->lookup(net::Ipv4Addr(20, 0, 0, 1)), kNoRoute);
}

TEST(FibManager, Ipv4NoRouteNextHopBlackholesItsRange) {
  // A /16 announced with next hop kNoRoute, between a routed /8 and a
  // routed /24: its range drops, the /24 inside it still forwards.
  Ipv4Fib fib;
  ASSERT_TRUE(fib.announce(p(10, 0, 8, 1)));
  ASSERT_TRUE(fib.announce(p(10, 1, 16, kNoRoute)));
  ASSERT_TRUE(fib.announce({net::Ipv4Addr(10, 1, 2, 0), 24, 2}));
  fib.commit();
  EXPECT_EQ(fib.snapshot()->lookup(net::Ipv4Addr(10, 2, 0, 1)), 1);
  EXPECT_EQ(fib.snapshot()->lookup(net::Ipv4Addr(10, 1, 3, 4)), kNoRoute);
  EXPECT_EQ(fib.snapshot()->lookup(net::Ipv4Addr(10, 1, 2, 3)), 2);

  // Withdrawn incrementally, the range falls back to the /8.
  EXPECT_TRUE(fib.withdraw(p(10, 1, 16, kNoRoute)));
  fib.commit();
  EXPECT_EQ(fib.snapshot()->lookup(net::Ipv4Addr(10, 1, 3, 4)), 1);
  EXPECT_EQ(fib.snapshot()->lookup(net::Ipv4Addr(10, 1, 2, 3)), 2);
}

TEST(FibManager, Ipv6NoRouteNextHopBlackholesItsRange) {
  // The same nesting in IPv6, with a default route under all three: the
  // kNoRoute /48 drops its range rather than answering the default.
  const auto addr = [](u64 hi) { return net::Ipv6Addr::from_words(hi, 1); };
  Ipv6Fib fib;
  ASSERT_TRUE(fib.announce({net::Ipv6Addr{}, 0, 9}));
  ASSERT_TRUE(fib.announce({addr(0x2001'0db8'0000'0000ULL), 32, 1}));
  ASSERT_TRUE(fib.announce({addr(0x2001'0db8'0001'0000ULL), 48, kNoRoute}));
  ASSERT_TRUE(fib.announce({addr(0x2001'0db8'0001'0002ULL), 64, 2}));
  fib.commit();
  EXPECT_EQ(fib.snapshot()->lookup(addr(0x3000'0000'0000'0000ULL)), 9);
  EXPECT_EQ(fib.snapshot()->lookup(addr(0x2001'0db8'0002'0000ULL)), 1);
  EXPECT_EQ(fib.snapshot()->lookup(addr(0x2001'0db8'0001'0003ULL)), kNoRoute);
  EXPECT_EQ(fib.snapshot()->lookup(addr(0x2001'0db8'0001'0002ULL)), 2);

  EXPECT_TRUE(fib.withdraw({addr(0x2001'0db8'0001'0000ULL), 48, kNoRoute}));
  fib.commit();
  EXPECT_EQ(fib.snapshot()->lookup(addr(0x2001'0db8'0001'0003ULL)), 1);
  EXPECT_EQ(fib.snapshot()->lookup(addr(0x2001'0db8'0001'0002ULL)), 2);
}

TEST(FibManager, Ipv6OutOfRangeAnnounceIsRejected) {
  const net::Ipv6Addr doc = net::Ipv6Addr::from_words(0x2001'0db8'0000'0000ULL, 0);
  Ipv6Fib fib;
  fib.announce({doc, 32, 1});
  const u64 generation = fib.commit();
  const auto published = fib.snapshot();

  EXPECT_FALSE(fib.announce({doc, 129, 2}));  // build() could never place it
  EXPECT_FALSE(fib.announce({doc, 48, static_cast<NextHop>(kNoRoute + 1)}));
  EXPECT_FALSE(fib.withdraw({doc, 129, 2}));
  EXPECT_EQ(fib.pending_updates(), 0u);
  EXPECT_EQ(fib.commit(), generation);
  EXPECT_EQ(fib.route_count(), 1u);
  EXPECT_EQ(fib.snapshot(), published);
  EXPECT_EQ(fib.snapshot()->lookup(doc), 1);
}

TEST(FibManager, WithdrawOfAQueuedAnnounceFindsIt) {
  // Announces queue until something reads the RIB. A withdraw settles
  // them first, so it finds a route announced but not yet committed.
  Ipv4Fib fib;
  fib.announce(p(10, 0, 8, 1));
  fib.announce(p(20, 0, 8, 2));
  EXPECT_TRUE(fib.withdraw(p(10, 0, 8, 1)));
  EXPECT_EQ(fib.route_count(), 1u);
  EXPECT_FALSE(fib.withdraw(p(10, 0, 8, 1)));
  fib.commit();
  EXPECT_EQ(fib.snapshot()->lookup(net::Ipv4Addr(10, 1, 1, 1)), kNoRoute);
  EXPECT_EQ(fib.snapshot()->lookup(net::Ipv4Addr(20, 1, 1, 1)), 2);

  // The same onto a table that holds routes, where the commit applies
  // the ops one at a time.
  fib.announce(p(30, 0, 8, 3));
  EXPECT_TRUE(fib.withdraw(p(30, 0, 8, 3)));
  EXPECT_EQ(fib.route_count(), 1u);
  fib.commit();
  EXPECT_EQ(fib.snapshot()->lookup(net::Ipv4Addr(30, 1, 1, 1)), kNoRoute);
  EXPECT_EQ(fib.snapshot()->prefix_count(), 1u);
}

TEST(FibManager, RouteCountIncludesQueuedAnnounces) {
  Ipv4Fib fib;
  fib.announce(p(10, 0, 8, 1));
  fib.announce(p(20, 0, 8, 2));
  fib.announce(p(10, 0, 8, 3));  // replaces the first
  EXPECT_EQ(fib.pending_updates(), 3u);
  EXPECT_EQ(fib.route_count(), 2u);
  fib.announce(p(30, 0, 8, 4));  // queued behind a settle
  EXPECT_EQ(fib.route_count(), 3u);
  EXPECT_EQ(fib.pending_updates(), 4u);
  fib.commit();
  EXPECT_EQ(fib.route_count(), 3u);
  fib.announce(p(40, 0, 8, 5));
  fib.announce(p(30, 0, 8, 6));
  EXPECT_EQ(fib.route_count(), 4u);
}

TEST(FibManager, DuplicateAnnounceInOneBatchIsCountedOnce) {
  // Onto a table that holds routes, a commit applies its ops one at a
  // time, and prefix_count() follows each announce's is_new: the settle
  // must mark the first of two equal announces new and the second not,
  // and a route the table already holds not new.
  Ipv4Fib fib;
  fib.announce(p(10, 0, 8, 1));
  fib.commit();
  fib.announce(p(20, 0, 8, 2));
  fib.announce(p(20, 0, 8, 3));
  fib.announce(p(10, 0, 8, 4));
  fib.commit();
  EXPECT_EQ(fib.snapshot()->prefix_count(), 2u);
  EXPECT_EQ(fib.route_count(), 2u);
  EXPECT_EQ(fib.snapshot()->lookup(net::Ipv4Addr(20, 1, 1, 1)), 3);
  EXPECT_EQ(fib.snapshot()->lookup(net::Ipv4Addr(10, 1, 1, 1)), 4);
}

/// Routes by their RIB key, as a writer expects the FIB to hold them.
using OracleRib = std::map<u64, Ipv4Prefix>;

std::vector<Ipv4Prefix> routes_of(const OracleRib& oracle) {
  std::vector<Ipv4Prefix> out;
  for (const auto& [key, route] : oracle) out.push_back(route);
  return out;
}

/// The published table equals a from-scratch build of `oracle` byte for
/// byte. Holds for routes no longer than /24, where a commit's ops leave
/// the same TBL24 as a build and there are no overflow chunks to lay out.
void expect_published_build(Ipv4Fib& fib, const OracleRib& oracle) {
  const std::vector<Ipv4Prefix> routes = routes_of(oracle);
  Ipv4Table expected;
  expected.build(routes);
  const auto published = fib.snapshot();
  EXPECT_EQ(fib.route_count(), routes.size());
  EXPECT_EQ(published->prefix_count(), routes.size());
  EXPECT_TRUE(std::ranges::equal(published->tbl24(), expected.tbl24()));
  EXPECT_TRUE(std::ranges::equal(published->tbl_long(), expected.tbl_long()));
}

/// The generated paper-shape RIB's prefixes no longer than /24.
std::vector<Ipv4Prefix> short_routes(std::size_t count, u64 seed) {
  std::vector<Ipv4Prefix> routes =
      generate_ipv4_rib({.prefix_count = count, .num_next_hops = 8, .seed = seed});
  std::erase_if(routes, [](const Ipv4Prefix& r) { return r.length > 24; });
  return routes;
}

TEST(FibManager, RollbackWithAnnouncesQueuedBehindRetriesIntoTheBuild) {
  // A rolled-back batch goes back to the head of the queue already
  // settled; what was queued behind it has not settled. The retry must
  // settle exactly the announces behind the batch, once each. Both the
  // load's build and an incremental commit are rolled back.
  const std::vector<Ipv4Prefix> routes = short_routes(1200, 7);
  ASSERT_GT(routes.size(), 1000u);
  OracleRib oracle;
  Ipv4Fib fib;
  const auto announce = [&](const Ipv4Prefix& r) {
    ASSERT_TRUE(fib.announce(r));
    oracle[Ipv4PrefixKey{}(r)] = r;
  };
  const auto withdraw = [&](const Ipv4Prefix& r) {
    ASSERT_TRUE(fib.withdraw(r));
    oracle.erase(Ipv4PrefixKey{}(r));
  };
  const auto renumbered = [](Ipv4Prefix r) {
    r.next_hop = static_cast<NextHop>((r.next_hop + 1) % 8);
    return r;
  };

  // The load: 500 announces and a withdraw, rolled back after the build.
  fault::FaultInjector crash_load(47);
  crash_load.add_rule({std::string(fault::Point::kFibUpdateCrashMidBatch), 0, 1, 1.0});
  for (std::size_t i = 0; i < 500; ++i) announce(routes[i]);
  withdraw(routes[3]);
  ASSERT_EQ(fib.try_commit(&crash_load).status, CommitStatus::kRolledBack);
  // Behind it: announces, a withdraw that settles them, more announces.
  for (std::size_t i = 500; i < 700; ++i) announce(routes[i]);
  announce(renumbered(routes[10]));
  withdraw(routes[20]);
  for (std::size_t i = 700; i < 800; ++i) announce(routes[i]);
  announce(routes[3]);
  EXPECT_EQ(fib.pending_updates(), 500u + 1 + 200 + 1 + 1 + 100 + 1);
  const auto load = fib.try_commit(nullptr);
  ASSERT_EQ(load.status, CommitStatus::kCommitted);
  EXPECT_EQ(load.slots_written, 0u);
  expect_published_build(fib, oracle);

  // An incremental batch, rolled back at its sixth op.
  fault::FaultInjector crash_batch(48);
  crash_batch.add_rule({std::string(fault::Point::kFibUpdateCrashMidBatch), 5, 1, 1.0});
  for (std::size_t i = 800; i < 900; ++i) announce(routes[i]);
  withdraw(routes[30]);
  announce(renumbered(routes[40]));
  ASSERT_EQ(fib.try_commit(&crash_batch).status, CommitStatus::kRolledBack);
  for (std::size_t i = 900; i < 950; ++i) announce(routes[i]);
  announce(renumbered(routes[850]));
  withdraw(routes[60]);
  for (std::size_t i = 950; i < 1000; ++i) announce(routes[i]);
  const auto retried = fib.try_commit(&crash_batch);
  ASSERT_EQ(retried.status, CommitStatus::kCommitted);
  EXPECT_GT(retried.slots_written, 0u);
  expect_published_build(fib, oracle);
}

TEST(FibManager, ConcurrentAnnouncesWithdrawsAndCommitsEndInTheOracleTable) {
  // One thread announces, re-announces and withdraws while another
  // commits in a loop, so commits settle and take batches while announces
  // keep arriving. Every withdraw must answer as the writer's own record
  // of the RIB says, and the last commit must publish that RIB's build.
  const std::vector<Ipv4Prefix> routes = short_routes(4000, 8);
  Ipv4Fib fib;
  OracleRib oracle;
  for (std::size_t i = 0; i < 1000; ++i) {
    fib.announce(routes[i]);
    oracle[Ipv4PrefixKey{}(routes[i])] = routes[i];
  }
  fib.commit();

  std::atomic<bool> done{false};
  int wrong_withdraws = 0;
  std::thread writer([&] {
    Rng rng(9);
    for (std::size_t i = 1000; i < routes.size(); ++i) {
      // Read before this round's ops, so a commit that takes them bumps it.
      const u64 seen = fib.generation();
      fib.announce(routes[i]);
      oracle[Ipv4PrefixKey{}(routes[i])] = routes[i];
      if (i % 3 == 0) {
        Ipv4Prefix again = routes[rng.next_below(i)];
        again.next_hop = static_cast<NextHop>(rng.next_below(8));
        fib.announce(again);
        oracle[Ipv4PrefixKey{}(again)] = again;
      }
      if (i % 4 == 0) {
        const Ipv4Prefix& victim = routes[rng.next_below(i)];
        const bool held = oracle.erase(Ipv4PrefixKey{}(victim)) == 1;
        if (fib.withdraw(victim) != held) ++wrong_withdraws;
      }
      // Let a commit take what is queued every so often, so the batches
      // interleave with the writes.
      if (i % 64 == 0) {
        while (fib.generation() == seen) std::this_thread::yield();
      }
    }
    done.store(true, std::memory_order_release);
  });
  std::size_t commits = 0;
  while (!done.load(std::memory_order_acquire)) {
    if (fib.try_commit(nullptr).status == CommitStatus::kCommitted) ++commits;
  }
  writer.join();
  fib.commit();

  EXPECT_EQ(wrong_withdraws, 0);
  EXPECT_GE(commits, 40u);
  EXPECT_EQ(fib.pending_updates(), 0u);
  expect_published_build(fib, oracle);
}

TEST(FibManager, ConcurrentReadersDuringCommits) {
  // Readers continuously look up while the control plane flips tables;
  // every observed result must be one of the two legal next hops.
  Ipv4Fib fib;
  fib.announce(p(10, 0, 8, 1));
  fib.commit();

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto snapshot = fib.snapshot();
      const auto nh = snapshot->lookup(net::Ipv4Addr(10, 1, 1, 1));
      if (nh != 1 && nh != 7) bad.fetch_add(1, std::memory_order_relaxed);
    }
  });

  for (int round = 0; round < 50; ++round) {
    fib.announce(p(10, 0, 8, round % 2 == 0 ? 7 : 1));
    fib.commit();
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(fib.generation(), 51u);
}

}  // namespace
}  // namespace ps::route
