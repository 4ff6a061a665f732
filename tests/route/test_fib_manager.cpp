// FIB manager: announce/withdraw semantics, double-buffered snapshots,
// generation tracking, and concurrent reader safety.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "route/fib_manager.hpp"

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
