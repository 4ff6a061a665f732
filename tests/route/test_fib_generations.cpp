// FibManager generation semantics: lock-free reads across publishes,
// transactional commits under the control.fib_update.* fault points
// (published generation untouched, batch re-queued, retry converges),
// every way a commit writes its buffer (build, journal replay, copy),
// churn telemetry, and the flat RIB on its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault_injector.hpp"
#include "route/fib_manager.hpp"
#include "route/rib_gen.hpp"
#include "telemetry/metrics.hpp"

namespace ps::route {
namespace {

net::Ipv4Addr ip(u32 v) { return net::Ipv4Addr{v}; }

Ipv4Prefix pfx(u32 addr, u8 len, NextHop nh) { return Ipv4Prefix{ip(addr), len, nh}; }

/// The published table must answer like a from-scratch build() of `rib`:
/// checked at the first, middle and last address of every prefix, the
/// addresses either side of it, and a random sample.
void expect_matches_build(const Ipv4Fib& fib, const std::vector<Ipv4Prefix>& rib) {
  Ipv4Table oracle;
  oracle.build(rib);
  std::vector<u32> probes;
  for (const auto& p : rib) {
    const u32 net = p.network();
    const u32 span = p.length == 0 ? ~u32{0} : (u32{1} << (32 - p.length)) - 1;
    probes.insert(probes.end(), {net, net + (span >> 1), net + span, net + span + 1, net - 1});
  }
  Rng rng(99);
  for (int i = 0; i < 4096; ++i) probes.push_back(rng.next_u32());
  auto reader = fib.read();
  for (const u32 a : probes) {
    ASSERT_EQ(reader->lookup(ip(a)), oracle.lookup(ip(a))) << "addr=" << ip(a).to_string();
  }
}

TEST(FibGenerations, ReaderPinnedAcrossPublishKeepsItsGeneration) {
  Ipv4Fib fib;
  fib.announce(pfx(0x0A000000, 8, 1));
  fib.commit();

  auto old_reader = fib.read();
  EXPECT_EQ(old_reader->lookup(ip(0x0A010203)), NextHop{1});

  // Two more generations while the reader stays pinned.
  fib.announce(pfx(0x0A010000, 16, 2));
  fib.commit();
  fib.announce(pfx(0x0A010200, 24, 3));
  fib.commit();
  EXPECT_GE(fib.retired_pending(), 1u);

  // The pinned reader still sees its generation, bit for bit.
  EXPECT_EQ(old_reader->lookup(ip(0x0A010203)), NextHop{1});
  // A fresh reader sees the newest.
  EXPECT_EQ(fib.read()->lookup(ip(0x0A010203)), NextHop{3});
}

TEST(FibGenerations, RetiredGenerationsDrainAfterReadersUnpin) {
  Ipv4Fib fib;
  fib.announce(pfx(0x0A000000, 8, 1));
  fib.commit();
  {
    auto reader = fib.read();
    fib.announce(pfx(0x0B000000, 8, 2));
    fib.commit();
    EXPECT_GE(fib.retired_pending(), 1u);
  }
  // Reader gone: the next commit's reclaim pass frees everything retired.
  fib.announce(pfx(0x0C000000, 8, 3));
  fib.commit();
  EXPECT_EQ(fib.retired_pending(), 0u);
}

TEST(FibGenerations, AllocFailRollsBackBeforeAnyMutation) {
  Ipv4Fib fib;
  fault::FaultInjector chaos(42);
  chaos.add_rule({std::string(fault::Point::kFibUpdateAllocFail), 0, 1, 1.0});

  fib.announce(pfx(0x0A000000, 8, 1));
  const auto failed = fib.try_commit(&chaos);
  EXPECT_EQ(failed.status, CommitStatus::kRolledBack);
  EXPECT_EQ(fib.generation(), 0u);
  EXPECT_EQ(fib.read()->lookup(ip(0x0A000001)), kNoRoute);
  EXPECT_EQ(fib.pending_updates(), 1u);

  // Fault window over: the re-queued batch commits cleanly.
  const auto retried = fib.try_commit(&chaos);
  EXPECT_EQ(retried.status, CommitStatus::kCommitted);
  EXPECT_EQ(retried.ops, 1u);
  EXPECT_EQ(fib.generation(), 1u);
  EXPECT_EQ(fib.read()->lookup(ip(0x0A000001)), NextHop{1});
}

TEST(FibGenerations, CrashMidBatchLeavesPublishedGenerationUntouched) {
  Ipv4Fib fib;
  fib.announce(pfx(0x0A000000, 8, 1));
  fib.announce(pfx(0x0B000000, 8, 2));
  fib.commit();
  const u64 committed_gen = fib.generation();

  // Crash on the 2nd op of the 3-op batch: partial apply, then rollback.
  fault::FaultInjector chaos(43);
  chaos.add_rule({std::string(fault::Point::kFibUpdateCrashMidBatch), 1, 1, 1.0});
  fib.announce(pfx(0x0A0A0000, 16, 7));
  fib.announce(pfx(0x0B0B0000, 16, 8));
  ASSERT_TRUE(fib.withdraw(pfx(0x0B000000, 8, 0)));

  const auto failed = fib.try_commit(&chaos);
  EXPECT_EQ(failed.status, CommitStatus::kRolledBack);
  EXPECT_EQ(fib.generation(), committed_gen);
  EXPECT_EQ(fib.pending_updates(), 3u);
  // Published lookups: exactly the pre-batch world.
  EXPECT_EQ(fib.read()->lookup(ip(0x0A0A0001)), NextHop{1});
  EXPECT_EQ(fib.read()->lookup(ip(0x0B000001)), NextHop{2});

  // Retry with the window passed: all three ops land atomically.
  const auto retried = fib.try_commit(&chaos);
  EXPECT_EQ(retried.status, CommitStatus::kCommitted);
  EXPECT_EQ(retried.ops, 3u);
  EXPECT_EQ(fib.read()->lookup(ip(0x0A0A0001)), NextHop{7});
  EXPECT_EQ(fib.read()->lookup(ip(0x0B0B0001)), NextHop{8});
  EXPECT_EQ(fib.read()->lookup(ip(0x0B000001)), kNoRoute);
  EXPECT_EQ(fib.route_count(), 3u);
}

TEST(FibGenerations, JournalReplayOntoRecycledBuffersMatchesRebuild) {
  // Many commits so buffers cycle publish -> retire -> pool -> replay.
  // After each commit, the published table must agree with a from-scratch
  // build of the same RIB (the differential oracle).
  Ipv4Fib fib;
  std::vector<Ipv4Prefix> rib;

  auto check = [&] {
    Ipv4Table oracle;
    oracle.build(rib);
    auto reader = fib.read();
    for (u32 a = 0x0A000000; a < 0x0A000000 + 0x40000; a += 0x1777) {
      ASSERT_EQ(reader->lookup(ip(a)), oracle.lookup(ip(a))) << "addr=" << a;
    }
  };

  for (u32 i = 0; i < 40; ++i) {
    const u8 len = static_cast<u8>(10 + (i * 7) % 23);  // 10..32
    const u32 addr = 0x0A000000 + i * 0x1663;
    const Ipv4Prefix p = pfx(addr, len, static_cast<NextHop>(1 + i % 9));
    fib.announce(p);
    rib.push_back(Ipv4Prefix{ip(p.network()), len, p.next_hop});
    if (i % 3 == 2) {
      // Withdraw the prefix announced two rounds ago.
      const Ipv4Prefix victim = rib[rib.size() - 3];
      ASSERT_TRUE(fib.withdraw(victim));
      rib.erase(rib.end() - 3);
    }
    const auto result = fib.try_commit(nullptr);
    ASSERT_EQ(result.status, CommitStatus::kCommitted);
    check();
  }
  EXPECT_EQ(fib.generation(), 40u);
}

TEST(FibGenerations, ChurnTelemetryCounts) {
  telemetry::MetricsRegistry registry;
  Ipv4Fib fib;
  fib.register_metrics(registry);

  fault::FaultInjector chaos(44);
  chaos.add_rule({std::string(fault::Point::kFibUpdateAllocFail), 0, 1, 1.0});

  fib.announce(pfx(0x0A000000, 8, 1));
  fib.announce(pfx(0x0B000000, 8, 2));
  EXPECT_EQ(fib.try_commit(&chaos).status, CommitStatus::kRolledBack);
  EXPECT_EQ(fib.try_commit(&chaos).status, CommitStatus::kCommitted);

  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.value("fib.updates_applied"), 2u);
  EXPECT_EQ(snap.value("fib.updates_rolled_back"), 2u);
  EXPECT_EQ(snap.value("fib.generation"), 1u);
  EXPECT_EQ(snap.value("fib.retired_pending"), 0u);
  bool found_hist = false;
  for (const auto& [name, h] : snap.histograms) {
    if (name == "fib.update_apply_ns") {
      found_hist = true;
      EXPECT_EQ(h.count, 1u);
    }
  }
  EXPECT_TRUE(found_hist);
}

TEST(FibGenerations, Ipv6FullRebuildPathHonorsFaultPoints) {
  Ipv6Fib fib;
  static_assert(!Ipv6Fib::kIncremental);
  fault::FaultInjector chaos(45);
  chaos.add_rule({std::string(fault::Point::kFibUpdateCrashMidBatch), 0, 1, 1.0});

  Ipv6Prefix p;
  p.addr = net::Ipv6Addr::from_words(0x2001'0db8'0000'0000ULL, 0);
  p.length = 32;
  p.next_hop = 4;
  fib.announce(p);
  EXPECT_EQ(fib.try_commit(&chaos).status, CommitStatus::kRolledBack);
  EXPECT_EQ(fib.generation(), 0u);
  EXPECT_EQ(fib.try_commit(&chaos).status, CommitStatus::kCommitted);
  EXPECT_EQ(fib.generation(), 1u);
  EXPECT_EQ(fib.read()->lookup(p.addr), NextHop{4});
}

TEST(FibGenerations, BulkLoadBuildsAndTheNextCommitCopiesThePublishedTable) {
  auto rib = generate_ipv4_rib({.prefix_count = 3000, .num_next_hops = 8, .seed = 5});
  Ipv4Fib fib;
  for (const auto& p : rib) ASSERT_TRUE(fib.announce(p));

  // Onto the empty generation 0 the load is one build, not per-op work.
  // The pool is empty, so the build constructs a fresh buffer that nothing
  // filled first; it must equal a from-scratch build byte for byte.
  const auto load = fib.try_commit(nullptr);
  EXPECT_EQ(load.status, CommitStatus::kCommitted);
  EXPECT_EQ(load.ops, rib.size());
  EXPECT_EQ(load.slots_written, 0u);
  EXPECT_EQ(fib.read()->prefix_count(), rib.size());
  {
    Ipv4Table oracle;
    oracle.build(rib);
    const auto published = fib.snapshot();
    EXPECT_EQ(published->overflow_chunks(), oracle.overflow_chunks());
    EXPECT_TRUE(std::ranges::equal(published->tbl24(), oracle.tbl24()));
    EXPECT_TRUE(std::ranges::equal(published->tbl_long(), oracle.tbl_long()));
  }
  expect_matches_build(fib, rib);

  // The recycled generation-0 buffer lags by a batch no journal holds, so
  // the next commit copies the published table, then applies its ops.
  const Ipv4Prefix host = pfx(0x0A0B0C0D, 32, 3);
  fib.announce(host);
  rib.push_back(host);
  ASSERT_TRUE(fib.withdraw(rib.front()));
  rib.erase(rib.begin());
  const auto next = fib.try_commit(nullptr);
  EXPECT_EQ(next.status, CommitStatus::kCommitted);
  EXPECT_EQ(next.ops, 2u);
  EXPECT_GT(next.slots_written, 0u);
  EXPECT_EQ(fib.read()->prefix_count(), rib.size());
  expect_matches_build(fib, rib);

  // And the one after replays the journal onto the load's buffer.
  const Ipv4Prefix more = pfx(0x0A0B0C00, 24, 4);
  fib.announce(more);
  rib.push_back(more);
  EXPECT_EQ(fib.try_commit(nullptr).status, CommitStatus::kCommitted);
  expect_matches_build(fib, rib);
}

TEST(FibGenerations, RetryAfterCrashCopiesOntoAFreshBuffer) {
  auto rib = generate_ipv4_rib({.prefix_count = 3000, .num_next_hops = 8, .seed = 6});
  Ipv4Fib fib;
  for (const auto& p : rib) fib.announce(p);
  fib.commit();

  // The commit takes the pooled generation-0 buffer, copies the published
  // table into it, and dies on the batch's second op; the buffer is dropped.
  fault::FaultInjector chaos(46);
  chaos.add_rule({std::string(fault::Point::kFibUpdateCrashMidBatch), 1, 1, 1.0});
  const std::vector<Ipv4Prefix> batch = {pfx(0x0A000000, 8, 1), pfx(0x0A0A0A80, 25, 2),
                                         pfx(0xC0A80000, 16, 3)};
  for (const auto& p : batch) fib.announce(p);
  EXPECT_EQ(fib.try_commit(&chaos).status, CommitStatus::kRolledBack);
  EXPECT_EQ(fib.generation(), 1u);
  expect_matches_build(fib, rib);

  // The pool is empty, so the retry gets a fresh buffer and copies again.
  rib.insert(rib.end(), batch.begin(), batch.end());
  const auto retried = fib.try_commit(&chaos);
  EXPECT_EQ(retried.status, CommitStatus::kCommitted);
  EXPECT_EQ(retried.ops, 3u);
  EXPECT_EQ(fib.generation(), 2u);
  expect_matches_build(fib, rib);
}

TEST(FibGenerations, BufferStalerThanTheJournalCopiesThePublishedTable) {
  // A reader pinned across one commit makes the manager allocate a third
  // buffer. Once the reader is gone, two buffers return to the pool; the
  // pool hands out the last returned, so one of them sits unused while
  // more than kJournalDepth (64) commits go by. A second pinned reader
  // then forces that stale buffer into use, and since the journal no
  // longer reaches back to it, the commit must copy the published table.
  // (Pinning one reader across all 64 commits would hold 64 retired
  // 48 MiB generations at once.)
  std::vector<Ipv4Prefix> rib = {pfx(0x0A000000, 8, 1)};
  Ipv4Fib fib;
  fib.announce(rib.front());
  fib.commit();
  u32 next_net = 0x0B000000;
  const auto commit_one = [&] {
    const Ipv4Prefix p = pfx(next_net, 24, static_cast<NextHop>(next_net >> 8 & 7));
    next_net += 0x100;
    fib.announce(p);
    rib.push_back(p);
    ASSERT_EQ(fib.try_commit(nullptr).status, CommitStatus::kCommitted);
  };

  commit_one();
  {
    auto reader = fib.read();
    commit_one();
  }
  for (int i = 0; i < 70; ++i) commit_one();
  expect_matches_build(fib, rib);
  {
    auto reader = fib.read();
    commit_one();
    commit_one();  // the stale buffer
    expect_matches_build(fib, rib);
  }
  commit_one();
  expect_matches_build(fib, rib);
}

/// Sends an IPv4 RIB key to the slot of its first octet, so a test picks
/// every route's home slot.
struct FirstOctetHash {
  std::size_t operator()(u64 key) const { return static_cast<std::size_t>(key >> 32); }
};
using SmallRib = Rib<Ipv4Prefix, Ipv4PrefixKey, FirstOctetHash>;

/// Every route in `routes` is found with its next hop, and nothing else is
/// stored.
void expect_holds(const SmallRib& rib, const std::vector<Ipv4Prefix>& routes) {
  EXPECT_EQ(rib.size(), routes.size());
  EXPECT_EQ(rib.routes().size(), routes.size());
  for (const auto& p : routes) {
    const Ipv4Prefix* found = rib.find(p);
    ASSERT_NE(found, nullptr) << p.addr.to_string() << "/" << int{p.length};
    EXPECT_EQ(found->next_hop, p.next_hop);
  }
}

TEST(FibRib, EraseInsideAProbeChainKeepsEveryOtherRoute) {
  // Eight slots, four routes. Homes 1, 1, 3, 1 lay them out in slots
  // 1, 2, 3, 4: erasing slot 2 must move the home-1 route at slot 4 back
  // and leave the home-3 route where it is.
  SmallRib rib(8);
  const Ipv4Prefix a = pfx(0x01000000, 8, 1);
  const Ipv4Prefix b = pfx(0x01010000, 16, 2);
  const Ipv4Prefix c = pfx(0x03000000, 8, 3);
  const Ipv4Prefix d = pfx(0x01020000, 16, 4);
  for (const auto& p : {a, b, c, d}) EXPECT_TRUE(rib.insert_or_assign(p));
  expect_holds(rib, {a, b, c, d});

  const auto erased = rib.erase(b);
  ASSERT_TRUE(erased.has_value());
  EXPECT_EQ(erased->next_hop, b.next_hop);
  expect_holds(rib, {a, c, d});
  EXPECT_EQ(rib.find(b), nullptr);
  EXPECT_FALSE(rib.erase(b).has_value());
  expect_holds(rib, {a, c, d});

  // Replacing a next hop keeps the size; re-adding the erased key grows it.
  EXPECT_FALSE(rib.insert_or_assign(pfx(0x01020000, 16, 9)));
  EXPECT_TRUE(rib.insert_or_assign(b));
  expect_holds(rib, {a, b, c, pfx(0x01020000, 16, 9)});
}

TEST(FibRib, EraseAcrossTheWrapKeepsEveryOtherRoute) {
  // Homes 7, 7, 0, 7 in eight slots lay the routes out in slots 7, 0, 1,
  // 2: the run wraps. Erasing slot 7 shifts all three back across the
  // wrap; erasing slot 0 shifts the rest back within it.
  SmallRib rib(8);
  const Ipv4Prefix a = pfx(0x07000000, 8, 1);
  const Ipv4Prefix b = pfx(0x07010000, 16, 2);
  const Ipv4Prefix c = pfx(0x00010000, 16, 3);
  const Ipv4Prefix d = pfx(0x07020000, 16, 4);
  for (const auto& p : {a, b, c, d}) EXPECT_TRUE(rib.insert_or_assign(p));
  expect_holds(rib, {a, b, c, d});

  ASSERT_TRUE(rib.erase(a).has_value());
  expect_holds(rib, {b, c, d});
  ASSERT_TRUE(rib.erase(c).has_value());
  expect_holds(rib, {b, d});
  EXPECT_TRUE(rib.insert_or_assign(a));
  ASSERT_TRUE(rib.erase(b).has_value());
  expect_holds(rib, {a, d});
}

TEST(FibRib, OneLongCollidingRunSurvivesGrowthAndErase) {
  // Every route has home slot 5 at every size, so growth re-lays one run
  // and each erase shifts what follows it.
  SmallRib rib(8);
  std::vector<Ipv4Prefix> routes;
  for (u32 i = 0; i < 100; ++i) {
    routes.push_back(pfx(0x05000000 | (i << 8), 24, static_cast<NextHop>(i)));
    EXPECT_TRUE(rib.insert_or_assign(routes.back()));
  }
  expect_holds(rib, routes);
  std::vector<Ipv4Prefix> kept;
  for (std::size_t i = 0; i < routes.size(); ++i) {
    if (i % 3 == 0) {
      ASSERT_TRUE(rib.erase(routes[i]).has_value());
    } else {
      kept.push_back(routes[i]);
    }
  }
  expect_holds(rib, kept);
}

TEST(FibRib, ReserveThenInsertsNeverRehash) {
  // reserve(n) sizes the array once: the inserts that bring the RIB up to
  // n routes, from empty or on top of routes it holds, never double it.
  for (std::size_t held : {0, 37}) {
    for (std::size_t n = held + 1; n <= held + 600; ++n) {
      Rib<Ipv4Prefix, Ipv4PrefixKey> rib;
      u32 next = 0;
      const auto insert_one = [&] { return rib.insert_or_assign(pfx(next++ << 8, 24, 1)); };
      for (std::size_t i = 0; i < held; ++i) ASSERT_TRUE(insert_one());
      rib.reserve(n);
      const std::size_t capacity = rib.capacity();
      EXPECT_LE(capacity, std::max<std::size_t>(16, 4 * n));
      while (rib.size() < n) ASSERT_TRUE(insert_one());
      ASSERT_EQ(rib.capacity(), capacity) << "held=" << held << " n=" << n;
    }
  }
}

TEST(FibRib, ReserveBelowTheCurrentSizeDoesNothing) {
  SmallRib rib(8);
  std::vector<Ipv4Prefix> routes;
  for (u32 i = 0; i < 100; ++i) {
    routes.push_back(pfx((i % 250) << 24 | i << 8, 24, static_cast<NextHop>(i)));
    ASSERT_TRUE(rib.insert_or_assign(routes.back()));
  }
  const std::size_t capacity = rib.capacity();
  for (std::size_t n : {0, 1, 50, 99, 100}) {
    rib.reserve(n);
    EXPECT_EQ(rib.capacity(), capacity) << "n=" << n;
  }
  expect_holds(rib, routes);
}

/// RibHash, except that one key in eight goes to one of the eight slots
/// below a multiple of 2^13. Every part boundary of a bulk insert is such
/// a multiple, and so is the array's end, so runs of those keys cross
/// parts and wrap around the array.
struct CrowdingHash {
  std::size_t operator()(u64 key) const {
    const std::size_t h = RibHash{}(key);
    return h % 8 == 0 ? (h | 0x1fff) - (h >> 61) : h;
  }
};

/// An announce as FibManager queues it, as far as the RIB sees it.
struct Announce {
  Ipv4Prefix prefix;
  bool is_new = false;
};

/// Bulk-inserts `n` announces drawn with repeats from one pool of
/// prefixes into a RIB holding `held` routes from the same pool, and
/// checks every op's is_new, the size and every pool key against
/// insert_or_assign one op at a time; then erases a sample from both and
/// checks again. `reserve_first` sizes the RIB for the batch beforehand,
/// so that the bulk insert keeps its array and inserts in order on the
/// calling thread.
template <typename Hash>
void expect_bulk_matches_one_by_one(std::size_t held, std::size_t n, bool reserve_first) {
  SCOPED_TRACE(::testing::Message() << "held=" << held << " n=" << n
                                    << " reserve_first=" << reserve_first);
  Rng rng(n * 31 + held);
  std::vector<Ipv4Prefix> pool((held + n) * 3 / 4 + 1);
  for (auto& p : pool) {
    p = pfx(rng.next_u32(), static_cast<u8>(8 + rng.next_below(25)), 0);
  }
  const auto draw = [&] {
    Ipv4Prefix p = pool[rng.next_below(pool.size())];
    p.next_hop = static_cast<NextHop>(rng.next_below(kNoRoute));
    return p;
  };
  Rib<Ipv4Prefix, Ipv4PrefixKey, Hash> bulk;
  Rib<Ipv4Prefix, Ipv4PrefixKey, Hash> one;
  for (std::size_t i = 0; i < held; ++i) {
    const Ipv4Prefix p = draw();
    ASSERT_EQ(bulk.insert_or_assign(p), one.insert_or_assign(p));
  }
  if (reserve_first) bulk.reserve(bulk.size() + n);
  std::vector<Announce> ops(n);
  for (auto& op : ops) op.prefix = draw();
  bulk.insert_all(std::span<Announce>(ops));
  std::size_t wrong = 0;
  for (const auto& op : ops) wrong += op.is_new != one.insert_or_assign(op.prefix);
  EXPECT_EQ(wrong, 0u);
  ASSERT_EQ(bulk.size(), one.size());
  EXPECT_EQ(bulk.routes().size(), one.size());

  const auto expect_same_routes = [&] {
    for (const auto& p : pool) {
      const Ipv4Prefix* got = bulk.find(p);
      const Ipv4Prefix* want = one.find(p);
      ASSERT_EQ(got == nullptr, want == nullptr) << p.addr.to_string() << "/" << int{p.length};
      if (want != nullptr) {
        ASSERT_EQ(got->next_hop, want->next_hop);
      }
    }
  };
  expect_same_routes();
  for (std::size_t i = 0; i < pool.size(); i += 5) {
    ASSERT_EQ(bulk.erase(pool[i]).has_value(), one.erase(pool[i]).has_value());
  }
  EXPECT_EQ(bulk.size(), one.size());
  expect_same_routes();
}

TEST(FibRib, BulkInsertEqualsOneByOneInserts) {
  constexpr std::size_t kPart = Rib<Ipv4Prefix, Ipv4PrefixKey>::kPartOps;
  // Below two parts a batch is the in-order loop; from two parts on, a
  // batch that grows the array runs on every core.
  for (const std::size_t n : {std::size_t{1}, std::size_t{100}, 2 * kPart - 1, 2 * kPart,
                              std::size_t{70'000}, std::size_t{300'000}}) {
    for (const std::size_t held : {std::size_t{0}, std::size_t{5'000}}) {
      expect_bulk_matches_one_by_one<RibHash>(held, n, false);
      expect_bulk_matches_one_by_one<RibHash>(held, n, true);
    }
  }
}

TEST(FibRib, BulkInsertWithCrowdedHomeSlotsEqualsOneByOneInserts) {
  // Runs of crowded keys reach past their part's end and past the
  // array's last slot, so those inserts wait for the calling thread.
  constexpr std::size_t kPart = Rib<Ipv4Prefix, Ipv4PrefixKey>::kPartOps;
  for (const std::size_t n : {2 * kPart, 5 * kPart, std::size_t{70'000}, std::size_t{300'000}}) {
    for (const std::size_t held : {std::size_t{0}, std::size_t{5'000}}) {
      expect_bulk_matches_one_by_one<CrowdingHash>(held, n, false);
      expect_bulk_matches_one_by_one<CrowdingHash>(held, n, true);
    }
  }
  // Eight home slots for every key: one run that wraps, all of it in the
  // last part and past it.
  struct LastSlots {
    std::size_t operator()(u64 key) const { return ~std::size_t{0} - RibHash{}(key) % 8; }
  };
  expect_bulk_matches_one_by_one<LastSlots>(0, 2 * kPart, false);
  expect_bulk_matches_one_by_one<LastSlots>(100, 2 * kPart + 100, false);
}

}  // namespace
}  // namespace ps::route
