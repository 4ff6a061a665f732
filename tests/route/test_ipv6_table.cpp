// IPv6 binary search on prefix lengths: correctness of the scalar and
// batched lookups against the trie reference, probe bounds (<= 7 for
// /16../64 RIBs, exactly 8 to reach a /128), the sorted sweep's edge cases
// and the pinned layout of the paper-scale table.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "common/rng.hpp"
#include "layout_hash.hpp"
#include "route/ipv6_table.hpp"
#include "route/rib_gen.hpp"

namespace ps::route {
namespace {

Ipv6Prefix p6(u64 hi, u8 len, NextHop nh) {
  return {net::Ipv6Addr::from_words(hi, 0), len, nh};
}

/// Distinct (level, key) markers of `rib`, counted without the table:
/// every level where a prefix's binary search turns toward longer
/// prefixes, less the keys a prefix of that length holds.
std::size_t count_markers(std::span<const Ipv6Prefix> rib) {
  std::set<std::tuple<int, u64, u64>> prefix_keys;
  std::set<std::tuple<int, u64, u64>> marker_keys;
  for (const auto& p : rib) {
    if (p.length == 0) continue;
    int low = 1, high = 128;
    while (true) {
      const int mid = (low + high) / 2;
      const Key128 key = mask128(p.addr.hi64(), p.addr.lo64(), mid);
      if (mid == p.length) {
        prefix_keys.insert({mid, key.hi, key.lo});
        break;
      }
      if (p.length > mid) {
        marker_keys.insert({mid, key.hi, key.lo});
        low = mid + 1;
      } else {
        high = mid - 1;
      }
    }
  }
  return static_cast<std::size_t>(std::count_if(
      marker_keys.begin(), marker_keys.end(),
      [&prefix_keys](const auto& key) { return !prefix_keys.contains(key); }));
}

/// Builds `rib` and checks it against the trie oracle at each prefix's
/// network and at that network with any one bit flipped, so every marker
/// on a prefix's search path is hit by an address that then leaves it.
Ipv6Table build_checked(std::span<const Ipv6Prefix> rib) {
  Ipv6Table table;
  table.build(rib);
  Ipv6ReferenceLpm reference;
  reference.build(rib);
  for (const auto& p : rib) {
    for (int bit = -1; bit < 128; ++bit) {
      const u64 flip_hi = bit >= 0 && bit < 64 ? u64{1} << (63 - bit) : 0;
      const u64 flip_lo = bit >= 64 ? u64{1} << (127 - bit) : 0;
      const auto addr =
          net::Ipv6Addr::from_words(p.addr.hi64() ^ flip_hi, p.addr.lo64() ^ flip_lo);
      EXPECT_EQ(table.lookup(addr), reference.lookup(addr)) << addr.to_string();
    }
  }
  EXPECT_EQ(table.marker_count(), count_markers(rib));
  return table;
}

TEST(Mask128, Boundaries) {
  const u64 all = ~u64{0};
  EXPECT_EQ(mask128(all, all, 0), (Key128{0, 0}));
  EXPECT_EQ(mask128(all, all, 64), (Key128{all, 0}));
  EXPECT_EQ(mask128(all, all, 128), (Key128{all, all}));
  EXPECT_EQ(mask128(all, all, 1), (Key128{u64{1} << 63, 0}));
  EXPECT_EQ(mask128(all, all, 65), (Key128{all, u64{1} << 63}));
  EXPECT_EQ(mask128(all, all, 127), (Key128{all, all & ~u64{1}}));
}

TEST(Ipv6Table, EmptyTable) {
  Ipv6Table table;
  table.build({});
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(1, 2)), kNoRoute);
}

TEST(Ipv6Table, BasicLongestPrefixMatch) {
  Ipv6Table table;
  const Ipv6Prefix prefixes[] = {
      p6(0x2001'0000'0000'0000ULL, 16, 1),
      p6(0x2001'0db8'0000'0000ULL, 32, 2),
      p6(0x2001'0db8'aaaa'0000ULL, 48, 3),
  };
  table.build(prefixes);

  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(0x2001'ffff'0000'0000ULL, 0)), 1);
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(0x2001'0db8'ffff'0000ULL, 0)), 2);
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(0x2001'0db8'aaaa'bbbbULL, 0)), 3);
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(0x3001'0000'0000'0000ULL, 0)), kNoRoute);
}

TEST(Ipv6Table, AtMostSevenProbes) {
  const auto rib = generate_ipv6_rib(5000, 8, 11);
  Ipv6Table table;
  table.build(rib);

  Rng rng(12);
  for (int i = 0; i < 2000; ++i) {
    int probes = 0;
    table.lookup(net::Ipv6Addr::from_words(rng.next_u64(), rng.next_u64()), &probes);
    EXPECT_LE(probes, 7);
    EXPECT_GE(probes, 1);
  }
}

TEST(Ipv6Table, HostRouteTakesEightProbes) {
  // Lengths 1..128 make the search tree 8 deep: a /128 is reached through
  // markers at 64, 96, 112, 120, 124, 126 and 127, then the prefix itself.
  const auto host = net::Ipv6Addr::from_words(0x2001'0db8'0000'0000ULL, 1);
  const Ipv6Prefix prefixes[] = {{host, 128, 5}};
  Ipv6Table table;
  table.build(prefixes);

  int probes = 0;
  EXPECT_EQ(table.lookup(host, &probes), 5);
  EXPECT_EQ(probes, 8);

  const u64 keys[] = {host.hi64(), host.lo64()};
  NextHop nh = kNoRoute;
  u64 total_probes = 0;
  table.lookup_batch(keys, &nh, 1, &total_probes);
  EXPECT_EQ(nh, 5);
  EXPECT_EQ(total_probes, 8u);
}

TEST(Ipv6Table, LastDuplicatePrefixWins) {
  // 2001:db8::/32 is given twice, next hop 2 last. The /80's search drops
  // a marker at /64 whose best-matching prefix is that /32, so the
  // duplicate must resolve the same way in markers as in prefix slots.
  const Ipv6Prefix prefixes[] = {
      p6(0x2001'0db8'0000'0000ULL, 32, 1),  // 2001:db8::/32
      p6(0x2001'0db8'0001'0000ULL, 48, 3),  // 2001:db8:1::/48
      {net::Ipv6Addr::from_words(0x2001'0db8'0005'0006ULL, 0x0007'0000'0000'0000ULL), 80,
       4},                                  // 2001:db8:5:6:7::/80
      p6(0x2001'0db8'0000'0000ULL, 32, 2),  // 2001:db8::/32 again
  };
  Ipv6Table table;
  table.build(prefixes);
  EXPECT_EQ(table.prefix_count(), 3u);  // the duplicate counts once

  // 2001:db8:2::1
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(0x2001'0db8'0002'0000ULL, 1)), 2);
  // 2001:db8:1::1
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(0x2001'0db8'0001'0000ULL, 1)), 3);
  // 2001:db8:5:6:7::1
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(0x2001'0db8'0005'0006ULL,
                                                   0x0007'0000'0000'0001ULL)),
            4);
  // 2001:db8:5:6:8::1: answered by the level-64 marker's best-matching prefix.
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(0x2001'0db8'0005'0006ULL,
                                                   0x0008'0000'0000'0001ULL)),
            2);
}

TEST(Ipv6Table, DefaultRoute) {
  Ipv6Table table;
  const Ipv6Prefix prefixes[] = {{net::Ipv6Addr{}, 0, 9}, p6(0x2001'0000'0000'0000ULL, 16, 1)};
  table.build(prefixes);
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(0x2001'0000'0000'0001ULL, 0)), 1);
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(0x9999'0000'0000'0000ULL, 0)), 9);
}

TEST(Ipv6Table, PrefixLongerThan64Bits) {
  Ipv6Table table;
  const Ipv6Prefix prefixes[] = {
      {net::Ipv6Addr::from_words(0xaaaa'0000'0000'0000ULL, 0), 16, 1},
      {net::Ipv6Addr::from_words(0xaaaa'0000'0000'0000ULL, 0xbbbb'0000'0000'0000ULL), 80, 2},
  };
  table.build(prefixes);
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(0xaaaa'0000'0000'0000ULL,
                                                   0xbbbb'1234'0000'0000ULL)),
            2);
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(0xaaaa'0000'0000'0000ULL,
                                                   0xcccc'0000'0000'0000ULL)),
            1);
}

TEST(Ipv6Table, MarkersDoNotCreateFalsePositives) {
  // A marker alone (no real prefix covering the address) must not return a
  // route. /48 inserts markers at shorter search levels; an address
  // sharing only those marker bits but diverging later must miss.
  Ipv6Table table;
  const Ipv6Prefix prefixes[] = {p6(0x2001'0db8'aaaa'0000ULL, 48, 3)};
  table.build(prefixes);
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(0x2001'0db8'aaaa'1234ULL, 5)), 3);
  // Shares the first 32 bits (a marker level) but not all 48.
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(0x2001'0db8'bbbb'0000ULL, 0)), kNoRoute);
}

TEST(Ipv6Table, MarkerCountIgnoresInsertionOrder) {
  // The /96's search passes level 64 on its way right, at exactly the key
  // the /64 occupies: one prefix slot, no marker, whichever comes first.
  // The slot holds the /64's next hop, not the marker's /16.
  const Ipv6Prefix p16 = p6(0x2001'0000'0000'0000ULL, 16, 3);
  const Ipv6Prefix p64 = p6(0x2001'0db8'aaaa'bbbbULL, 64, 1);
  const Ipv6Prefix p96 = {
      net::Ipv6Addr::from_words(0x2001'0db8'aaaa'bbbbULL, 0x1234'5678'0000'0000ULL), 96, 2};
  const Ipv6Prefix forward[] = {p16, p64, p96};
  const Ipv6Prefix backward[] = {p96, p64, p16};
  const Ipv6Table a = build_checked(forward);
  const Ipv6Table b = build_checked(backward);
  EXPECT_EQ(a.marker_count(), 0u);
  EXPECT_EQ(b.marker_count(), 0u);
  EXPECT_EQ(layout_hash(a), layout_hash(b));
  // 2001:db8:aaaa:bbbb:ffff::
  EXPECT_EQ(a.lookup(net::Ipv6Addr::from_words(0x2001'0db8'aaaa'bbbbULL,
                                               0xffff'0000'0000'0000ULL)),
            1);
}

TEST(Ipv6Table, SweepPopsSeveralCoversAtOnce) {
  // A /16../80 chain, then a /96 under the /16 alone: the sweep pops the
  // /80, /64, /48 and /32 at once. The /96's marker at 64 is the only new
  // marker in the table (the /48's at 32 and the /80's at 64 land on
  // prefix keys), and its best-matching prefix is the /16.
  const Ipv6Prefix prefixes[] = {
      p6(0x2001'0000'0000'0000ULL, 16, 1),
      p6(0x2001'0db8'0000'0000ULL, 32, 2),
      p6(0x2001'0db8'aaaa'0000ULL, 48, 3),
      p6(0x2001'0db8'aaaa'bbbbULL, 64, 4),
      {net::Ipv6Addr::from_words(0x2001'0db8'aaaa'bbbbULL, 0xcccc'0000'0000'0000ULL), 80, 5},
      {net::Ipv6Addr::from_words(0x2001'eeee'0000'0000ULL, 0x1234'5678'0000'0000ULL), 96, 6},
  };
  const Ipv6Table table = build_checked(prefixes);
  EXPECT_EQ(table.prefix_count(), 6u);
  EXPECT_EQ(table.marker_count(), 1u);
  // 2001:eeee::ffff:0:0:0 hits the marker and misses the /96.
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(0x2001'eeee'0000'0000ULL,
                                                   0xffff'0000'0000'0000ULL)),
            1);
}

TEST(Ipv6Table, MarkerTakesACoverOneLevelShorter) {
  // The /63's search leaves markers at 32, 48, 56, 60 and 62, with no
  // cover. The /96's marker at 64 is covered by the /63, one level
  // shorter, and must take its next hop.
  const Ipv6Prefix prefixes[] = {
      p6(0x2001'0db8'aaaa'bbbaULL, 63, 1),
      {net::Ipv6Addr::from_words(0x2001'0db8'aaaa'bbbbULL, 0x1234'5678'0000'0000ULL), 96, 2},
  };
  const Ipv6Table table = build_checked(prefixes);
  EXPECT_EQ(table.marker_count(), 6u);
  // 2001:db8:aaaa:bbbb:ffff::
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(0x2001'0db8'aaaa'bbbbULL,
                                                   0xffff'0000'0000'0000ULL)),
            1);
}

TEST(Ipv6Table, DefaultRouteGivenTwice) {
  // The second ::/0 wins, in the default route and in the best-matching
  // prefix of the /96's uncovered marker at 64.
  const Ipv6Prefix prefixes[] = {
      {net::Ipv6Addr{}, 0, 5},
      p6(0x2001'0db8'0000'0000ULL, 32, 1),
      {net::Ipv6Addr::from_words(0x3000'0000'0000'0000ULL, 0x0001'0000'0000'0000ULL), 96, 3},
      {net::Ipv6Addr{}, 0, 7},
  };
  const Ipv6Table table = build_checked(prefixes);
  EXPECT_EQ(table.default_route(), 7);
  EXPECT_EQ(table.prefix_count(), 3u);
  EXPECT_EQ(table.marker_count(), 1u);
  // 3000::ffff:0:0:0 hits the marker and misses the /96.
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(0x3000'0000'0000'0000ULL,
                                                   0xffff'0000'0000'0000ULL)),
            7);
}

TEST(Ipv6Table, SweepRunsJoinAtSixteenBitCuts) {
  // build() sweeps about 64 runs of the sorted routes, cut only where the
  // top 16 bits change. Here 128 /16s hold three to five routes each, so
  // a run is about two /16s. Two thirds of the /16s begin with a /12 or a
  // /16 given twice, and those end with a /64 given twice, so duplicates
  // sit on both sides of most cuts. The /4, the /6 and the two /8s are
  // shorter than /16 and cover routes in many runs. The /12s of
  // neighbouring /16s share a marker at level 8, which several runs
  // reach; under 20::/8 that key is the /8's own slot. The other third of
  // the /16s hold no route that covers their /24 or /48, so those routes'
  // markers take their best-matching prefix from a shorter route, most
  // often one in an earlier run.
  std::vector<Ipv6Prefix> rib = {
      {net::Ipv6Addr{}, 0, 1},
      p6(0x2000'0000'0000'0000ULL, 4, 2),
      p6(0x2000'0000'0000'0000ULL, 6, 3),
      p6(0x2000'0000'0000'0000ULL, 8, 4),
      p6(0x2600'0000'0000'0000ULL, 8, kNoRoute),
  };
  for (u64 g = 0; g < 128; ++g) {
    const u64 top = (0x2000 + (g << 4)) << 48;
    const auto nh = [g](u64 k) { return static_cast<NextHop>(10 + (g * 7 + k) % 40); };
    switch (g % 3) {
      case 0:
        rib.push_back(p6(top, 12, nh(0)));
        rib.push_back(p6(top, 12, nh(1)));
        break;
      case 1:
        rib.push_back(p6(top, 16, nh(2)));
        rib.push_back(p6(top, 16, nh(3)));
        break;
      default:
        rib.push_back(p6(top | 0x0000'cd00'0000'0000ULL, 24, nh(4)));
        break;
    }
    rib.push_back(p6(top | 0x0000'abcd'0012'0000ULL, 48, nh(5)));
    rib.push_back(p6(top | 0x0000'abcd'0012'3456ULL, 64, nh(6)));
    if (g % 3 != 2) rib.push_back(p6(top | 0x0000'abcd'0012'3456ULL, 64, nh(7)));
  }
  const Ipv6Table table = build_checked(rib);
  EXPECT_EQ(table.default_route(), 1);
  EXPECT_EQ(table.prefix_count(), 5u + 3u * 128u);
  // 21a0::/16 (g = 26) holds no /12 or /16, and 21::/8 is not in the RIB,
  // so outside its /24 and /48 the /6 from run 0 answers.
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(0x21a0'abcd'0013'0000ULL, 0)), 3);
}

/// Prefixes of every length 0..128 with random low words: a default
/// route, /128 host routes, and prefixes nested inside earlier ones so
/// markers and best-matching prefixes reach past bit 64 — the part of the
/// table generate_ipv6_rib (/16../64, zero low word) never builds. One
/// next-hop value in 32 stands for kNoRoute, so some ranges are
/// blackholed.
std::vector<Ipv6Prefix> full_range_rib(u64 seed) {
  Rng rng(seed);
  std::vector<Ipv6Prefix> rib = {{net::Ipv6Addr{}, 0, 31}};
  while (rib.size() < 1500) {
    u64 hi = rng.next_u64();
    u64 lo = rng.next_u64();
    const u8 length =
        rib.size() % 4 == 0 ? u8{128} : static_cast<u8>(1 + rng.next_below(128));
    if (rng.next_below(2) == 0) {
      // Extend a random earlier prefix's bits to the new length.
      const auto& parent = rib[rng.next_below(rib.size())];
      if (parent.length < length) {
        const Key128 keep = mask128(~u64{0}, ~u64{0}, parent.length);
        hi = (parent.addr.hi64() & keep.hi) | (hi & ~keep.hi);
        lo = (parent.addr.lo64() & keep.lo) | (lo & ~keep.lo);
      }
    }
    const Key128 key = mask128(hi, lo, length);
    const auto next_hop = static_cast<NextHop>(rng.next_below(32));
    rib.push_back({net::Ipv6Addr::from_words(key.hi, key.lo), length,
                   next_hop == 0 ? kNoRoute : next_hop});
  }
  return rib;
}

/// Both lookup paths must agree with the trie oracle on random addresses
/// and on addresses inside (or one bit off) random prefixes.
void expect_matches_reference(const std::vector<Ipv6Prefix>& rib, u64 seed) {
  Ipv6Table table;
  table.build(rib);
  Ipv6ReferenceLpm reference;
  reference.build(rib);

  Rng rng(seed);
  std::vector<u64> keys;
  for (int i = 0; i < 1500; ++i) {
    u64 hi = rng.next_u64();
    u64 lo = rng.next_u64();
    if (i % 2 == 0) {
      // Land inside a random prefix to exercise hits and near-misses.
      const auto& prefix = rib[rng.next_below(rib.size())];
      const Key128 keep = mask128(~u64{0}, ~u64{0}, prefix.length);
      hi = (prefix.addr.hi64() & keep.hi) | (hi & ~keep.hi);
      lo = (prefix.addr.lo64() & keep.lo) | (lo & ~keep.lo);
      if (i % 4 == 0) lo ^= 1;
    }
    keys.push_back(hi);
    keys.push_back(lo);
  }
  std::vector<NextHop> batch(keys.size() / 2);
  table.lookup_batch(keys.data(), batch.data(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto addr = net::Ipv6Addr::from_words(keys[2 * i], keys[2 * i + 1]);
    const NextHop want = reference.lookup(addr);
    EXPECT_EQ(table.lookup(addr), want) << addr.to_string();
    EXPECT_EQ(batch[i], want) << addr.to_string();
  }
}

// Property sweep: the binary-search table must agree with the trie oracle.
class Ipv6TablePropertyTest : public ::testing::TestWithParam<u64> {};

TEST_P(Ipv6TablePropertyTest, MatchesReferenceTrie) {
  expect_matches_reference(generate_ipv6_rib(1500, 32, GetParam()), GetParam() + 500);
  expect_matches_reference(full_range_rib(GetParam() + 1000), GetParam() + 1500);
}

TEST_P(Ipv6TablePropertyTest, UnsortedInputBuildsTheSortedTable) {
  // full_range_rib is in random order, nests prefixes and may repeat one;
  // a stable sort keeps the last of the repeats last.
  const auto by_network = [](const Ipv6Prefix& a, const Ipv6Prefix& b) {
    const Key128 ka = mask128(a.addr.hi64(), a.addr.lo64(), a.length);
    const Key128 kb = mask128(b.addr.hi64(), b.addr.lo64(), b.length);
    return std::tie(ka.hi, ka.lo, a.length) < std::tie(kb.hi, kb.lo, b.length);
  };
  const auto rib = full_range_rib(GetParam() + 2000);
  ASSERT_FALSE(std::is_sorted(rib.begin(), rib.end(), by_network));
  auto sorted = rib;
  std::stable_sort(sorted.begin(), sorted.end(), by_network);
  const Ipv6Table table = build_checked(rib);
  Ipv6Table from_sorted;
  from_sorted.build(sorted);
  EXPECT_EQ(layout_hash(table), layout_hash(from_sorted));
  EXPECT_EQ(table.prefix_count(), from_sorted.prefix_count());
  EXPECT_EQ(table.default_route(), from_sorted.default_route());
}

INSTANTIATE_TEST_SUITE_P(Seeds, Ipv6TablePropertyTest, ::testing::Values(101, 102, 103, 104));

TEST(Ipv6Table, DuplicatesAcrossInputSliceCutsKeepTheLastGiven) {
  // 50,000 routes are converted and grouped in up to one slice per worker
  // thread. A /12, a /48 and a /100 come back every 997 routes with a new
  // next hop, so each has copies on both sides of every slice cut; the
  // last wins. The other routes lie in 8000::/1, away from them.
  Rng rng(12);
  std::vector<Ipv6Prefix> rib;
  NextHop last = 0;
  for (u32 i = 0; i < 50'000; ++i) {
    if (i % 997 == 0) {
      last = static_cast<NextHop>(i / 997 + 1);
      rib.push_back({net::Ipv6Addr::from_words(0x2a00000000000000ULL, 0), 12, last});
      rib.push_back({net::Ipv6Addr::from_words(0x2a0b12345678ULL << 16, 0), 48,
                     static_cast<NextHop>(last + 100)});
      rib.push_back({net::Ipv6Addr::from_words(0x2a0b123456789abcULL, 0x1234567800000000ULL), 100,
                     static_cast<NextHop>(last + 200)});
    }
    const u64 hi = rng.next_u64() | u64{1} << 63;
    rib.push_back({net::Ipv6Addr::from_words(hi, rng.next_u64()),
                   static_cast<u8>(16 + rng.next_below(113)),
                   static_cast<NextHop>(rng.next_below(1000))});
  }
  const Ipv6Table table(rib);
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(0x2a0b123456789abcULL, 0x1234567801234567ULL)),
            last + 200);
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(0x2a0b123456780000ULL, 1)), last + 100);
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(0x2a0f000000000000ULL, 1)), last);
  expect_matches_reference(rib, 13);
}

TEST(Ipv6Table, RibCrowdedIntoOneTopBucketMatchesReference) {
  // Every route but a /8 and a /15 lies in 2001::/16, one bucket of the
  // build's grouping by the top 16 bits, so one sort task sorts them all.
  Rng rng(16);
  std::vector<Ipv6Prefix> rib = {{net::Ipv6Addr::from_words(0x2000000000000000ULL, 0), 8, 7},
                                 {net::Ipv6Addr::from_words(0x2000000000000000ULL, 0), 15, 8}};
  for (u32 i = 0; i < 30'000; ++i) {
    const u64 hi = 0x2001000000000000ULL | (rng.next_u64() >> 16);
    const auto length = static_cast<u8>(16 + rng.next_below(113));
    const auto next_hop = static_cast<NextHop>(rng.next_below(1000));
    rib.push_back({net::Ipv6Addr::from_words(hi, rng.next_u64()), length, next_hop});
    if (i % 100 == 0) rib.push_back({rib.back().addr, length, 1000});
  }
  expect_matches_reference(rib, 17);
  const Ipv6Table table(rib);
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(0x2002000000000000ULL, 0)), 7);
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(0x2000ffffffffffffULL, 0)), 8);
}

TEST(Ipv6Table, PaperScaleTableBuilds) {
  // The paper's 200,000-prefix configuration (section 6.2.2).
  const auto rib = generate_ipv6_rib(kPaperIpv6PrefixCount, 8, 2010);
  Ipv6Table table;
  table.build(rib);
  EXPECT_EQ(table.prefix_count(), kPaperIpv6PrefixCount);
  // The layout is pinned, so a change to where build() places a key or
  // what bmp it gives shows here even while lookups still agree.
  EXPECT_EQ(table.slots().size(), 2'039'808u);
  EXPECT_EQ(table.marker_count(), 435'132u);
  EXPECT_EQ(layout_hash(table), 0xd278de2876d8b94fULL);

  int probes = 0;
  table.lookup(rib[0].addr, &probes);
  EXPECT_LE(probes, 7);
}

}  // namespace
}  // namespace ps::route
