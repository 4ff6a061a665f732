// IPv6 binary search on prefix lengths: correctness against the trie
// reference, probe bounds (<= 7), and the flattened GPU layout.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "route/ipv6_table.hpp"
#include "route/rib_gen.hpp"

namespace ps::route {
namespace {

Ipv6Prefix p6(u64 hi, u8 len, NextHop nh) {
  return {net::Ipv6Addr::from_words(hi, 0), len, nh};
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
  // Shares the first 32 bits (a marker level) but not all 48.
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(0x2001'0db8'bbbb'0000ULL, 0)), kNoRoute);
}

TEST(Ipv6Table, FlattenedLayoutMatches) {
  const auto rib = generate_ipv6_rib(3000, 8, 21);
  Ipv6Table table;
  table.build(rib);
  const auto& flat = table.flat();

  Rng rng(22);
  for (int i = 0; i < 3000; ++i) {
    net::Ipv6Addr addr = net::Ipv6Addr::from_words(rng.next_u64(), rng.next_u64());
    if (i % 2 == 0) {
      const auto& prefix = rib[rng.next_below(rib.size())];
      const u64 host = prefix.length >= 64 ? 0 : rng.next_u64() >> prefix.length;
      addr = net::Ipv6Addr::from_words(prefix.addr.hi64() | host, rng.next_u64());
    }
    int probes_a = 0, probes_b = 0;
    const NextHop a = table.lookup(addr, &probes_a);
    const NextHop b = flat.lookup(addr, &probes_b);
    EXPECT_EQ(a, b) << addr.to_string();
    EXPECT_EQ(probes_a, probes_b);
  }
}

// Property sweep: the binary-search table must agree with the trie oracle.
class Ipv6TablePropertyTest : public ::testing::TestWithParam<u64> {};

TEST_P(Ipv6TablePropertyTest, MatchesReferenceTrie) {
  const auto rib = generate_ipv6_rib(1500, 32, GetParam());
  Ipv6Table table;
  table.build(rib);
  Ipv6ReferenceLpm reference;
  reference.build(rib);

  Rng rng(GetParam() + 500);
  for (int i = 0; i < 1500; ++i) {
    net::Ipv6Addr addr = net::Ipv6Addr::from_words(rng.next_u64(), rng.next_u64());
    if (i % 2 == 0) {
      // Land inside a random prefix to exercise hits and near-misses.
      const auto& prefix = rib[rng.next_below(rib.size())];
      const u64 host = prefix.length >= 64 ? 0 : rng.next_u64() >> prefix.length;
      addr = net::Ipv6Addr::from_words(prefix.addr.hi64() | host, rng.next_u64());
    }
    EXPECT_EQ(table.lookup(addr), reference.lookup(addr)) << addr.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Ipv6TablePropertyTest, ::testing::Values(101, 102, 103, 104));

TEST(Ipv6Table, PaperScaleTableBuilds) {
  // The paper's 200,000-prefix configuration (section 6.2.2).
  const auto rib = generate_ipv6_rib(kPaperIpv6PrefixCount, 8, 2010);
  Ipv6Table table;
  table.build(rib);
  EXPECT_EQ(table.prefix_count(), kPaperIpv6PrefixCount);
  EXPECT_GT(table.marker_count(), 0u);

  int probes = 0;
  table.lookup(rib[0].addr, &probes);
  EXPECT_LE(probes, 7);
}

}  // namespace
}  // namespace ps::route
