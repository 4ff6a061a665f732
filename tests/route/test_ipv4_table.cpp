// DIR-24-8 IPv4 table: exact semantics against a reference LPM, plus the
// structural properties the paper relies on (1-2 memory accesses).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "route/ipv4_table.hpp"
#include "route/rib_gen.hpp"

namespace ps::route {
namespace {

Ipv4Prefix p(const char* addr, u8 len, NextHop nh) {
  return {net::Ipv4Addr::parse(addr).value(), len, nh};
}

TEST(Ipv4Table, EmptyTableHasNoRoutes) {
  Ipv4Table table;
  table.build({});
  EXPECT_EQ(table.lookup(net::Ipv4Addr(1, 2, 3, 4)), kNoRoute);
}

TEST(Ipv4Table, ExactPrefixMatch) {
  Ipv4Table table;
  const Ipv4Prefix prefixes[] = {p("10.0.0.0", 8, 1), p("10.1.0.0", 16, 2)};
  table.build(prefixes);

  EXPECT_EQ(table.lookup(net::Ipv4Addr(10, 0, 0, 1)), 1);
  EXPECT_EQ(table.lookup(net::Ipv4Addr(10, 1, 2, 3)), 2);  // longer wins
  EXPECT_EQ(table.lookup(net::Ipv4Addr(10, 200, 0, 1)), 1);
  EXPECT_EQ(table.lookup(net::Ipv4Addr(11, 0, 0, 1)), kNoRoute);
}

TEST(Ipv4Table, LongestPrefixWinsRegardlessOfInsertOrder) {
  const Ipv4Prefix forward[] = {p("10.0.0.0", 8, 1), p("10.1.0.0", 16, 2), p("10.1.1.0", 24, 3)};
  const Ipv4Prefix reversed[] = {p("10.1.1.0", 24, 3), p("10.1.0.0", 16, 2), p("10.0.0.0", 8, 1)};

  Ipv4Table a, b;
  a.build(forward);
  b.build(reversed);
  for (const auto addr : {net::Ipv4Addr(10, 1, 1, 7), net::Ipv4Addr(10, 1, 9, 9),
                          net::Ipv4Addr(10, 9, 9, 9)}) {
    EXPECT_EQ(a.lookup(addr), b.lookup(addr));
  }
  EXPECT_EQ(a.lookup(net::Ipv4Addr(10, 1, 1, 7)), 3);
}

TEST(Ipv4Table, PrefixesLongerThan24UseOverflowChunks) {
  Ipv4Table table;
  const Ipv4Prefix prefixes[] = {p("10.0.0.0", 24, 1), p("10.0.0.128", 25, 2),
                                 p("10.0.0.192", 26, 3), p("10.0.0.255", 32, 4)};
  table.build(prefixes);

  EXPECT_GE(table.overflow_chunks(), 1u);
  int probes = 0;
  EXPECT_EQ(table.lookup(net::Ipv4Addr(10, 0, 0, 1), &probes), 1);
  EXPECT_EQ(probes, 2);  // the /24 entry was pushed into the chunk
  EXPECT_EQ(table.lookup(net::Ipv4Addr(10, 0, 0, 129)), 2);
  EXPECT_EQ(table.lookup(net::Ipv4Addr(10, 0, 0, 200)), 3);
  EXPECT_EQ(table.lookup(net::Ipv4Addr(10, 0, 0, 255)), 4);
}

TEST(Ipv4Table, ShortPrefixLookupIsOneAccess) {
  Ipv4Table table;
  const Ipv4Prefix prefixes[] = {p("10.0.0.0", 8, 1)};
  table.build(prefixes);
  int probes = 0;
  EXPECT_EQ(table.lookup(net::Ipv4Addr(10, 3, 4, 5), &probes), 1);
  EXPECT_EQ(probes, 1);
}

TEST(Ipv4Table, HostRoute) {
  Ipv4Table table;
  const Ipv4Prefix prefixes[] = {p("192.168.0.1", 32, 7)};
  table.build(prefixes);
  EXPECT_EQ(table.lookup(net::Ipv4Addr(192, 168, 0, 1)), 7);
  EXPECT_EQ(table.lookup(net::Ipv4Addr(192, 168, 0, 2)), kNoRoute);
}

TEST(Ipv4Table, DefaultRouteLengthZero) {
  Ipv4Table table;
  const Ipv4Prefix prefixes[] = {{net::Ipv4Addr(0), 0, 5}, p("10.0.0.0", 8, 1)};
  table.build(prefixes);
  EXPECT_EQ(table.lookup(net::Ipv4Addr(10, 1, 1, 1)), 1);
  EXPECT_EQ(table.lookup(net::Ipv4Addr(99, 1, 1, 1)), 5);
}

TEST(Ipv4Table, LastDuplicatePrefixWins) {
  Ipv4Table table;
  const Ipv4Prefix prefixes[] = {p("10.0.0.0", 8, 1), p("10.0.0.0", 8, 2)};
  table.build(prefixes);
  EXPECT_EQ(table.lookup(net::Ipv4Addr(10, 1, 2, 3)), 2);
  EXPECT_EQ(table.prefix_count(), 1u);
}

TEST(Ipv4Table, RebuildReplacesOldContents) {
  Ipv4Table table;
  const Ipv4Prefix first[] = {p("10.0.0.0", 8, 1)};
  table.build(first);
  EXPECT_EQ(table.lookup(net::Ipv4Addr(10, 1, 1, 1)), 1);

  const Ipv4Prefix second[] = {p("20.0.0.0", 8, 2)};
  table.build(second);
  EXPECT_EQ(table.lookup(net::Ipv4Addr(10, 1, 1, 1)), kNoRoute);
  EXPECT_EQ(table.lookup(net::Ipv4Addr(20, 1, 1, 1)), 2);
}

TEST(Ipv4Table, SharedLookupRoutineMatchesMember) {
  const auto rib = generate_ipv4_rib({.prefix_count = 5000, .num_next_hops = 8, .seed = 3});
  Ipv4Table table;
  table.build(rib);

  Rng rng(77);
  for (int i = 0; i < 1000; ++i) {
    const net::Ipv4Addr addr(rng.next_u32());
    EXPECT_EQ(table.lookup(addr),
              Ipv4Table::lookup_in_arrays(table.tbl24().data(), table.tbl_long().data(),
                                          addr.value));
  }
}

// Property test: DIR-24-8 must agree with the linear reference on random
// tables and random probes, across several seeds.
class Ipv4TablePropertyTest : public ::testing::TestWithParam<u64> {};

TEST_P(Ipv4TablePropertyTest, MatchesReferenceLpm) {
  const auto rib =
      generate_ipv4_rib({.prefix_count = 2000, .num_next_hops = 64, .seed = GetParam()});
  Ipv4Table table;
  table.build(rib);
  Ipv4ReferenceLpm reference;
  reference.build(rib);

  Rng rng(GetParam() * 13 + 1);
  for (int i = 0; i < 2000; ++i) {
    // Half the probes land inside a known prefix so matches are exercised.
    net::Ipv4Addr addr(rng.next_u32());
    if (i % 2 == 0) {
      const auto& prefix = rib[rng.next_below(rib.size())];
      const u32 host_bits = prefix.length >= 32 ? 0 : rng.next_u32() >> prefix.length;
      addr = net::Ipv4Addr(prefix.network() | host_bits);
    }
    EXPECT_EQ(table.lookup(addr), reference.lookup(addr)) << addr.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Ipv4TablePropertyTest, ::testing::Values(1, 2, 3, 4, 5));

TEST(Ipv4Table, ProbeCountDistributionOnRealisticRib) {
  // With a 2009-like RIB (~3% of prefixes longer than /24), the average
  // lookup should stay very close to one memory access (section 6.2.1).
  const auto rib = generate_ipv4_rib({.prefix_count = 50'000, .num_next_hops = 8, .seed = 9});
  Ipv4Table table;
  table.build(rib);

  Rng rng(10);
  u64 total_probes = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    int probes = 0;
    table.lookup(net::Ipv4Addr(rng.next_u32()), &probes);
    total_probes += static_cast<u64>(probes);
  }
  const double avg = static_cast<double>(total_probes) / n;
  EXPECT_GE(avg, 1.0);
  EXPECT_LT(avg, 1.2);
}

}  // namespace
}  // namespace ps::route
