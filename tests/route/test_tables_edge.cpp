// Edge cases of the lookup structures: prefix boundaries around the
// DIR-24-8 split, extreme IPv6 prefix lengths, and adversarial overlap.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "route/ipv4_table.hpp"
#include "route/ipv6_table.hpp"

namespace ps::route {
namespace {

TEST(Ipv4Edge, Slash24BoundaryIsExact) {
  Ipv4Table table;
  const Ipv4Prefix prefixes[] = {
      {net::Ipv4Addr(10, 0, 0, 0), 24, 1},
      {net::Ipv4Addr(10, 0, 1, 0), 24, 2},
  };
  table.build(prefixes);
  EXPECT_EQ(table.lookup(net::Ipv4Addr(10, 0, 0, 255)), 1);
  EXPECT_EQ(table.lookup(net::Ipv4Addr(10, 0, 1, 0)), 2);
  EXPECT_EQ(table.lookup(net::Ipv4Addr(10, 0, 2, 0)), kNoRoute);
}

TEST(Ipv4Edge, Slash25SplitsItsParent24) {
  Ipv4Table table;
  const Ipv4Prefix prefixes[] = {
      {net::Ipv4Addr(10, 0, 0, 0), 24, 1},
      {net::Ipv4Addr(10, 0, 0, 0), 25, 2},  // lower half more specific
  };
  table.build(prefixes);
  EXPECT_EQ(table.lookup(net::Ipv4Addr(10, 0, 0, 0)), 2);
  EXPECT_EQ(table.lookup(net::Ipv4Addr(10, 0, 0, 127)), 2);
  EXPECT_EQ(table.lookup(net::Ipv4Addr(10, 0, 0, 128)), 1);  // falls back to /24
  EXPECT_EQ(table.lookup(net::Ipv4Addr(10, 0, 0, 255)), 1);
}

TEST(Ipv4Edge, LongPrefixWithoutCovering24) {
  // A /30 with no shorter route: the rest of its /24 must stay NoRoute.
  Ipv4Table table;
  const Ipv4Prefix prefixes[] = {{net::Ipv4Addr(77, 1, 2, 8), 30, 4}};
  table.build(prefixes);
  EXPECT_EQ(table.lookup(net::Ipv4Addr(77, 1, 2, 8)), 4);
  EXPECT_EQ(table.lookup(net::Ipv4Addr(77, 1, 2, 11)), 4);
  EXPECT_EQ(table.lookup(net::Ipv4Addr(77, 1, 2, 12)), kNoRoute);
  EXPECT_EQ(table.lookup(net::Ipv4Addr(77, 1, 2, 7)), kNoRoute);
}

TEST(Ipv4Edge, ManyLongPrefixesInOneSlash24ShareAChunk) {
  Ipv4Table table;
  std::vector<Ipv4Prefix> prefixes;
  for (u32 host = 0; host < 256; host += 4) {
    prefixes.push_back({net::Ipv4Addr(9, 9, 9, static_cast<u8>(host)), 30,
                        static_cast<NextHop>(host / 4)});
  }
  table.build(prefixes);
  EXPECT_EQ(table.overflow_chunks(), 1u);  // all share one chunk
  for (u32 host = 0; host < 256; ++host) {
    EXPECT_EQ(table.lookup(net::Ipv4Addr(9, 9, 9, static_cast<u8>(host))),
              static_cast<NextHop>(host / 4));
  }
}

TEST(Ipv4Edge, AddressSpaceExtremes) {
  Ipv4Table table;
  const Ipv4Prefix prefixes[] = {
      {net::Ipv4Addr(0, 0, 0, 0), 8, 1},
      {net::Ipv4Addr(255, 255, 255, 255), 32, 2},
  };
  table.build(prefixes);
  EXPECT_EQ(table.lookup(net::Ipv4Addr(0, 0, 0, 0)), 1);
  EXPECT_EQ(table.lookup(net::Ipv4Addr(0, 255, 255, 255)), 1);
  EXPECT_EQ(table.lookup(net::Ipv4Addr(255, 255, 255, 255)), 2);
  EXPECT_EQ(table.lookup(net::Ipv4Addr(255, 255, 255, 254)), kNoRoute);
}

TEST(Ipv6Edge, LengthOneAndLength128) {
  Ipv6Table table;
  const Ipv6Prefix prefixes[] = {
      {net::Ipv6Addr::from_words(u64{1} << 63, 0), 1, 1},  // 8000::/1
      {net::Ipv6Addr::from_words(0xffff'ffff'ffff'ffffULL, 0xffff'ffff'ffff'ffffULL), 128, 2},
  };
  table.build(prefixes);

  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(u64{1} << 63, 12345)), 1);
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(0x7fff'0000'0000'0000ULL, 0)), kNoRoute);
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(~u64{0}, ~u64{0})), 2);
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(~u64{0}, ~u64{0} - 1)), 1);  // /1 still covers
}

TEST(Ipv6Edge, NestedPrefixChain) {
  // A full nesting chain /16 ⊃ /32 ⊃ /48 ⊃ /64: the longest match must win
  // at every depth, which exercises markers at many binary-search levels.
  std::vector<Ipv6Prefix> prefixes;
  const u64 base = 0x2001'0db8'aaaa'bbbbULL;
  for (int len = 16; len <= 64; len += 16) {
    prefixes.push_back({net::Ipv6Addr::from_words(mask128(base, 0, len).hi, 0),
                        static_cast<u8>(len), static_cast<NextHop>(len / 16)});
  }
  Ipv6Table table;
  table.build(prefixes);

  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(base, 7)), 4);           // /64
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(0x2001'0db8'aaaa'ffffULL, 0)), 3);  // /48
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(0x2001'0db8'ffff'0000ULL, 0)), 2);  // /32
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(0x2001'ffff'0000'0000ULL, 0)), 1);  // /16
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(0x3000'0000'0000'0000ULL, 0)), kNoRoute);
}

TEST(Ipv6Edge, SiblingPrefixesDoNotBleed) {
  // Two /33s differing only in bit 32: markers at /32 are shared; the
  // search must still separate them.
  Ipv6Table table;
  const u64 left = 0xaaaa'bbbb'0000'0000ULL;
  const u64 right = 0xaaaa'bbbb'8000'0000ULL;
  const Ipv6Prefix prefixes[] = {
      {net::Ipv6Addr::from_words(left, 0), 33, 1},
      {net::Ipv6Addr::from_words(right, 0), 33, 2},
  };
  table.build(prefixes);
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(left | 0x1234, 0)), 1);
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(right | 0x1234, 0)), 2);
  // Same /32 bits but neither /33 matches... impossible: bit 32 is 0 or 1,
  // so anything sharing the /32 matches one of them. Outside the /32:
  EXPECT_EQ(table.lookup(net::Ipv6Addr::from_words(0xaaaa'cccc'0000'0000ULL, 0)), kNoRoute);
}

TEST(Ipv6Edge, FlattenedEmptyAndTinyTables) {
  Ipv6Table empty;
  empty.build({});
  const auto& flat = empty.flat();
  EXPECT_EQ(flat.lookup(net::Ipv6Addr::from_words(123, 456)), kNoRoute);

  Ipv6Table one;
  const Ipv6Prefix single[] = {{net::Ipv6Addr::from_words(0x5555'0000'0000'0000ULL, 0), 16, 7}};
  one.build(single);
  const auto& flat_one = one.flat();
  EXPECT_EQ(flat_one.lookup(net::Ipv6Addr::from_words(0x5555'1234'0000'0000ULL, 0)), 7);
  EXPECT_EQ(flat_one.lookup(net::Ipv6Addr::from_words(0x5556'0000'0000'0000ULL, 0)), kNoRoute);
}

TEST(Ipv4Edge, FullTableRebuildStressRandomized) {
  // Repeated rebuilds with random tables must stay consistent with a
  // reference — guards the chunk-allocation reuse logic.
  Rng rng(404);
  Ipv4Table table;
  for (int round = 0; round < 5; ++round) {
    std::vector<Ipv4Prefix> prefixes;
    for (int i = 0; i < 500; ++i) {
      const u8 len = static_cast<u8>(20 + rng.next_below(13));  // 20..32
      const u32 addr = rng.next_u32();
      const u32 mask = len >= 32 ? ~u32{0} : ~((u32{1} << (32 - len)) - 1);
      prefixes.push_back({net::Ipv4Addr(addr & mask), len,
                          static_cast<NextHop>(rng.next_below(16))});
    }
    table.build(prefixes);
    Ipv4ReferenceLpm reference;
    reference.build(prefixes);
    for (int i = 0; i < 500; ++i) {
      const net::Ipv4Addr probe(rng.next_u32());
      EXPECT_EQ(table.lookup(probe), reference.lookup(probe)) << probe.to_string();
    }
  }
}

}  // namespace
}  // namespace ps::route
