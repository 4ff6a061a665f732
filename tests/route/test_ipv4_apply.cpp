// Incremental DIR-24-8 updates (Ipv4Table::apply_resolved) against the
// from-scratch oracle: after any sequence of resolved announces and
// withdraws, lookups through the incrementally maintained table must be
// identical to a table rebuilt from the same RIB. This is the same
// oracle the chaos churn test runs online; here it gets adversarial
// small cases plus a randomized soak. The other way round, the one-pass
// build() must match a load applied one announce at a time, and a table
// constructed from its prefixes or copied must match build() byte for
// byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "route/ipv4_table.hpp"
#include "route/rib_gen.hpp"

namespace ps::route {
namespace {

net::Ipv4Addr ip(u32 v) { return net::Ipv4Addr{v}; }

/// Test-side RIB: key -> prefix, with the parent resolution the control
/// plane performs before handing ops to the table.
class RibModel {
 public:
  ResolvedIpv4Op announce(u32 addr, u8 length, NextHop nh) {
    Ipv4Prefix p{ip(addr), length, nh};
    ResolvedIpv4Op op;
    op.prefix = p;
    op.announce = true;
    op.is_new = rib_.find(key(p)) == rib_.end();
    rib_[key(p)] = p;
    return op;
  }

  std::optional<ResolvedIpv4Op> withdraw(u32 addr, u8 length) {
    Ipv4Prefix probe{ip(addr), length, 0};
    auto it = rib_.find(key(probe));
    if (it == rib_.end()) return std::nullopt;
    ResolvedIpv4Op op;
    op.prefix = it->second;
    op.announce = false;
    rib_.erase(it);
    // Longest strictly-shorter covering prefix in the post-withdraw RIB.
    for (int l = static_cast<int>(length) - 1; l >= 0; --l) {
      Ipv4Prefix cover{ip(addr), static_cast<u8>(l), 0};
      auto p = rib_.find(key(cover));
      if (p != rib_.end()) {
        op.parent_nh = p->second.next_hop;
        op.parent_depth = p->second.length;
        return op;
      }
    }
    op.parent_nh = kNoRoute;
    op.parent_depth = 0;
    return op;
  }

  std::vector<Ipv4Prefix> prefixes() const {
    std::vector<Ipv4Prefix> out;
    out.reserve(rib_.size());
    for (const auto& [k, p] : rib_) out.push_back(p);
    return out;
  }

  std::size_t size() const { return rib_.size(); }

 private:
  static u64 key(const Ipv4Prefix& p) {
    return (static_cast<u64>(p.network()) << 8) | p.length;
  }
  std::map<u64, Ipv4Prefix> rib_;
};

/// Compare incremental vs rebuilt table on addresses around every RIB
/// prefix boundary plus a random sample.
void expect_equivalent(const Ipv4Table& incremental, const RibModel& rib, Rng& rng) {
  Ipv4Table oracle;
  auto prefixes = rib.prefixes();
  oracle.build(prefixes);
  EXPECT_EQ(incremental.prefix_count(), rib.size());

  std::vector<u32> probes;
  for (const auto& p : prefixes) {
    const u32 net = p.network();
    const u32 span = p.length == 0 ? ~u32{0} : (u32{1} << (32 - p.length)) - 1;
    probes.push_back(net);
    probes.push_back(net + span);               // last covered address
    probes.push_back(net + (span >> 1));        // interior
    probes.push_back(net + span + 1);           // first address past (wraps ok)
    if (net != 0) probes.push_back(net - 1);    // last address before
  }
  for (int i = 0; i < 2048; ++i) probes.push_back(static_cast<u32>(rng.next_u64()));

  for (u32 a : probes) {
    ASSERT_EQ(incremental.lookup(ip(a)), oracle.lookup(ip(a))) << "addr=" << a;
  }
}

TEST(Ipv4Apply, AnnounceWithdrawAcrossTheChunkBoundary) {
  Ipv4Table t;
  RibModel rib;
  Rng rng(7);

  // Shallow cover, then a /26 forcing a chunk, then churn on all three.
  t.apply_resolved(std::vector<ResolvedIpv4Op>{rib.announce(0x0A000000, 8, 1)});
  expect_equivalent(t, rib, rng);
  t.apply_resolved(std::vector<ResolvedIpv4Op>{rib.announce(0x0A0101C0, 26, 2)});
  expect_equivalent(t, rib, rng);
  t.apply_resolved(std::vector<ResolvedIpv4Op>{rib.announce(0x0A010100, 24, 3)});
  expect_equivalent(t, rib, rng);

  // Withdrawing the /24 must re-expose the /8 inside the chunk without
  // touching the /26 slots.
  auto wd = rib.withdraw(0x0A010100, 24);
  ASSERT_TRUE(wd.has_value());
  t.apply_resolved(std::vector<ResolvedIpv4Op>{*wd});
  expect_equivalent(t, rib, rng);

  wd = rib.withdraw(0x0A0101C0, 26);
  ASSERT_TRUE(wd.has_value());
  t.apply_resolved(std::vector<ResolvedIpv4Op>{*wd});
  expect_equivalent(t, rib, rng);

  wd = rib.withdraw(0x0A000000, 8);
  ASSERT_TRUE(wd.has_value());
  t.apply_resolved(std::vector<ResolvedIpv4Op>{*wd});
  expect_equivalent(t, rib, rng);
  EXPECT_EQ(t.lookup(ip(0x0A0101C5)), kNoRoute);
}

TEST(Ipv4Apply, ReplaceNextHopInPlace) {
  Ipv4Table t;
  RibModel rib;
  Rng rng(11);
  t.apply_resolved(std::vector<ResolvedIpv4Op>{rib.announce(0xC0A80000, 16, 4)});
  // Same prefix, new next hop: is_new=false, prefix_count unchanged.
  const auto op = rib.announce(0xC0A80000, 16, 9);
  EXPECT_FALSE(op.is_new);
  t.apply_resolved(std::vector<ResolvedIpv4Op>{op});
  EXPECT_EQ(t.prefix_count(), 1u);
  expect_equivalent(t, rib, rng);
}

TEST(Ipv4Apply, DefaultRouteAnnounceAndWithdraw) {
  Ipv4Table t;
  RibModel rib;
  Rng rng(13);
  t.apply_resolved(std::vector<ResolvedIpv4Op>{rib.announce(0, 0, 5)});
  expect_equivalent(t, rib, rng);
  t.apply_resolved(std::vector<ResolvedIpv4Op>{rib.announce(0x08000000, 6, 6)});
  expect_equivalent(t, rib, rng);
  auto wd = rib.withdraw(0, 0);
  ASSERT_TRUE(wd.has_value());
  t.apply_resolved(std::vector<ResolvedIpv4Op>{*wd});
  expect_equivalent(t, rib, rng);
  EXPECT_EQ(t.lookup(ip(0xFFFFFFFF)), kNoRoute);
  EXPECT_EQ(t.lookup(ip(0x09000000)), NextHop{6});
}

TEST(Ipv4Apply, Host32RouteChurn) {
  Ipv4Table t;
  RibModel rib;
  Rng rng(17);
  t.apply_resolved(std::vector<ResolvedIpv4Op>{rib.announce(0x0B0C0D0E, 32, 7)});
  expect_equivalent(t, rib, rng);
  t.apply_resolved(std::vector<ResolvedIpv4Op>{rib.announce(0x0B0C0D00, 25, 8)});
  expect_equivalent(t, rib, rng);
  auto wd = rib.withdraw(0x0B0C0D0E, 32);
  ASSERT_TRUE(wd.has_value());
  t.apply_resolved(std::vector<ResolvedIpv4Op>{*wd});
  expect_equivalent(t, rib, rng);
  EXPECT_EQ(t.lookup(ip(0x0B0C0D0E)), NextHop{8});
}

TEST(Ipv4Apply, RandomizedChurnSoakMatchesRebuild) {
  Ipv4Table t;
  RibModel rib;
  Rng rng(2010);

  // Cluster the random prefixes into a few /16s so announces, withdraws,
  // covers, and chunk splits actually collide with each other.
  const u32 bases[] = {0x0A000000u, 0x0A010000u, 0xC6336400u, 0xB0000000u};
  std::vector<ResolvedIpv4Op> batch;
  for (int round = 0; round < 60; ++round) {
    batch.clear();
    const int ops = 1 + static_cast<int>(rng.next_u64() % 8);
    for (int i = 0; i < ops; ++i) {
      const u32 base = bases[rng.next_u64() % 4];
      const u8 length = static_cast<u8>(8 + rng.next_u64() % 25);  // 8..32
      const u32 addr = base | static_cast<u32>(rng.next_u64() & 0x0000FFFFu);
      if (rng.next_u64() % 3 != 0) {
        batch.push_back(rib.announce(addr, length, static_cast<NextHop>(1 + rng.next_u64() % 64)));
      } else if (auto wd = rib.withdraw(addr, length)) {
        batch.push_back(*wd);
      }
    }
    t.apply_resolved(batch);
    if (round % 10 == 9) expect_equivalent(t, rib, rng);
  }
  expect_equivalent(t, rib, rng);
}

/// Index of the first entry where `got` differs from `want`; the common
/// size when none does.
std::size_t first_difference(std::span<const u16> got, std::span<const u16> want) {
  return static_cast<std::size_t>(std::ranges::mismatch(got, want).in1 - got.begin());
}

/// Byte for byte: both arrays and both counts.
void expect_same_table(const Ipv4Table& got, const Ipv4Table& want) {
  EXPECT_EQ(got.prefix_count(), want.prefix_count());
  ASSERT_EQ(got.overflow_chunks(), want.overflow_chunks());
  EXPECT_EQ(first_difference(got.tbl24(), want.tbl24()), want.tbl24().size()) << "tbl24";
  EXPECT_EQ(first_difference(got.tbl_long(), want.tbl_long()), want.tbl_long().size())
      << "tbl_long";
}

/// Loads `prefixes` into one table by applying them in order, one
/// announce at a time, and into another with build(). The two must have
/// the same overflow chunks and the same lookup at every /24 and at all
/// 256 addresses under each chunk. A table constructed from the prefixes,
/// whose arrays nothing fills before the build, must equal the build onto
/// a default table byte for byte.
void expect_build_matches_op_by_op(std::span<const Ipv4Prefix> prefixes) {
  RibModel rib;
  std::vector<ResolvedIpv4Op> ops;
  for (const auto& p : prefixes) ops.push_back(rib.announce(p.addr.value, p.length, p.next_hop));
  Ipv4Table applied;
  applied.apply_resolved(ops);
  Ipv4Table built;
  built.build(prefixes);
  expect_same_table(Ipv4Table(prefixes), built);

  ASSERT_EQ(built.overflow_chunks(), applied.overflow_chunks());
  EXPECT_EQ(built.prefix_count(), rib.size());
  for (u32 idx = 0; idx < (u32{1} << 24); ++idx) {
    const u16 built_entry = built.tbl24()[idx];
    const u16 applied_entry = applied.tbl24()[idx];
    // An unflagged TBL24 entry is the lookup of every address in its /24.
    if (((built_entry | applied_entry) & Ipv4Table::kLongFlag) == 0) {
      if (built_entry != applied_entry) {
        FAIL() << "/24 " << ip(idx << 8).to_string() << " built=" << built_entry
               << " applied=" << applied_entry;
      }
      continue;
    }
    for (u32 host = 0; host < Ipv4Table::kChunk; ++host) {
      const u32 a = (idx << 8) | host;
      if (built.lookup(ip(a)) != applied.lookup(ip(a))) {
        FAIL() << "addr=" << ip(a).to_string() << " built=" << built.lookup(ip(a))
               << " applied=" << applied.lookup(ip(a));
      }
    }
  }
}

TEST(Ipv4Apply, OnePassBuildMatchesOpByOpLoadOfThePaperScaleRib) {
  const auto rib = generate_ipv4_rib();
  ASSERT_EQ(rib.size(), kPaperIpv4PrefixCount);
  expect_build_matches_op_by_op(rib);
}

TEST(Ipv4Apply, OnePassBuildMatchesOpByOpLoadOnEdgeCases) {
  const auto pfx = [](u8 a, u8 b, u8 c, u8 d, u8 length, NextHop nh) {
    return Ipv4Prefix{net::Ipv4Addr(a, b, c, d), length, nh};
  };
  // Nested prefixes that end on the same slot: the /16 and /24 end where
  // the /8 ends, in TBL24, and the /25, /26 and /32 end where the chunk
  // ends. The next /8 must see none of them.
  const std::vector<Ipv4Prefix> nested_same_end = {
      pfx(10, 0, 0, 0, 8, 1),       pfx(10, 255, 0, 0, 16, 2),   pfx(10, 255, 255, 0, 24, 3),
      pfx(10, 255, 255, 128, 25, 4), pfx(10, 255, 255, 192, 26, 5), pfx(10, 255, 255, 255, 32, 6),
      pfx(11, 0, 0, 0, 8, 7)};
  // Adjacent siblings, in TBL24 and inside one chunk, with a gap after.
  const std::vector<Ipv4Prefix> siblings = {
      pfx(20, 0, 0, 0, 9, 1),   pfx(20, 128, 0, 0, 9, 2),  pfx(20, 0, 0, 0, 24, 3),
      pfx(20, 0, 1, 0, 24, 4),  pfx(20, 0, 2, 0, 25, 5),   pfx(20, 0, 2, 128, 25, 6),
      pfx(21, 0, 4, 0, 30, 7),  pfx(21, 0, 4, 4, 30, 8)};
  // A /0 under everything, a chunk below it, and a duplicate: the last
  // next hop wins.
  const std::vector<Ipv4Prefix> default_route = {
      pfx(0, 0, 0, 0, 0, 9), pfx(30, 0, 0, 0, 8, 1), pfx(30, 1, 2, 64, 26, 2),
      pfx(30, 0, 0, 0, 8, 3)};
  // The last address of the space, alone and under a /8.
  const std::vector<Ipv4Prefix> last_address = {pfx(255, 255, 255, 255, 32, 3)};
  const std::vector<Ipv4Prefix> last_address_covered = {pfx(255, 255, 255, 255, 32, 3),
                                                        pfx(255, 0, 0, 0, 8, 4)};
  // A /8 listed after its /24s and after a /28 under one of them.
  const std::vector<Ipv4Prefix> cover_last = {pfx(40, 1, 2, 0, 24, 1), pfx(40, 200, 0, 0, 24, 2),
                                              pfx(40, 1, 2, 16, 28, 5), pfx(40, 0, 0, 0, 8, 3)};

  // No prefixes at all: the constructor's sweep alone must give exactly
  // the default-constructed table.
  expect_same_table(Ipv4Table(std::span<const Ipv4Prefix>()), Ipv4Table());

  for (const auto* prefixes :
       {&nested_same_end, &siblings, &default_route, &last_address, &last_address_covered,
        &cover_last}) {
    SCOPED_TRACE(::testing::Message() << "case with " << prefixes->size() << " prefixes, first "
                                      << prefixes->front().addr.to_string() << "/"
                                      << int{prefixes->front().length});
    expect_build_matches_op_by_op(*prefixes);
  }

  // Spot checks that pin down the answers, not only the agreement.
  Ipv4Table t;
  t.build(nested_same_end);
  EXPECT_EQ(t.lookup(ip(0x0AFFFFFF)), NextHop{6});
  EXPECT_EQ(t.lookup(ip(0x0AFFFFFE)), NextHop{5});
  EXPECT_EQ(t.lookup(ip(0x0AFFFF7F)), NextHop{3});
  EXPECT_EQ(t.lookup(ip(0x0AFFFE00)), NextHop{2});
  EXPECT_EQ(t.lookup(ip(0x0B000000)), NextHop{7});
  EXPECT_EQ(t.lookup(ip(0x0C000000)), kNoRoute);
  t.build(siblings);
  EXPECT_EQ(t.lookup(ip(0x14000200)), NextHop{5});
  EXPECT_EQ(t.lookup(ip(0x14000280)), NextHop{6});
  EXPECT_EQ(t.lookup(ip(0x14000300)), NextHop{1});
  EXPECT_EQ(t.lookup(ip(0x15000408)), kNoRoute);
  t.build(default_route);
  EXPECT_EQ(t.prefix_count(), 3u);
  EXPECT_EQ(t.lookup(ip(0x1E000001)), NextHop{3});
  EXPECT_EQ(t.lookup(ip(0x1E010240)), NextHop{2});
  EXPECT_EQ(t.lookup(ip(0x1E010280)), NextHop{3});
  EXPECT_EQ(t.lookup(ip(0xFFFFFFFF)), NextHop{9});
  t.build(last_address);
  EXPECT_EQ(t.lookup(ip(0xFFFFFFFF)), NextHop{3});
  EXPECT_EQ(t.lookup(ip(0xFFFFFFFE)), kNoRoute);
  t.build(cover_last);
  EXPECT_EQ(t.lookup(ip(0x28010210)), NextHop{5});
  EXPECT_EQ(t.lookup(ip(0x28010220)), NextHop{1});
  EXPECT_EQ(t.lookup(ip(0x28010300)), NextHop{3});
}

TEST(Ipv4Apply, CopiesReproduceABuiltTableByteForByte) {
  const auto rib = generate_ipv4_rib({.prefix_count = 20'000, .num_next_hops = 16, .seed = 7});
  Ipv4Table built(rib);
  ASSERT_GT(built.overflow_chunks(), 0u);

  Ipv4Table constructed(built);
  expect_same_table(constructed, built);
  Ipv4Table assigned;
  assigned = built;
  expect_same_table(assigned, built);
  // A moved-from table has no arrays; assigning to it allocates them.
  Ipv4Table moved_from(rib);
  const Ipv4Table moved_to(std::move(moved_from));
  expect_same_table(moved_to, built);
  moved_from = built;
  expect_same_table(moved_from, built);

  // The depths came along too: an announce overwrites only the entries no
  // more specific than itself, so it reads them.
  ResolvedIpv4Op cover;
  cover.prefix = {ip(0), 1, 99};
  cover.is_new = true;
  for (Ipv4Table* t : {&built, &constructed, &assigned, &moved_from}) {
    t->apply_resolved(std::span<const ResolvedIpv4Op>(&cover, 1));
  }
  for (const Ipv4Table* t : {&constructed, &assigned, &moved_from}) expect_same_table(*t, built);
}

}  // namespace
}  // namespace ps::route
