// RIB-covered destination pools: every sampled address must actually have
// a route — the property the Figure 11 workloads depend on.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "gen/traffic.hpp"
#include "route/rib_gen.hpp"

namespace ps::route {
namespace {

TEST(CoveredPools, EveryIpv4SampleHasARoute) {
  const auto rib = generate_ipv4_rib({.prefix_count = 20'000, .num_next_hops = 8, .seed = 1});
  Ipv4Table table;
  table.build(rib);

  const auto pool = sample_covered_ipv4(rib, 5000, 2);
  ASSERT_EQ(pool.size(), 5000u);
  for (const u32 addr : pool) {
    EXPECT_NE(table.lookup(net::Ipv4Addr(addr)), kNoRoute) << net::Ipv4Addr(addr).to_string();
  }
}

TEST(CoveredPools, EveryIpv6SampleHasARoute) {
  const auto rib = generate_ipv6_rib(20'000, 8, 3);
  Ipv6Table table;
  table.build(rib);

  const auto pool = sample_covered_ipv6(rib, 5000, 4);
  ASSERT_EQ(pool.size(), 5000u);
  for (const auto& addr : pool) {
    EXPECT_NE(table.lookup(addr), kNoRoute) << addr.to_string();
  }
}

TEST(CoveredPools, EveryIpv6SampleOfAPrefixPast64BitsHasARoute) {
  // /65../128 prefixes and no default route: a sample that drops the
  // prefix's low-word bits has no route.
  Rng rng(5);
  std::vector<Ipv6Prefix> rib;
  for (int i = 0; i < 2000; ++i) {
    const auto length = static_cast<u8>(rng.next_range(65, 128));
    const Key128 key = mask128(rng.next_u64(), rng.next_u64(), length);
    rib.push_back({net::Ipv6Addr::from_words(key.hi, key.lo), length,
                   static_cast<NextHop>(rng.next_below(8))});
  }
  Ipv6Table table;
  table.build(rib);

  const auto pool = sample_covered_ipv6(rib, 5000, 6);
  ASSERT_EQ(pool.size(), 5000u);
  for (const auto& addr : pool) {
    EXPECT_NE(table.lookup(addr), kNoRoute) << addr.to_string();
  }
}

TEST(CoveredPools, SamplesAreDeterministic) {
  const auto rib = generate_ipv4_rib({.prefix_count = 1000, .num_next_hops = 8, .seed = 5});
  EXPECT_EQ(sample_covered_ipv4(rib, 100, 6), sample_covered_ipv4(rib, 100, 6));
  EXPECT_NE(sample_covered_ipv4(rib, 100, 6), sample_covered_ipv4(rib, 100, 7));
}

TEST(CoveredPools, GeneratorDrawsOnlyFromPool) {
  const auto rib = generate_ipv4_rib({.prefix_count = 1000, .num_next_hops = 8, .seed = 8});
  Ipv4Table table;
  table.build(rib);

  gen::TrafficConfig config{.frame_size = 64, .seed = 9};
  config.ipv4_dst_pool = sample_covered_ipv4(rib, 256, 10);
  gen::TrafficGen traffic(config);

  for (int i = 0; i < 500; ++i) {
    auto frame = traffic.next_frame();
    net::PacketView view;
    ASSERT_EQ(net::parse_packet(frame.data(), static_cast<u32>(frame.size()), view),
              net::ParseStatus::kOk);
    EXPECT_NE(table.lookup(view.ipv4().dst()), kNoRoute);
  }
}

}  // namespace
}  // namespace ps::route
