// Differential tests for the batched lookup paths: lookup_batch must be
// byte-for-byte identical to the scalar lookup for every key, every batch
// size (including sizes that exercise the pipelined prologue, the
// already-prefetched trailing groups, and the scalar tail), and tables
// with TBLlong overflow / maximum-length prefixes. The batch walk is a
// reordering of the same memory accesses, so any divergence is a bug.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "route/ipv4_table.hpp"
#include "route/ipv6_table.hpp"
#include "route/rib_gen.hpp"

namespace ps::route {
namespace {

constexpr std::size_t kBatchSizes[] = {1, 3, 7, 8, 64, 257, 1000};

void expect_ipv4_batch_matches_scalar(const Ipv4Table& table, const std::vector<u32>& keys) {
  std::vector<NextHop> scalar(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    scalar[i] = table.lookup(net::Ipv4Addr(keys[i]));
  }
  for (const std::size_t batch : kBatchSizes) {
    std::vector<NextHop> got(keys.size(), static_cast<NextHop>(0xdead));
    for (std::size_t i = 0; i < keys.size(); i += batch) {
      const std::size_t n = std::min(batch, keys.size() - i);
      table.lookup_batch(keys.data() + i, got.data() + i, n);
    }
    ASSERT_EQ(got, scalar) << "batch size " << batch;
  }
}

TEST(Ipv4LookupBatch, MatchesScalarOnRandomRib) {
  RibGenConfig cfg;
  cfg.prefix_count = 20000;
  cfg.seed = 77;
  const auto rib = generate_ipv4_rib(cfg);
  Ipv4Table table;
  table.build(rib);
  ASSERT_GT(table.overflow_chunks(), 0u);  // >24-bit prefixes are present

  Rng rng(101);
  std::vector<u32> keys(5000);
  for (auto& k : keys) k = rng.next_u32();
  // Half the pool covered so both match and no-route verdicts appear.
  const auto covered = sample_covered_ipv4(rib, keys.size() / 2);
  for (std::size_t i = 0; i < covered.size(); ++i) keys[2 * i] = covered[i];
  expect_ipv4_batch_matches_scalar(table, keys);
}

TEST(Ipv4LookupBatch, MatchesScalarOnOverflowHeavyTable) {
  // Every prefix longer than /24: each lookup takes the TBLlong branch.
  std::vector<Ipv4Prefix> rib;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    Ipv4Prefix p;
    p.addr = net::Ipv4Addr(rng.next_u32());
    p.length = static_cast<u8>(25 + rng.next_below(8));  // 25..32
    p.next_hop = static_cast<NextHop>(rng.next_below(64));
    rib.push_back(p);
  }
  Ipv4Table table;
  table.build(rib);
  ASSERT_GT(table.overflow_chunks(), 0u);

  std::vector<u32> keys(3000);
  Rng krng(6);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    // Bias keys into the overflow chunks' /24 neighbourhoods.
    const auto& p = rib[krng.next_below(rib.size())];
    keys[i] = (p.addr.value & 0xffffff00u) | static_cast<u32>(krng.next_below(256));
  }
  expect_ipv4_batch_matches_scalar(table, keys);
}

TEST(Ipv4LookupBatch, EmptyAndTinyInputs) {
  Ipv4Table table;
  table.build({});
  table.lookup_batch(nullptr, nullptr, 0);  // must be a no-op
  const u32 key = 0x0a000001;
  NextHop out = 0;
  table.lookup_batch(&key, &out, 1);
  EXPECT_EQ(out, kNoRoute);
}

void expect_ipv6_batch_matches_scalar(const Ipv6FlatTable& flat,
                                      const std::vector<u64>& keys) {
  const std::size_t n = keys.size() / 2;
  std::vector<NextHop> scalar(n);
  u64 scalar_probes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    int probes = 0;
    scalar[i] = flat.lookup(net::Ipv6Addr::from_words(keys[2 * i], keys[2 * i + 1]), &probes);
    scalar_probes += static_cast<u64>(probes);
  }
  for (const std::size_t batch : kBatchSizes) {
    std::vector<NextHop> got(n, static_cast<NextHop>(0xdead));
    u64 batch_probes = 0;
    for (std::size_t i = 0; i < n; i += batch) {
      const std::size_t m = std::min(batch, n - i);
      u64 probes = 0;
      flat.lookup_batch(keys.data() + 2 * i, got.data() + i, m, &probes);
      batch_probes += probes;
    }
    ASSERT_EQ(got, scalar) << "batch size " << batch;
    // The lockstep walk visits exactly the levels the scalar search does,
    // so the cost accounting must agree too.
    EXPECT_EQ(batch_probes, scalar_probes) << "batch size " << batch;
  }
}

TEST(Ipv6LookupBatch, MatchesScalarOnRandomRib) {
  const auto rib = generate_ipv6_rib(20000, 8, 42);
  Ipv6Table table;
  table.build(rib);
  const auto& flat = table.flat();

  Rng rng(7);
  std::vector<u64> keys(2 * 3000);
  for (auto& w : keys) w = rng.next_u64();
  const auto covered = sample_covered_ipv6(rib, 1000);
  for (std::size_t i = 0; i < covered.size(); ++i) {
    keys[4 * i] = covered[i].hi64();
    keys[4 * i + 1] = covered[i].lo64();
  }
  expect_ipv6_batch_matches_scalar(flat, keys);
}

TEST(Ipv6LookupBatch, MatchesScalarWithMaxLengthPrefixes) {
  // Host routes (/128) sit at the deepest binary-search level; mixing them
  // with short prefixes forces the full range of level visits.
  std::vector<Ipv6Prefix> rib;
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    Ipv6Prefix p;
    p.addr = net::Ipv6Addr::from_words(rng.next_u64(), rng.next_u64());
    p.length = (i % 2 == 0) ? 128 : static_cast<u8>(1 + rng.next_below(64));
    p.next_hop = static_cast<NextHop>(rng.next_below(64));
    rib.push_back(p);
  }
  Ipv6Table table;
  table.build(rib);
  const auto& flat = table.flat();

  std::vector<u64> keys;
  // Exact /128 addresses (must match), near misses, and random keys.
  for (const auto& p : rib) {
    keys.push_back(p.addr.hi64());
    keys.push_back(p.addr.lo64());
    keys.push_back(p.addr.hi64());
    keys.push_back(p.addr.lo64() ^ 1);
  }
  for (int i = 0; i < 500; ++i) {
    keys.push_back(rng.next_u64());
    keys.push_back(rng.next_u64());
  }
  expect_ipv6_batch_matches_scalar(flat, keys);
}

TEST(Ipv6LookupBatch, EmptyTableAndEmptyInput) {
  Ipv6Table table;
  table.build({});
  const auto& flat = table.flat();
  flat.lookup_batch(nullptr, nullptr, 0);
  const u64 key[2] = {0x2001'0db8'0000'0000ull, 0};
  NextHop out = 0;
  u64 probes = 0;
  flat.lookup_batch(key, &out, 1, &probes);
  EXPECT_EQ(out, kNoRoute);
  int scalar_probes = 0;
  EXPECT_EQ(flat.lookup(net::Ipv6Addr::from_words(key[0], key[1]), &scalar_probes), kNoRoute);
  EXPECT_EQ(probes, static_cast<u64>(scalar_probes));
}

}  // namespace
}  // namespace ps::route
