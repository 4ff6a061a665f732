#include "route/rib_gen.hpp"

#include <array>
#include <unordered_map>
#include <unordered_set>

namespace ps::route {

namespace {

// Approximate length distribution of the 2009 RouteViews table: /24
// dominates (~53%), /22-/23 around a quarter, classic /16 and /19-/21
// blocks most of the rest, 3% longer than /24 (the paper quotes the 3%).
constexpr std::array<double, 33> kIpv4LengthWeights = [] {
  std::array<double, 33> w{};
  w[8] = 0.0002;
  w[9] = 0.0004;
  w[10] = 0.0008;
  w[11] = 0.0015;
  w[12] = 0.0025;
  w[13] = 0.0045;
  w[14] = 0.008;
  w[15] = 0.009;
  w[16] = 0.047;
  w[17] = 0.023;
  w[18] = 0.035;
  w[19] = 0.060;
  w[20] = 0.072;
  w[21] = 0.078;
  w[22] = 0.106;
  w[23] = 0.112;
  w[24] = 0.4101;  // /24 dominates; weights below total exactly 1.0
  w[25] = 0.006;
  w[26] = 0.007;
  w[27] = 0.005;
  w[28] = 0.004;
  w[29] = 0.004;
  w[30] = 0.003;
  w[31] = 0.0003;
  w[32] = 0.0007;
  return w;
}();

// Networks available at a given length with the first octet in [1, 223].
constexpr u64 ipv4_length_capacity(int length) {
  return u64{223} << (length - 8);
}

int sample_ipv4_length(Rng& rng) {
  const double r = rng.next_double();
  double acc = 0.0;
  for (int len = 8; len <= 32; ++len) {
    acc += kIpv4LengthWeights[static_cast<std::size_t>(len)];
    if (r < acc) return len;
  }
  return 24;
}

}  // namespace

double ipv4_length_fraction(int length) {
  if (length < 0 || length > 32) return 0.0;
  double total = 0.0;
  for (const double w : kIpv4LengthWeights) total += w;
  return kIpv4LengthWeights[static_cast<std::size_t>(length)] / total;
}

std::vector<Ipv4Prefix> generate_ipv4_rib(const RibGenConfig& config) {
  Rng rng(config.seed);
  std::vector<Ipv4Prefix> prefixes;
  prefixes.reserve(config.prefix_count);

  // Uniqueness over (network, length).
  std::unordered_set<u64> seen;
  seen.reserve(config.prefix_count * 2);

  // At million-prefix scale the short lengths saturate (there are only
  // 223 usable /8s); once a length class is full, resample rather than
  // draw collisions forever. The surplus lands on the long lengths, which
  // have capacity to spare through a few hundred million prefixes.
  std::array<u64, 33> per_length{};

  while (prefixes.size() < config.prefix_count) {
    const int length = sample_ipv4_length(rng);
    if (per_length[static_cast<std::size_t>(length)] >= ipv4_length_capacity(length)) continue;
    // Bias networks away from reserved space: first octet in [1, 223].
    const u32 first_octet = static_cast<u32>(rng.next_range(1, 223));
    const u32 rest = rng.next_u32() & 0x00ffffff;
    const u32 addr = (first_octet << 24) | rest;
    const u32 mask = length == 0 ? 0 : static_cast<u32>(~((u64{1} << (32 - length)) - 1));
    const u32 network = addr & mask;

    const u64 key = (static_cast<u64>(network) << 8) | static_cast<u64>(length);
    if (!seen.insert(key).second) continue;
    ++per_length[static_cast<std::size_t>(length)];

    prefixes.push_back(Ipv4Prefix{
        .addr = net::Ipv4Addr(network),
        .length = static_cast<u8>(length),
        .next_hop = static_cast<NextHop>(rng.next_below(config.num_next_hops)),
    });
  }
  return prefixes;
}

std::vector<Ipv4ChurnOp> generate_ipv4_churn(std::span<const Ipv4Prefix> base,
                                             std::size_t count, u16 num_next_hops, u64 seed) {
  Rng rng(seed);
  // Live set at the current point in the stream, keyed (network, length).
  std::vector<Ipv4Prefix> live(base.begin(), base.end());
  std::unordered_map<u64, std::size_t> index;
  index.reserve(live.size() * 2);
  const auto key_of = [](const Ipv4Prefix& p) {
    return (static_cast<u64>(p.network()) << 8) | static_cast<u64>(p.length);
  };
  for (std::size_t i = 0; i < live.size(); ++i) index.emplace(key_of(live[i]), i);

  std::vector<Ipv4ChurnOp> ops;
  ops.reserve(count);
  while (ops.size() < count) {
    const u64 roll = rng.next_below(100);
    if (roll < 45 && !live.empty()) {
      // Next-hop replacement on a live prefix (the common BGP case).
      auto& p = live[rng.next_below(live.size())];
      p.next_hop = static_cast<NextHop>(rng.next_below(num_next_hops));
      ops.push_back({p, true});
    } else if (roll < 75 || live.empty()) {
      // Fresh announcement, unique against the live set.
      const int length = sample_ipv4_length(rng);
      const u32 first_octet = static_cast<u32>(rng.next_range(1, 223));
      const u32 addr = (first_octet << 24) | (rng.next_u32() & 0x00ffffff);
      const u32 mask = static_cast<u32>(~((u64{1} << (32 - length)) - 1));
      const Ipv4Prefix p{net::Ipv4Addr(addr & mask), static_cast<u8>(length),
                         static_cast<NextHop>(rng.next_below(num_next_hops))};
      if (index.contains(key_of(p))) continue;
      index.emplace(key_of(p), live.size());
      live.push_back(p);
      ops.push_back({p, true});
    } else {
      // Withdrawal of a live prefix (swap-remove keeps picks O(1)).
      const std::size_t i = rng.next_below(live.size());
      const Ipv4Prefix victim = live[i];
      index.erase(key_of(victim));
      live[i] = live.back();
      live.pop_back();
      if (i < live.size()) index[key_of(live[i])] = i;
      ops.push_back({victim, false});
    }
  }
  return ops;
}

std::vector<Ipv6Prefix> generate_ipv6_rib(std::size_t count, u16 num_next_hops, u64 seed) {
  Rng rng(seed);
  std::vector<Ipv6Prefix> prefixes;
  prefixes.reserve(count);

  std::unordered_set<u64> seen;  // hash of (masked hi, length)
  seen.reserve(count * 2);

  while (prefixes.size() < count) {
    const int length = static_cast<int>(rng.next_range(16, 64));
    const u64 hi = rng.next_u64();
    const Key128 key = mask128(hi, 0, length);

    const u64 dedupe = key.hi * 131 + static_cast<u64>(length);
    if (!seen.insert(dedupe).second) continue;

    prefixes.push_back(Ipv6Prefix{
        .addr = net::Ipv6Addr::from_words(key.hi, 0),
        .length = static_cast<u8>(length),
        .next_hop = static_cast<NextHop>(rng.next_below(num_next_hops)),
    });
  }
  return prefixes;
}

std::vector<u32> sample_covered_ipv4(std::span<const Ipv4Prefix> prefixes, std::size_t count,
                                     u64 seed) {
  Rng rng(seed);
  std::vector<u32> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto& p = prefixes[rng.next_below(prefixes.size())];
    const u32 host = p.length >= 32 ? 0 : static_cast<u32>(rng.next_u32() >> p.length);
    pool.push_back(p.network() | host);
  }
  return pool;
}

std::vector<net::Ipv6Addr> sample_covered_ipv6(std::span<const Ipv6Prefix> prefixes,
                                               std::size_t count, u64 seed) {
  Rng rng(seed);
  std::vector<net::Ipv6Addr> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto& p = prefixes[rng.next_below(prefixes.size())];
    const u64 host = p.length >= 64 ? 0 : rng.next_u64() >> p.length;
    // The low word keeps the prefix's bits past /64, if any.
    const u64 keep_lo = mask128(0, ~u64{0}, p.length).lo;
    pool.push_back(net::Ipv6Addr::from_words(p.addr.hi64() | host,
                                             (p.addr.lo64() & keep_lo) |
                                                 (rng.next_u64() & ~keep_lo)));
  }
  return pool;
}

}  // namespace ps::route
