#include "route/ipv6_table.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>
#include <tuple>

namespace ps::route {

namespace {

u64 mask_top_bits(u64 value, int bits) {
  if (bits <= 0) return 0;
  if (bits >= 64) return value;
  return value & ~((u64{1} << (64 - bits)) - 1);
}

/// Bit `index` (0 = most significant of hi) of a 128-bit value.
int bit_at(u64 hi, u64 lo, int index) {
  if (index < 64) return static_cast<int>((hi >> (63 - index)) & 1);
  return static_cast<int>((lo >> (127 - index)) & 1);
}

/// Calls visit(level) at every level where the binary search over lengths
/// [1, 128] for a prefix of `length` >= 1 turns toward longer prefixes
/// (its markers, shortest first), then at `length` itself.
template <typename Visit>
void for_each_search_level(int length, Visit&& visit) {
  int low = 1, high = 128;
  while (true) {
    const int mid = (low + high) / 2;
    if (length < mid) {
      high = mid - 1;
      assert(low <= high);
      continue;
    }
    visit(mid);
    if (length == mid) return;
    low = mid + 1;
  }
}

}  // namespace

Key128 mask128(u64 hi, u64 lo, int bits) {
  assert(bits >= 0 && bits <= 128);
  if (bits <= 64) return {mask_top_bits(hi, bits), 0};
  return {hi, mask_top_bits(lo, bits - 64)};
}

// --- reference trie ---------------------------------------------------------

struct Ipv6ReferenceLpm::Node {
  std::unique_ptr<Node> child[2];
  bool has_nh = false;
  NextHop nh = kNoRoute;
};

Ipv6ReferenceLpm::Ipv6ReferenceLpm() : root_(std::make_unique<Node>()) {}
Ipv6ReferenceLpm::~Ipv6ReferenceLpm() = default;
Ipv6ReferenceLpm::Ipv6ReferenceLpm(Ipv6ReferenceLpm&&) noexcept = default;
Ipv6ReferenceLpm& Ipv6ReferenceLpm::operator=(Ipv6ReferenceLpm&&) noexcept = default;

void Ipv6ReferenceLpm::insert(const Ipv6Prefix& prefix) {
  Node* node = root_.get();
  const u64 hi = prefix.addr.hi64();
  const u64 lo = prefix.addr.lo64();
  for (int i = 0; i < prefix.length; ++i) {
    const int b = bit_at(hi, lo, i);
    if (!node->child[b]) node->child[b] = std::make_unique<Node>();
    node = node->child[b].get();
  }
  node->has_nh = true;
  node->nh = prefix.next_hop;
}

void Ipv6ReferenceLpm::build(std::span<const Ipv6Prefix> prefixes) {
  root_ = std::make_unique<Node>();
  for (const auto& p : prefixes) insert(p);
}

NextHop Ipv6ReferenceLpm::lookup(const net::Ipv6Addr& addr) const {
  const u64 hi = addr.hi64();
  const u64 lo = addr.lo64();
  NextHop best = kNoRoute;
  const Node* node = root_.get();
  if (node->has_nh) best = node->nh;
  for (int i = 0; i < 128; ++i) {
    node = node->child[bit_at(hi, lo, i)].get();
    if (node == nullptr) break;
    if (node->has_nh) best = node->nh;
  }
  return best;
}

// --- binary search on prefix lengths ----------------------------------------

void Ipv6Table::build(std::span<const Ipv6Prefix> prefixes) {
  // The prefixes sorted by (network, length): a prefix comes before every
  // prefix it covers, and `order` puts the last of equal prefixes last.
  // One counting pass places each route in the bucket of its network's top
  // bits, about one bucket per route (at most 2^16), and each bucket is
  // then sorted on its own: a few routes each for a spread-out RIB, one
  // std::sort for a RIB that crowds into one bucket.
  struct Route {
    Key128 network;
    u32 order = 0;
    u8 length = 0;
    NextHop next_hop = kNoRoute;
  };
  const int bucket_bits = std::min(16, static_cast<int>(std::bit_width(prefixes.size() | 1)));
  const auto bucket = [bucket_bits](const Key128& network) {
    return static_cast<std::size_t>(network.hi >> (64 - bucket_bits));
  };
  // start[b] counts bucket b - 1's routes, then, summed, is where b begins.
  std::vector<u32> start((std::size_t{1} << bucket_bits) + 1, 0);
  std::array<std::size_t, 129> per_length{};
  std::vector<Route> unsorted;
  unsorted.reserve(prefixes.size());
  for (u32 order = 0; order < prefixes.size(); ++order) {
    const Ipv6Prefix& p = prefixes[order];
    assert(p.length <= 128);
    assert(p.next_hop <= kNoRoute);
    unsorted.push_back(
        {mask128(p.addr.hi64(), p.addr.lo64(), p.length), order, p.length, p.next_hop});
    ++start[bucket(unsorted.back().network) + 1];
    ++per_length[p.length];
  }
  std::partial_sum(start.begin(), start.end(), start.begin());
  // Scattered from the converted routes in a pass of its own: scattering
  // each route as it was converted took 26-38 ms at paper scale; this
  // pass takes 4-5 ms.
  std::vector<Route> routes(unsorted.size());
  std::vector<u32> next(start.begin(), start.end() - 1);
  for (const Route& r : unsorted) routes[next[bucket(r.network)]++] = r;
  for (std::size_t b = 0; b + 1 < start.size(); ++b) {
    std::sort(routes.begin() + start[b], routes.begin() + start[b + 1],
              [](const Route& x, const Route& y) {
                return std::tie(x.network.hi, x.network.lo, x.length, x.order) <
                       std::tie(y.network.hi, y.network.lo, y.length, y.order);
              });
  }

  // Each level's slots, in ascending key order. Every prefix appends at
  // most one key to each level on its search path, so that count bounds
  // the level and no level grows while the sweep writes it.
  std::array<std::vector<Slot>, 129> levels;
  {
    std::array<std::size_t, 129> bound{};
    for (int length = 1; length <= 128; ++length) {
      for_each_search_level(length, [&](int level) { bound[level] += per_length[length]; });
    }
    for (int length = 1; length <= 128; ++length) levels[length].reserve(bound[length]);
  }

  // One sweep in that order writes each prefix's key at its own length
  // and a marker at every level where its search turns toward longer
  // prefixes. The prefixes that cover the current one, and the current
  // one on top, form a stack (one per length at most). A marker's
  // best-matching prefix is the deepest of them shorter than its level,
  // or the default route, so a lookup that hits the marker can record
  // `bmp` and go on toward longer lengths with no backtracking. A key
  // equal to its level's last key is already there: a prefix comes before
  // the markers that share its key, and every marker with one key resolves
  // to the same prefix.
  struct Cover {
    Key128 network;
    u8 length = 0;
    NextHop bmp = kNoRoute;
  };
  std::array<Cover, 128> stack;
  std::size_t depth = 0;
  const auto append = [&levels](int length, const Key128& key, NextHop bmp) {
    std::vector<Slot>& level = levels[length];
    if (!level.empty() && level.back().key_hi == key.hi && level.back().key_lo == key.lo) {
      return false;
    }
    assert(level.empty() ||
           std::tie(level.back().key_hi, level.back().key_lo) < std::tie(key.hi, key.lo));
    level.push_back({key.hi, key.lo, bmp, 1});
    return true;
  };
  default_nh_ = kNoRoute;
  prefix_count_ = 0;
  marker_count_ = 0;
  for (std::size_t i = 0; i < routes.size(); ++i) {
    const Route& r = routes[i];
    if (i + 1 < routes.size() && routes[i + 1].network == r.network &&
        routes[i + 1].length == r.length) {
      continue;  // a later duplicate wins
    }
    ++prefix_count_;
    if (r.length == 0) {
      default_nh_ = r.next_hop;  // sorts first, before any bmp is taken
      continue;
    }
    // Pop the prefixes that do not cover this one; what is left does.
    while (depth > 0 && (stack[depth - 1].length > r.length ||
                         mask128(r.network.hi, r.network.lo, stack[depth - 1].length) !=
                             stack[depth - 1].network)) {
      --depth;
    }
    assert(depth < stack.size());
    stack[depth++] = {r.network, r.length, r.next_hop};

    for_each_search_level(r.length, [&](int level) {
      const Key128 key = mask128(r.network.hi, r.network.lo, level);
      if (level == r.length) {
        [[maybe_unused]] const bool added = append(level, key, stack[depth - 1].bmp);
        assert(added);
        return;
      }
      std::size_t cover = depth;
      while (cover > 0 && stack[cover - 1].length >= level) --cover;
      if (append(level, key, cover > 0 ? stack[cover - 1].bmp : default_nh_)) ++marker_count_;
    });
  }

  // Lay out every level so the slot array is allocated once at its final
  // size (2x headroom keeps linear-probe chains short), then place each
  // level's keys in ascending order.
  u32 offset = 0;
  for (int length = 1; length <= 128; ++length) {
    level_offset_[length] = offset;
    level_mask_[length] = 0;
    if (levels[length].empty()) continue;
    const u32 capacity = static_cast<u32>(std::bit_ceil(levels[length].size() * 2));
    level_mask_[length] = capacity - 1;
    offset += capacity;
  }
  slots_.assign(offset, Slot{});
  for (int length = 1; length <= 128; ++length) {
    const u32 mask = level_mask_[length];
    Slot* level_slots = slots_.data() + level_offset_[length];
    for (const Slot& s : levels[length]) {
      u32 slot = static_cast<u32>(Key128Hash{}(Key128{s.key_hi, s.key_lo})) & mask;
      while (level_slots[slot].occupied != 0) slot = (slot + 1) & mask;
      level_slots[slot] = s;
    }
  }
}

NextHop Ipv6Table::lookup_in_arrays(const Slot* slots, const u32* offsets, const u32* masks,
                                    u64 hi, u64 lo, NextHop default_nh, int* probes) {
  NextHop best = default_nh;
  int n = 0;
  int low = 1, high = 128;
  while (low <= high) {
    const int mid = (low + high) / 2;
    ++n;
    bool found = false;
    if (masks[mid] != 0) {
      const Key128 key = mask128(hi, lo, mid);
      u32 slot = static_cast<u32>(Key128Hash{}(key)) & masks[mid];
      while (slots[offsets[mid] + slot].occupied != 0) {
        const Slot& s = slots[offsets[mid] + slot];
        if (s.key_hi == key.hi && s.key_lo == key.lo) {
          best = s.bmp;
          found = true;
          break;
        }
        slot = (slot + 1) & masks[mid];
      }
    }
    if (found) {
      low = mid + 1;
    } else {
      high = mid - 1;
    }
  }
  if (probes != nullptr) *probes = n;
  return best;
}

void Ipv6Table::lookup_batch_in_arrays(const Slot* slots, const u32* offsets, const u32* masks,
                                       const u64* keys, NextHop default_nh, NextHop* out,
                                       std::size_t n, u64* total_probes) {
  // Walks the binary search of up to kBatchInFlight keys in lockstep. Each
  // wave first computes every live key's hash slot for its current level and
  // prefetches it (part A), then resolves all the probes (part B). The ≤8
  // dependent probes of a single key are unavoidable latency; across keys
  // they are independent, so the group overlaps them.
  u64 probes_acc = 0;
  for (std::size_t base = 0; base < n; base += kBatchInFlight) {
    const std::size_t m = std::min(kBatchInFlight, n - base);
    int low[kBatchInFlight];
    int high[kBatchInFlight];
    int midk[kBatchInFlight];
    NextHop best[kBatchInFlight];
    Key128 key[kBatchInFlight];
    u32 slot[kBatchInFlight];
    bool probing[kBatchInFlight];
    for (std::size_t k = 0; k < m; ++k) {
      low[k] = 1;
      high[k] = 128;
      best[k] = default_nh;
    }
    bool any = true;
    while (any) {
      // Part A: advance each live key past empty levels (no memory access,
      // same accounting as the scalar path), then hash and prefetch the slot
      // of its first non-empty level.
      for (std::size_t k = 0; k < m; ++k) {
        probing[k] = false;
        int mid = 0;
        while (low[k] <= high[k]) {
          mid = (low[k] + high[k]) / 2;
          ++probes_acc;
          if (masks[mid] != 0) break;
          high[k] = mid - 1;
        }
        if (low[k] > high[k]) continue;
        midk[k] = mid;
        key[k] = mask128(keys[2 * (base + k)], keys[2 * (base + k) + 1], mid);
        slot[k] = static_cast<u32>(Key128Hash{}(key[k])) & masks[mid];
        __builtin_prefetch(&slots[offsets[mid] + slot[k]], 0, 1);
        probing[k] = true;
      }
      // Part B: resolve every prefetched probe and update the search range.
      any = false;
      for (std::size_t k = 0; k < m; ++k) {
        if (probing[k]) {
          const int mid = midk[k];
          bool found = false;
          u32 s_idx = slot[k];
          while (slots[offsets[mid] + s_idx].occupied != 0) {
            const Slot& s = slots[offsets[mid] + s_idx];
            if (s.key_hi == key[k].hi && s.key_lo == key[k].lo) {
              best[k] = s.bmp;
              found = true;
              break;
            }
            s_idx = (s_idx + 1) & masks[mid];
          }
          if (found) {
            low[k] = mid + 1;
          } else {
            high[k] = mid - 1;
          }
        }
        if (low[k] <= high[k]) any = true;
      }
    }
    for (std::size_t k = 0; k < m; ++k) out[base + k] = best[k];
  }
  if (total_probes != nullptr) *total_probes += probes_acc;
}

}  // namespace ps::route
