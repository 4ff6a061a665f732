#include "route/ipv6_table.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

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

u64 flat_hash(u64 hi, u64 lo) {
  u64 x = hi * 0x9e3779b97f4a7c15ULL ^ lo;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return x ^ (x >> 31);
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

NextHop Ipv6ReferenceLpm::lookup_key(const Key128& key, int max_length) const {
  NextHop best = kNoRoute;
  const Node* node = root_.get();
  if (node->has_nh) best = node->nh;
  for (int i = 0; i < max_length; ++i) {
    node = node->child[bit_at(key.hi, key.lo, i)].get();
    if (node == nullptr) break;
    if (node->has_nh) best = node->nh;
  }
  return best;
}

NextHop Ipv6ReferenceLpm::lookup(const net::Ipv6Addr& addr, int max_length) const {
  return lookup_key({addr.hi64(), addr.lo64()}, max_length);
}

// --- binary search on prefix lengths ----------------------------------------

void Ipv6Table::build(std::span<const Ipv6Prefix> prefixes) {
  for (auto& level : levels_) level.clear();
  default_nh_ = kNoRoute;
  prefix_count_ = 0;
  marker_count_ = 0;

  Ipv6ReferenceLpm trie;
  for (const auto& p : prefixes) {
    assert(p.length <= 128);
    assert(p.next_hop <= kNoRoute);
    trie.insert(p);
  }

  for (const auto& p : prefixes) {
    ++prefix_count_;
    if (p.length == 0) {
      default_nh_ = p.next_hop;
      continue;
    }
    const u64 hi = p.addr.hi64();
    const u64 lo = p.addr.lo64();

    // Walk the binary search tree over lengths [1, 128], dropping a marker
    // at every level where the search must turn toward longer prefixes.
    int low = 1, high = 128;
    while (true) {
      const int mid = (low + high) / 2;
      const Key128 key = mask128(hi, lo, mid);
      if (p.length == mid) {
        Entry& e = levels_[mid][key];
        e.is_prefix = true;
        e.nh = p.next_hop;
        break;
      }
      if (p.length > mid) {
        auto [it, inserted] = levels_[mid].try_emplace(key);
        if (inserted) ++marker_count_;
        low = mid + 1;
      } else {
        high = mid - 1;
      }
      assert(low <= high);
    }
  }

  // Precompute every entry's best-matching prefix: the longest real prefix
  // covering the entry's bits, at or below the entry's level. A hit on the
  // entry can then immediately record `bmp` and continue toward longer
  // lengths with no backtracking.
  for (int length = 1; length <= 128; ++length) {
    for (auto& [key, entry] : levels_[length]) {
      entry.bmp = trie.lookup_key(key, length);
      if (entry.bmp == kNoRoute) entry.bmp = default_nh_;
    }
  }
  build_flat();
}

NextHop Ipv6Table::lookup(const net::Ipv6Addr& addr, int* probes) const {
  const u64 hi = addr.hi64();
  const u64 lo = addr.lo64();
  NextHop best = default_nh_;
  int n = 0;
  int low = 1, high = 128;
  while (low <= high) {
    const int mid = (low + high) / 2;
    ++n;
    const auto& level = levels_[mid];
    const auto it = level.find(mask128(hi, lo, mid));
    if (it != level.end()) {
      best = it->second.bmp;
      low = mid + 1;
    } else {
      high = mid - 1;
    }
  }
  if (probes != nullptr) *probes = n;
  return best;
}

void Ipv6Table::build_flat() {
  Ipv6FlatTable flat;
  flat.default_nh_ = default_nh_;

  // Lay out every level first, so the slot array is allocated once at its
  // final size rather than regrown (and briefly held twice) per level.
  u32 offset = 0;
  for (int length = 1; length <= 128; ++length) {
    const auto& level = levels_[length];
    flat.level_offset_[length] = offset;
    if (level.empty()) {
      flat.level_mask_[length] = 0;
      continue;
    }
    // 2x headroom keeps linear-probe chains short.
    const u32 capacity = static_cast<u32>(std::bit_ceil(level.size() * 2));
    flat.level_mask_[length] = capacity - 1;
    offset += capacity;
  }
  flat.slots_.resize(offset);
  for (int length = 1; length <= 128; ++length) {
    const u32 mask = flat.level_mask_[length];
    Ipv6FlatTable::Slot* level_slots = flat.slots_.data() + flat.level_offset_[length];
    for (const auto& [key, entry] : levels_[length]) {
      u32 slot = static_cast<u32>(flat_hash(key.hi, key.lo)) & mask;
      while (level_slots[slot].occupied != 0) slot = (slot + 1) & mask;
      level_slots[slot] = Ipv6FlatTable::Slot{key.hi, key.lo, entry.bmp, 1};
    }
  }
  flat_ = std::move(flat);
}

NextHop Ipv6FlatTable::lookup_in_arrays(const Slot* slots, const u32* offsets, const u32* masks,
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
      u32 slot = static_cast<u32>(flat_hash(key.hi, key.lo)) & masks[mid];
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

void Ipv6FlatTable::lookup_batch_in_arrays(const Slot* slots, const u32* offsets,
                                           const u32* masks, const u64* keys,
                                           NextHop default_nh, NextHop* out, std::size_t n,
                                           u64* total_probes) {
  // Walks the binary search of up to kBatchInFlight keys in lockstep. Each
  // wave first computes every live key's hash slot for its current level and
  // prefetches it (part A), then resolves all the probes (part B). The ≤7
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
        slot[k] = static_cast<u32>(flat_hash(key[k].hi, key[k].lo)) & masks[mid];
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
