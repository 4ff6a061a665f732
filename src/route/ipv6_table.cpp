#include "route/ipv6_table.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
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
  // Every key of every level: a prefix with its next hop, or a marker
  // whose best-matching prefix is looked up when its level is filled.
  struct LevelKey {
    Key128 key;
    u32 order = 0;  // position in `prefixes`: the last duplicate wins
    NextHop next_hop = kNoRoute;
    bool marker = false;  // false sorts first, so a prefix wins its key
  };
  std::array<std::vector<LevelKey>, 129> levels;
  default_nh_ = kNoRoute;
  prefix_count_ = 0;
  for (u32 order = 0; order < prefixes.size(); ++order) {
    const Ipv6Prefix& p = prefixes[order];
    assert(p.length <= 128);
    assert(p.next_hop <= kNoRoute);
    if (p.length == 0) {
      prefix_count_ = 1;  // the levels count every other distinct prefix
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
        levels[mid].push_back({key, order, p.next_hop, false});
        break;
      }
      if (p.length > mid) {
        levels[mid].push_back({key, order, kNoRoute, true});
        low = mid + 1;
      } else {
        high = mid - 1;
      }
      assert(low <= high);
    }
  }

  // Keep one entry per distinct key (a prefix before a marker, a later
  // duplicate before an earlier one), then lay out every level so the slot
  // array is allocated once at its final size. 2x headroom keeps
  // linear-probe chains short.
  marker_count_ = 0;
  u32 offset = 0;
  for (int length = 1; length <= 128; ++length) {
    auto& keys = levels[length];
    std::sort(keys.begin(), keys.end(), [](const LevelKey& a, const LevelKey& b) {
      return std::tie(a.key.hi, a.key.lo, a.marker, b.order) <
             std::tie(b.key.hi, b.key.lo, b.marker, a.order);
    });
    keys.erase(std::unique(keys.begin(), keys.end(),
                           [](const LevelKey& a, const LevelKey& b) { return a.key == b.key; }),
               keys.end());
    const auto markers = static_cast<std::size_t>(
        std::count_if(keys.begin(), keys.end(), [](const LevelKey& k) { return k.marker; }));
    marker_count_ += markers;
    prefix_count_ += keys.size() - markers;
    level_offset_[length] = offset;
    level_mask_[length] = 0;
    if (keys.empty()) continue;
    const u32 capacity = static_cast<u32>(std::bit_ceil(keys.size() * 2));
    level_mask_[length] = capacity - 1;
    offset += capacity;
  }

  // Fill the levels shortest first. A marker's best-matching prefix is the
  // longest prefix shorter than its level that covers its key, which is
  // what a lookup returns while only the shorter levels are filled
  // (`filled` holds their masks; every longer level reads as empty). A hit
  // can then record `bmp` and continue toward longer lengths with no
  // backtracking.
  slots_.assign(offset, Slot{});
  std::array<u32, 129> filled{};
  for (int length = 1; length <= 128; ++length) {
    const u32 mask = level_mask_[length];
    Slot* level_slots = slots_.data() + level_offset_[length];
    for (const LevelKey& k : levels[length]) {
      NextHop bmp = k.next_hop == kNoRoute ? default_nh_ : k.next_hop;
      if (k.marker) {
        bmp = lookup_in_arrays(slots_.data(), level_offset_.data(), filled.data(), k.key.hi,
                               k.key.lo, default_nh_);
      }
      u32 slot = static_cast<u32>(Key128Hash{}(k.key)) & mask;
      while (level_slots[slot].occupied != 0) slot = (slot + 1) & mask;
      level_slots[slot] = Slot{k.key.hi, k.key.lo, bmp, 1};
    }
    filled[length] = mask;
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
