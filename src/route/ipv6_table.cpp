#include "route/ipv6_table.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <tuple>

#include "common/parallel.hpp"

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
  // The routes are converted and grouped by their network's top bits,
  // about one bucket per route (at most 2^16), and 64 tasks then sort the
  // buckets, each bucket on its own: a few routes each for a spread-out
  // RIB, one std::sort for a RIB that crowds into one bucket.
  struct Route {
    Key128 network;
    u32 order = 0;
    u8 length = 0;
    NextHop next_hop = kNoRoute;
  };
  const int bucket_bits = std::min(16, static_cast<int>(std::bit_width(prefixes.size() | 1)));
  std::vector<Route, OverwriteAllocator<Route>> routes(prefixes.size());
  const std::vector<std::size_t> start = counting_scatter(
      prefixes.size(), std::size_t{1} << bucket_bits,
      [prefixes, bucket_bits](std::size_t i) {
        const Ipv6Prefix& p = prefixes[i];
        return static_cast<std::size_t>(mask_top_bits(p.addr.hi64(), p.length) >>
                                        (64 - bucket_bits));
      },
      [prefixes, &routes](std::size_t i, std::size_t pos) {
        const Ipv6Prefix& p = prefixes[i];
        assert(p.length <= 128);
        assert(p.next_hop <= kNoRoute);
        routes[pos] = {mask128(p.addr.hi64(), p.addr.lo64(), p.length), static_cast<u32>(i),
                       p.length, p.next_hop};
      });
  constexpr std::size_t kSortTasks = 64;
  const std::size_t buckets = start.size() - 1;
  const std::size_t sort_tasks = std::min(kSortTasks, buckets);
  parallel_for(sort_tasks, [&](std::size_t t) {
    for (std::size_t b = t * buckets / sort_tasks; b < (t + 1) * buckets / sort_tasks; ++b) {
      std::sort(routes.begin() + start[b], routes.begin() + start[b + 1],
                [](const Route& x, const Route& y) {
                  return std::tie(x.network.hi, x.network.lo, x.length, x.order) <
                         std::tie(y.network.hi, y.network.lo, y.length, y.order);
                });
    }
  });
  // A later duplicate wins, so a route followed by an equal one is skipped.
  const auto replaced = [&routes](std::size_t i) {
    return i + 1 < routes.size() && routes[i + 1].network == routes[i].network &&
           routes[i + 1].length == routes[i].length;
  };

  // The routes are swept in about 64 runs in parallel, cut only where the
  // top 16 bits change. A route of length >= 16 visits only levels >= 16
  // (the search's left spine is 64, 32, 16), so its keys keep its top 16
  // bits and stay inside its run. Only routes shorter than /16 cover
  // routes of later runs, and those that do cover the later run's first
  // route, so each run starts its cover stack with them. The default
  // route, which sorts first, answers where no cover does.
  struct Cover {
    Key128 network;
    u8 length = 0;
    NextHop bmp = kNoRoute;
  };
  const auto covers = [](const Cover& c, const Route& r) {
    return c.length <= r.length && mask128(r.network.hi, r.network.lo, c.length) == c.network;
  };
  struct Run {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::array<Cover, 15> seed;  // one per length below 16 at most
    std::size_t seed_depth = 0;
    // The run's level-L keys are keys[key_begin[L], key_end[L]).
    std::array<u32, 129> key_begin{};
    std::array<u32, 129> key_end{};
    std::size_t prefixes = 0;
    std::size_t markers = 0;
  };
  constexpr std::size_t kRuns = 64;
  const auto top16 = [&routes](std::size_t i) { return routes[i].network.hi >> 48; };
  std::vector<Run> runs;
  runs.reserve(kRuns);
  for (std::size_t k = 1, begin = 0; begin < routes.size(); ++k) {
    std::size_t end = std::max(begin + 1, k * routes.size() / kRuns);
    while (end < routes.size() && top16(end) == top16(end - 1)) ++end;
    runs.push_back({.begin = begin, .end = end});
    begin = end;
  }

  default_nh_ = kNoRoute;
  for (std::size_t i = 0; i < routes.size() && routes[i].length == 0; ++i) {
    default_nh_ = routes[i].next_hop;
  }

  // One pass takes each run's seed and bounds each of its levels: every
  // route appends at most one key to each level on its search path, so no
  // level outgrows its share of `keys` while its run writes it.
  std::array<std::array<u32, 129>, kRuns> bound{};
  {
    std::array<Cover, 15> shorter;
    std::size_t depth = 0;
    for (std::size_t k = 0; k < runs.size(); ++k) {
      Run& run = runs[k];
      while (depth > 0 && !covers(shorter[depth - 1], routes[run.begin])) --depth;
      std::copy_n(shorter.begin(), depth, run.seed.begin());
      run.seed_depth = depth;
      std::array<u32, 129> per_length{};
      for (std::size_t i = run.begin; i < run.end; ++i) {
        const Route& r = routes[i];
        ++per_length[r.length];
        if (r.length == 0 || r.length >= 16 || replaced(i)) continue;
        while (depth > 0 && !covers(shorter[depth - 1], r)) --depth;
        assert(depth < shorter.size());
        shorter[depth++] = {r.network, r.length, r.next_hop};
      }
      for (int length = 1; length <= 128; ++length) {
        if (per_length[length] == 0) continue;
        for_each_search_level(length, [&](int level) { bound[k][level] += per_length[length]; });
      }
    }
  }
  u32 total = 0;
  for (int level = 1; level <= 128; ++level) {
    for (std::size_t k = 0; k < runs.size(); ++k) {
      runs[k].key_begin[level] = runs[k].key_end[level] = total;
      total += bound[k][level];
    }
  }
  std::vector<Slot, OverwriteAllocator<Slot>> keys(total);

  // Each run's sweep writes each route's key at its own length and a
  // marker at every level where its search turns toward longer prefixes,
  // in ascending order per level. The prefixes that cover the current one,
  // and the current one on top, form a stack (one per length at most). A
  // marker's best-matching prefix is the deepest of them shorter than its
  // level, or the default route, so a lookup that hits the marker can
  // record `bmp` and go on toward longer lengths with no backtracking. A
  // key equal to its level's last key is already there: a prefix comes
  // before the markers that share its key, and every marker with one key
  // resolves to the same prefix.
  parallel_for(runs.size(), [&](std::size_t k) {
    Run& run = runs[k];
    std::array<Cover, 128> stack;
    std::copy_n(run.seed.begin(), run.seed_depth, stack.begin());
    std::size_t depth = run.seed_depth;
    const auto append = [&run, &keys](int level, const Key128& key, NextHop bmp) {
      u32& end = run.key_end[level];
      if (end != run.key_begin[level]) {
        const Slot& last = keys[end - 1];
        if (last.key_hi == key.hi && last.key_lo == key.lo) return false;
        assert(std::tie(last.key_hi, last.key_lo) < std::tie(key.hi, key.lo));
      }
      keys[end++] = {key.hi, key.lo, bmp, 1};
      return true;
    };
    for (std::size_t i = run.begin; i < run.end; ++i) {
      const Route& r = routes[i];
      if (replaced(i)) continue;
      ++run.prefixes;
      if (r.length == 0) continue;  // the default route, taken above
      // Pop the prefixes that do not cover this one; what is left does.
      while (depth > 0 && !covers(stack[depth - 1], r)) --depth;
      assert(depth < stack.size());
      stack[depth++] = {r.network, r.length, r.next_hop};

      for_each_search_level(r.length, [&](int level) {
        const Key128 key = mask128(r.network.hi, r.network.lo, level);
        if (level == r.length) {
          [[maybe_unused]] const bool added = append(level, key, r.next_hop);
          assert(added);
          return;
        }
        std::size_t cover = depth;
        while (cover > 0 && stack[cover - 1].length >= level) --cover;
        if (append(level, key, cover > 0 ? stack[cover - 1].bmp : default_nh_)) ++run.markers;
      });
    }
  });

  // Join the runs level by level. Across a cut the keys of a level >= 16
  // ascend strictly. Below 16 the same marker can end one run's level and
  // start the next run's; the first copy is the one a single sweep keeps.
  prefix_count_ = 0;
  marker_count_ = 0;
  for (const Run& run : runs) {
    prefix_count_ += run.prefixes;
    marker_count_ += run.markers;
  }
  std::array<u32, 129> level_size{};
  for (int level = 1; level <= 128; ++level) {
    const Slot* last = nullptr;
    for (Run& run : runs) {
      u32& begin = run.key_begin[level];
      if (begin == run.key_end[level]) continue;
      const Slot& first = keys[begin];
      if (last != nullptr) {
        const auto last_key = std::tie(last->key_hi, last->key_lo);
        const auto first_key = std::tie(first.key_hi, first.key_lo);
        assert(level < 16 ? last_key <= first_key : last_key < first_key);
        if (last_key == first_key) {
          ++begin;
          --marker_count_;
        }
      }
      level_size[level] += run.key_end[level] - begin;
      last = &keys[run.key_end[level] - 1];
    }
  }

  // Lay out every level so the slot array is allocated once at its final
  // size (2x headroom keeps linear-probe chains short). Then one task per
  // level, largest first, empties the level's slots and places its keys in
  // ascending order.
  u32 offset = 0;
  std::array<int, 128> filled{};
  std::size_t filled_levels = 0;
  for (int length = 1; length <= 128; ++length) {
    level_offset_[length] = offset;
    level_mask_[length] = 0;
    if (level_size[length] == 0) continue;
    const u32 capacity = static_cast<u32>(std::bit_ceil(std::size_t{level_size[length]} * 2));
    level_mask_[length] = capacity - 1;
    offset += capacity;
    filled[filled_levels++] = length;
  }
  std::sort(filled.begin(), filled.begin() + filled_levels,
            [this](int x, int y) { return level_mask_[x] > level_mask_[y]; });
  slots_.clear();
  slots_.resize(offset);
  parallel_for(filled_levels, [&](std::size_t t) {
    const int length = filled[t];
    const u32 mask = level_mask_[length];
    Slot* level_slots = slots_.data() + level_offset_[length];
    std::fill_n(level_slots, std::size_t{mask} + 1, Slot{});
    for (const Run& run : runs) {
      for (u32 j = run.key_begin[length]; j < run.key_end[length]; ++j) {
        const Slot& s = keys[j];
        u32 slot = static_cast<u32>(Key128Hash{}(Key128{s.key_hi, s.key_lo})) & mask;
        while (level_slots[slot].occupied != 0) slot = (slot + 1) & mask;
        level_slots[slot] = s;
      }
    }
  });
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
