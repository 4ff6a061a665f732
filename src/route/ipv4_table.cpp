#include "route/ipv4_table.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace ps::route {

Ipv4Table::Ipv4Table()
    : tbl24_(std::make_unique_for_overwrite<u16[]>(kTbl24Entries)),
      depth24_(std::make_unique<u8[]>(kTbl24Entries)) {
  std::fill_n(tbl24_.get(), kTbl24Entries, kNoRoute);
}

Ipv4Table::Ipv4Table(std::span<const Ipv4Prefix> prefixes)
    : tbl24_(std::make_unique_for_overwrite<u16[]>(kTbl24Entries)),
      depth24_(std::make_unique_for_overwrite<u8[]>(kTbl24Entries)) {
  build(prefixes);
}

Ipv4Table::Ipv4Table(const Ipv4Table& other)
    : tbl24_(std::make_unique_for_overwrite<u16[]>(kTbl24Entries)),
      tbl_long_(other.tbl_long_),
      depth24_(std::make_unique_for_overwrite<u8[]>(kTbl24Entries)),
      depth_long_(other.depth_long_),
      prefix_count_(other.prefix_count_) {
  std::copy_n(other.tbl24_.get(), kTbl24Entries, tbl24_.get());
  std::copy_n(other.depth24_.get(), kTbl24Entries, depth24_.get());
}

Ipv4Table& Ipv4Table::operator=(const Ipv4Table& other) {
  if (this == &other) return *this;
  if (tbl24_ == nullptr) {
    tbl24_ = std::make_unique_for_overwrite<u16[]>(kTbl24Entries);
    depth24_ = std::make_unique_for_overwrite<u8[]>(kTbl24Entries);
  }
  std::copy_n(other.tbl24_.get(), kTbl24Entries, tbl24_.get());
  std::copy_n(other.depth24_.get(), kTbl24Entries, depth24_.get());
  tbl_long_ = other.tbl_long_;
  depth_long_ = other.depth_long_;
  prefix_count_ = other.prefix_count_;
  return *this;
}

namespace {

// build() packs a prefix into a u64 for sorting: network in bits 22..53,
// length in bits 16..21, next hop in bits 0..15. Bits 16 and up order
// prefixes by (network, length).
constexpr int kKeyShift = 16;
constexpr int kNetworkShift = 22;

u64 pack(const Ipv4Prefix& p) {
  return (u64{p.network()} << kNetworkShift) | (u64{p.length} << kKeyShift) | p.next_hop;
}
u32 packed_network(u64 x) { return static_cast<u32>(x >> kNetworkShift); }
u8 packed_length(u64 x) { return static_cast<u8>((x >> kKeyShift) & 0x3f); }
u16 packed_next_hop(u64 x) { return static_cast<u16>(x); }

/// Stable LSD radix sort on the (network, length) bits: three 13-bit
/// digits cover bits 16..54. Stable, so equal prefixes keep input order.
void radix_sort(std::vector<u64>& keys) {
  constexpr int kDigitBits = 13;
  constexpr int kPasses = 3;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  const auto digit = [](u64 x, int pass) {
    return static_cast<std::size_t>(x >> (kKeyShift + pass * kDigitBits)) & (kBuckets - 1);
  };
  std::vector<u32> offsets(kBuckets * kPasses, 0);
  for (const u64 x : keys) {
    for (int pass = 0; pass < kPasses; ++pass) ++offsets[pass * kBuckets + digit(x, pass)];
  }
  std::vector<u64> out(keys.size());
  for (int pass = 0; pass < kPasses; ++pass) {
    u32* offset = &offsets[pass * kBuckets];
    u32 sum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) sum += std::exchange(offset[b], sum);
    for (const u64 x : keys) out[offset[digit(x, pass)]++] = x;
    keys.swap(out);
  }
}

/// Writes `value` to [first, last) with 64-bit stores of the entry
/// replicated four times, once `first` is 8-byte aligned. A run of u16
/// stores is one store per entry at -O2, four times as many as this needs.
void fill_entries(u16* first, u16* last, u16 value) {
  const u64 word = value * 0x0001'0001'0001'0001ULL;
  for (; first != last && reinterpret_cast<std::uintptr_t>(first) % sizeof word != 0; ++first) {
    *first = value;
  }
  for (; last - first >= 4; first += 4) std::memcpy(first, &word, sizeof word);
  for (; first != last; ++first) *first = value;
}

/// Writes entries[0, count) and depths[0, count) once each, in address
/// order. A prefix covers 2^(32 - shift - length) slots from slot
/// (network >> shift) mod count; each slot takes the longest prefix that
/// covers it, or (fill_next_hop, fill_depth) where none does. `prefixes`
/// are packed, sorted, and all lie inside the block, so a prefix that
/// covers another comes before it and the covering prefixes form a stack.
void sweep(u16* entries, u8* depths, u32 count, int shift, u16 fill_next_hop, u8 fill_depth,
           std::span<const u64> prefixes) {
  struct Cover {
    u32 end = 0;
    u16 next_hop = 0;
    u8 depth = 0;
  };
  // One cover per distinct length, plus the block's own fill.
  std::array<Cover, 34> stack;
  stack[0] = {count, fill_next_hop, fill_depth};
  std::size_t top = 0;
  u32 pos = 0;
  const auto write_to = [&](u32 end) {
    fill_entries(entries + pos, entries + end, stack[top].next_hop);
    std::fill(depths + pos, depths + end, stack[top].depth);
    pos = end;
  };
  // Fill up to `limit`, popping every cover that ends on the way.
  const auto advance_to = [&](u32 limit) {
    while (top > 0 && stack[top].end <= limit) {
      write_to(stack[top].end);
      --top;
    }
    write_to(limit);
  };
  for (const u64 x : prefixes) {
    const u32 first = (packed_network(x) >> shift) & (count - 1);
    const u8 length = packed_length(x);
    advance_to(first);
    stack[++top] = {first + (u32{1} << (32 - shift - length)), packed_next_hop(x), length};
  }
  advance_to(count);
}

}  // namespace

void Ipv4Table::build(std::span<const Ipv4Prefix> prefixes) {
  std::vector<u64> sorted;
  sorted.reserve(prefixes.size());
  for (const auto& p : prefixes) {
    assert(p.length <= 32);
    assert(p.next_hop < kLongFlag);
    sorted.push_back(pack(p));
  }
  radix_sort(sorted);

  // Keep the last of each run of equal prefixes (the sort is stable, so
  // that is the last one given) and split at /24: the short ones sweep
  // TBL24, the long ones their overflow chunks.
  std::vector<u64> shorter;
  std::vector<u64> longer;
  shorter.reserve(sorted.size());
  std::size_t chunks = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const u64 x = sorted[i];
    if (i + 1 < sorted.size() && (sorted[i + 1] >> kKeyShift) == (x >> kKeyShift)) continue;
    if (packed_length(x) <= 24) {
      shorter.push_back(x);
    } else {
      if (longer.empty() || packed_network(longer.back()) >> 8 != packed_network(x) >> 8) {
        ++chunks;
      }
      longer.push_back(x);
    }
  }
  if (chunks > kLongFlag) throw std::length_error("too many >24-bit prefixes");
  prefix_count_ = shorter.size() + longer.size();

  sweep(tbl24_.get(), depth24_.get(), u32{1} << 24, 8, kNoRoute, 0, shorter);

  // Each /24 holding a longer prefix gets a chunk, seeded with the TBL24
  // entry it replaces.
  tbl_long_.resize(chunks * kChunk);
  depth_long_.resize(chunks * kChunk);
  u32 chunk = 0;
  for (std::size_t begin = 0; begin < longer.size(); ++chunk) {
    const u32 idx24 = packed_network(longer[begin]) >> 8;
    std::size_t end = begin + 1;
    while (end < longer.size() && packed_network(longer[end]) >> 8 == idx24) ++end;
    const std::size_t base = std::size_t{chunk} * kChunk;
    sweep(&tbl_long_[base], &depth_long_[base], kChunk, 0, tbl24_[idx24], depth24_[idx24],
          std::span<const u64>(longer).subspan(begin, end - begin));
    tbl24_[idx24] = static_cast<u16>(kLongFlag | chunk);
    begin = end;
  }
}

u32 Ipv4Table::chunk_for(u32 idx24) {
  u16& entry = tbl24_[idx24];
  if (entry & kLongFlag) return entry & ~kLongFlag;
  // First >24-bit prefix under this /24: allocate an overflow chunk seeded
  // with the current (shorter-prefix) next hop and its depth.
  const u32 chunk = static_cast<u32>(tbl_long_.size() / kChunk);
  if (chunk >= kLongFlag) throw std::length_error("too many >24-bit prefixes");
  tbl_long_.insert(tbl_long_.end(), kChunk, entry);
  depth_long_.insert(depth_long_.end(), kChunk, depth24_[idx24]);
  entry = static_cast<u16>(kLongFlag | chunk);
  return chunk;
}

std::size_t Ipv4Table::apply_resolved(std::span<const ResolvedIpv4Op> ops) {
  std::size_t written = 0;
  for (const auto& op : ops) written += apply_one(op);
  return written;
}

std::size_t Ipv4Table::apply_one(const ResolvedIpv4Op& op) {
  const auto& p = op.prefix;
  assert(p.length <= 32);
  assert(p.next_hop < kLongFlag);
  const u32 net = p.network();
  std::size_t written = 0;

  if (op.announce) {
    if (p.length <= 24) {
      // Overwrite every slot whose current route is no more specific than
      // us. Flagged /24s descend into their chunk: the chunk's shallow
      // slots (depth <= L) re-resolve to the new route, the deep ones
      // (the >24 prefixes that caused the chunk) are untouched.
      const u32 first = net >> 8;
      const u32 count = u32{1} << (24 - p.length);
      for (u32 i = 0; i < count; ++i) {
        u16& entry = tbl24_[first + i];
        if (entry & kLongFlag) {
          const u32 base = (entry & ~kLongFlag) * kChunk;
          for (u32 s = 0; s < kChunk; ++s) {
            if (depth_long_[base + s] <= p.length) {
              tbl_long_[base + s] = p.next_hop;
              depth_long_[base + s] = p.length;
              ++written;
            }
          }
        } else if (depth24_[first + i] <= p.length) {
          entry = p.next_hop;
          depth24_[first + i] = p.length;
          ++written;
        }
      }
    } else {
      const u32 base = chunk_for(net >> 8) * kChunk;
      const u32 first = net & 0xff;
      const u32 count = u32{1} << (32 - p.length);
      for (u32 i = 0; i < count; ++i) {
        if (depth_long_[base + first + i] <= p.length) {
          tbl_long_[base + first + i] = p.next_hop;
          depth_long_[base + first + i] = p.length;
          ++written;
        }
      }
    }
    if (op.is_new) ++prefix_count_;
    return written;
  }

  // Withdraw: slots at exactly our depth are the ones whose LPM we were;
  // they fall back to the pre-resolved parent. More-specific slots keep
  // their route; shallower slots were never ours. Overflow chunks are
  // never deallocated (layout may diverge from build(); lookups cannot
  // tell, and the next announce under that /24 reuses the chunk).
  assert(p.length == 0 || op.parent_depth < p.length);
  if (p.length <= 24) {
    const u32 first = net >> 8;
    const u32 count = u32{1} << (24 - p.length);
    for (u32 i = 0; i < count; ++i) {
      u16& entry = tbl24_[first + i];
      if (entry & kLongFlag) {
        const u32 base = (entry & ~kLongFlag) * kChunk;
        for (u32 s = 0; s < kChunk; ++s) {
          if (depth_long_[base + s] == p.length) {
            tbl_long_[base + s] = op.parent_nh;
            depth_long_[base + s] = op.parent_depth;
            ++written;
          }
        }
      } else if (depth24_[first + i] == p.length) {
        entry = op.parent_nh;
        depth24_[first + i] = op.parent_depth;
        ++written;
      }
    }
  } else {
    const u16 entry = tbl24_[net >> 8];
    // No chunk means the announce that would have created it never
    // committed; nothing to undo.
    if (entry & kLongFlag) {
      const u32 base = (entry & ~kLongFlag) * kChunk;
      const u32 first = net & 0xff;
      const u32 count = u32{1} << (32 - p.length);
      for (u32 i = 0; i < count; ++i) {
        if (depth_long_[base + first + i] == p.length) {
          tbl_long_[base + first + i] = op.parent_nh;
          depth_long_[base + first + i] = op.parent_depth;
          ++written;
        }
      }
    }
  }
  if (prefix_count_ > 0) --prefix_count_;
  return written;
}

NextHop Ipv4Table::lookup(net::Ipv4Addr addr, int* probes) const {
  return lookup_in_arrays(tbl24_.get(), tbl_long_.data(), addr.value, probes);
}

void Ipv4ReferenceLpm::build(std::span<const Ipv4Prefix> prefixes) {
  prefixes_.assign(prefixes.begin(), prefixes.end());
  // Descending length with stable order: the first match during the scan is
  // the longest; among equal prefixes the later insertion wins, matching
  // Ipv4Table::build's overwrite semantics.
  std::stable_sort(prefixes_.begin(), prefixes_.end(),
                   [](const Ipv4Prefix& a, const Ipv4Prefix& b) { return a.length > b.length; });
}

NextHop Ipv4ReferenceLpm::lookup(net::Ipv4Addr addr) const {
  for (std::size_t i = 0; i < prefixes_.size(); ++i) {
    // Scan within one length class from the back so the last-inserted
    // duplicate wins, like the rebuild semantics of Ipv4Table.
    const auto& p = prefixes_[i];
    if (!p.matches(addr)) continue;
    NextHop result = p.next_hop;
    for (std::size_t j = i + 1; j < prefixes_.size() && prefixes_[j].length == p.length; ++j) {
      if (prefixes_[j].matches(addr) && prefixes_[j].network() == p.network()) {
        result = prefixes_[j].next_hop;
      }
    }
    return result;
  }
  return kNoRoute;
}

}  // namespace ps::route
