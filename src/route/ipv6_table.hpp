// IPv6 longest-prefix matching by binary search on prefix lengths
// (Waldvogel, Varghese, Turner, Plattner, SIGCOMM'97) — the algorithm of
// section 6.2.2. Per-length hash tables hold prefixes plus "markers" with
// precomputed best-matching prefixes, so a lookup never backtracks. The
// search over lengths 1..128 takes at most 8 steps; 7 unless the table
// holds a /127 or /128, since only a hit at /127 sends it on to /128. The
// paper cites seven memory accesses per lookup.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "net/addr.hpp"
#include "route/ipv4_table.hpp"  // NextHop / kNoRoute

namespace ps::route {

struct Ipv6Prefix {
  static constexpr u8 kMaxLength = 128;
  net::Ipv6Addr addr;
  u8 length = 0;  // 0..kMaxLength
  NextHop next_hop = kNoRoute;
};

/// A 128-bit value as two host-order words (hi = bits 127..64).
struct Key128 {
  u64 hi = 0;
  u64 lo = 0;
  bool operator==(const Key128&) const = default;
};

/// The one 128-bit hash: places keys in the table's levels and hashes
/// IPv6 RIB keys.
struct Key128Hash {
  std::size_t operator()(const Key128& k) const noexcept {
    u64 x = k.hi * 0x9e3779b97f4a7c15ULL ^ k.lo;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

/// First `bits` bits of (hi, lo), rest zeroed. bits in [0, 128].
Key128 mask128(u64 hi, u64 lo, int bits);

/// Reference LPM: a binary trie over up to 128 bits, one node per bit.
/// The tests' independent oracle; Ipv6Table::build does not use it.
class Ipv6ReferenceLpm {
 public:
  Ipv6ReferenceLpm();
  ~Ipv6ReferenceLpm();
  Ipv6ReferenceLpm(Ipv6ReferenceLpm&&) noexcept;
  Ipv6ReferenceLpm& operator=(Ipv6ReferenceLpm&&) noexcept;

  void insert(const Ipv6Prefix& prefix);
  void build(std::span<const Ipv6Prefix> prefixes);

  /// Longest matching prefix.
  NextHop lookup(const net::Ipv6Addr& addr) const;

 private:
  struct Node;
  std::unique_ptr<Node> root_;
};

/// The table is one open-addressing (linear probing) array per prefix
/// length, all levels concatenated: the layout that gets copied into device
/// memory, and the one the CPU paths walk. The GPU kernel and the CPU fast
/// path share lookup_in_arrays().
class Ipv6Table {
 public:
  struct Slot {
    u64 key_hi = 0;
    u64 key_lo = 0;
    u16 bmp = kNoRoute;  // best-matching prefix at this marker/prefix
    u16 occupied = 0;
  };

  /// An empty table: no levels, every address resolves to kNoRoute.
  Ipv6Table() = default;

  /// The table build(prefixes) would leave. Lets FibManager construct a
  /// fresh buffer by its build for either family.
  explicit Ipv6Table(std::span<const Ipv6Prefix> prefixes) { build(prefixes); }

  /// Rebuild from a prefix set: places prefixes and binary-search markers,
  /// and precomputes each slot's best-matching prefix so lookups never
  /// backtrack. No trie is built: the prefixes are sorted once by
  /// (network, length) and swept in that order with a stack of the
  /// prefixes covering the current one. The sweep appends each key to its
  /// level in ascending order, and a marker takes its best-matching prefix
  /// from the deepest stack entry shorter than its level (else the default
  /// route). Each level is then placed in that key order. When the same
  /// prefix appears twice the last next hop wins, and prefix_count()
  /// counts it once. Lengths must be <= 128 and next hops <= kNoRoute
  /// (FibManager::announce rejects anything else). A prefix whose next
  /// hop is kNoRoute blackholes its range, as in Ipv4Table: lookups under
  /// it answer kNoRoute unless a longer prefix matches.
  void build(std::span<const Ipv6Prefix> prefixes);

  /// LPM lookup; `probes` receives the number of search steps, empty
  /// levels included (<= 8; 7 unless the table holds a /127 or /128).
  NextHop lookup(const net::Ipv6Addr& addr, int* probes = nullptr) const {
    return lookup_in_arrays(slots_.data(), level_offset_.data(), level_mask_.data(),
                            addr.hi64(), addr.lo64(), default_nh_, probes);
  }

  /// Batched LPM lookup. `keys` is interleaved host-order words — key j is
  /// (keys[2*j] = hi, keys[2*j+1] = lo), the same layout the shader stages
  /// into `gpu_input`. Walks the binary search of `kBatchInFlight` keys in
  /// lockstep, level wave by level wave, prefetching every in-flight key's
  /// hash slot before any is probed so the ≤8 dependent probes of one key
  /// overlap with the other keys' instead of serialising. When non-null,
  /// `total_probes` accumulates search steps across all n keys, counted as
  /// lookup() counts them.
  void lookup_batch(const u64* keys, NextHop* out, std::size_t n,
                    u64* total_probes = nullptr) const {
    lookup_batch_in_arrays(slots_.data(), level_offset_.data(), level_mask_.data(), keys,
                           default_nh_, out, n, total_probes);
  }

  /// The shared lookup routine over raw arrays: lookup() and the GPU
  /// kernel body both run it unmodified.
  /// `probes` counts search steps, empty levels included (<= 8; 7 unless
  /// the table holds a /127 or /128).
  static NextHop lookup_in_arrays(const Slot* slots, const u32* offsets, const u32* masks,
                                  u64 hi, u64 lo, NextHop default_nh, int* probes = nullptr);

  /// The shared batched routine over raw arrays.
  static void lookup_batch_in_arrays(const Slot* slots, const u32* offsets, const u32* masks,
                                     const u64* keys, NextHop default_nh, NextHop* out,
                                     std::size_t n, u64* total_probes = nullptr);

  /// Keys kept in flight by lookup_batch. Wider than Ipv4Table's group:
  /// each key carries up to 8 dependent probes, so more lanes are needed
  /// to keep the memory system busy while any one lane's chain stalls.
  static constexpr std::size_t kBatchInFlight = 32;

  std::span<const Slot> slots() const { return slots_; }
  std::span<const u32> level_offsets() const { return {level_offset_.data(), 129}; }
  std::span<const u32> level_masks() const { return {level_mask_.data(), 129}; }
  NextHop default_route() const { return default_nh_; }

  std::size_t prefix_count() const { return prefix_count_; }
  /// Distinct (length, key) slots that hold a marker and no prefix.
  std::size_t marker_count() const { return marker_count_; }

 private:
  std::vector<Slot> slots_;
  std::array<u32, 129> level_offset_{};  // slot index of level L's array
  std::array<u32, 129> level_mask_{};    // capacity-1 of level L (0 = empty)
  NextHop default_nh_ = kNoRoute;
  std::size_t prefix_count_ = 0;
  std::size_t marker_count_ = 0;
};

}  // namespace ps::route
