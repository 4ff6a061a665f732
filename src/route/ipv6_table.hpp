// IPv6 longest-prefix matching by binary search on prefix lengths
// (Waldvogel, Varghese, Turner, Plattner, SIGCOMM'97) — the algorithm of
// section 6.2.2. Per-length hash tables hold prefixes plus "markers" with
// precomputed best-matching prefixes, so a lookup needs at most
// ceil(log2(128)) = 7 hash probes and never backtracks. The paper cites
// exactly these seven memory accesses per lookup.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "net/addr.hpp"
#include "route/ipv4_table.hpp"  // NextHop / kNoRoute

namespace ps::route {

struct Ipv6Prefix {
  net::Ipv6Addr addr;
  u8 length = 0;  // 0..128
  NextHop next_hop = kNoRoute;
};

/// A 128-bit value as two host-order words (hi = bits 127..64).
struct Key128 {
  u64 hi = 0;
  u64 lo = 0;
  bool operator==(const Key128&) const = default;
};

struct Key128Hash {
  std::size_t operator()(const Key128& k) const noexcept {
    u64 x = k.hi * 0x9e3779b97f4a7c15ULL ^ k.lo;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

/// First `bits` bits of (hi, lo), rest zeroed. bits in [0, 128].
Key128 mask128(u64 hi, u64 lo, int bits);

/// Reference LPM: a binary trie over up to 128 bits. Used for marker
/// precomputation at build time and as the test oracle.
class Ipv6ReferenceLpm {
 public:
  Ipv6ReferenceLpm();
  ~Ipv6ReferenceLpm();
  Ipv6ReferenceLpm(Ipv6ReferenceLpm&&) noexcept;
  Ipv6ReferenceLpm& operator=(Ipv6ReferenceLpm&&) noexcept;

  void insert(const Ipv6Prefix& prefix);
  void build(std::span<const Ipv6Prefix> prefixes);

  /// Longest matching prefix with length <= max_length.
  NextHop lookup(const net::Ipv6Addr& addr, int max_length = 128) const;
  NextHop lookup_key(const Key128& key, int max_length = 128) const;

 private:
  struct Node;
  std::unique_ptr<Node> root_;
};

/// Flattened, GPU-friendly layout: one open-addressing (linear probing)
/// array per prefix length, all levels concatenated. This is what gets
/// copied into device memory; the GPU kernel and CPU fast path share
/// lookup_in_arrays().
class Ipv6FlatTable {
 public:
  struct Slot {
    u64 key_hi = 0;
    u64 key_lo = 0;
    u16 bmp = kNoRoute;  // best-matching prefix at this marker/prefix
    u16 occupied = 0;
  };

  std::span<const Slot> slots() const { return slots_; }
  std::span<const u32> level_offsets() const { return {level_offset_.data(), 129}; }
  std::span<const u32> level_masks() const { return {level_mask_.data(), 129}; }
  NextHop default_route() const { return default_nh_; }

  /// The shared lookup routine over raw arrays (runs unmodified as the GPU
  /// kernel body). `probes` counts hash-table memory accesses (<= 7).
  static NextHop lookup_in_arrays(const Slot* slots, const u32* offsets, const u32* masks,
                                  u64 hi, u64 lo, NextHop default_nh, int* probes = nullptr);

  NextHop lookup(const net::Ipv6Addr& addr, int* probes = nullptr) const {
    return lookup_in_arrays(slots_.data(), level_offset_.data(), level_mask_.data(),
                            addr.hi64(), addr.lo64(), default_nh_, probes);
  }

  /// Batched LPM lookup. `keys` is interleaved host-order words — key j is
  /// (keys[2*j] = hi, keys[2*j+1] = lo), the same layout the shader stages
  /// into `gpu_input`. Walks the binary search of `kBatchInFlight` keys in
  /// lockstep, level wave by level wave, prefetching every in-flight key's
  /// hash slot before any is probed so the ≤7 dependent probes of one key
  /// overlap with the other keys' instead of serialising. When non-null,
  /// `total_probes` accumulates hash-table accesses across all n keys.
  void lookup_batch(const u64* keys, NextHop* out, std::size_t n,
                    u64* total_probes = nullptr) const {
    lookup_batch_in_arrays(slots_.data(), level_offset_.data(), level_mask_.data(), keys,
                           default_nh_, out, n, total_probes);
  }

  /// The shared batched routine over raw arrays.
  static void lookup_batch_in_arrays(const Slot* slots, const u32* offsets, const u32* masks,
                                     const u64* keys, NextHop default_nh, NextHop* out,
                                     std::size_t n, u64* total_probes = nullptr);

  /// Keys kept in flight by lookup_batch. Wider than Ipv4Table's group:
  /// each key carries up to 7 dependent probes, so more lanes are needed
  /// to keep the memory system busy while any one lane's chain stalls.
  static constexpr std::size_t kBatchInFlight = 32;

 private:
  friend class Ipv6Table;
  std::vector<Slot> slots_;
  std::array<u32, 129> level_offset_{};  // slot index of level L's array
  std::array<u32, 129> level_mask_{};    // capacity-1 of level L (0 = empty)
  NextHop default_nh_ = kNoRoute;
};

class Ipv6Table {
 public:
  /// Rebuild from a prefix set: inserts prefixes and binary-search markers,
  /// then precomputes each entry's best-matching prefix via the reference
  /// trie so lookups never backtrack.
  void build(std::span<const Ipv6Prefix> prefixes);

  /// LPM lookup; `probes` receives the number of hash probes (<= 7).
  NextHop lookup(const net::Ipv6Addr& addr, int* probes = nullptr) const;

  std::size_t prefix_count() const { return prefix_count_; }
  std::size_t marker_count() const { return marker_count_; }

  /// The same table in the flattened layout, built by build(): what the
  /// GPU copies and the CPU batch path walks.
  const Ipv6FlatTable& flat() const { return flat_; }

 private:
  void build_flat();

  struct Entry {
    bool is_prefix = false;
    NextHop nh = kNoRoute;   // valid when is_prefix
    NextHop bmp = kNoRoute;  // best-matching prefix for these bits
  };
  using LevelMap = std::unordered_map<Key128, Entry, Key128Hash>;

  std::array<LevelMap, 129> levels_{};  // index = prefix length 1..128
  NextHop default_nh_ = kNoRoute;
  std::size_t prefix_count_ = 0;
  std::size_t marker_count_ = 0;
  Ipv6FlatTable flat_;
};

}  // namespace ps::route
