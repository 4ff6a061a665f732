// DIR-24-8-BASIC IPv4 forwarding table (Gupta, Lin, McKeown, INFOCOM'98),
// the lookup algorithm of section 6.2.1: next hops for every possible
// 24-bit prefix in one flat table (TBL24) plus 256-entry overflow chunks
// (TBLlong) for the ~3% of prefixes longer than /24. One memory access per
// lookup in the common case, two in the worst case.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "net/addr.hpp"

namespace ps::route {

/// Next-hop handle; in this repository it is the egress port index.
using NextHop = u16;
inline constexpr NextHop kNoRoute = 0x7fff;  // 15-bit next-hop space, all-ones

struct Ipv4Prefix {
  static constexpr u8 kMaxLength = 32;
  net::Ipv4Addr addr;
  u8 length = 0;  // 0..kMaxLength
  NextHop next_hop = kNoRoute;

  u32 network() const { return length == 0 ? 0 : (addr.value & ~((u64{1} << (32 - length)) - 1)); }
  bool matches(net::Ipv4Addr a) const {
    if (length == 0) return true;
    const u32 mask = static_cast<u32>(~((u64{1} << (32 - length)) - 1));
    return (a.value & mask) == (addr.value & mask);
  }
};

/// One route change, pre-resolved against the RIB by the control plane so
/// the table mutation itself is RIB-free: a withdraw carries the next hop
/// and depth of the longest strictly-shorter covering prefix (the route
/// that becomes the LPM for the withdrawn range), an announce carries
/// whether it inserts a new prefix or replaces an existing one's next hop.
struct ResolvedIpv4Op {
  Ipv4Prefix prefix;
  bool announce = true;
  /// Announce only: true when the prefix was not previously in the RIB
  /// (maintains prefix_count()).
  bool is_new = false;
  /// Withdraw only: the covering route the freed range falls back to
  /// (kNoRoute / depth 0 when the withdrawn prefix had no parent).
  NextHop parent_nh = kNoRoute;
  u8 parent_depth = 0;
};

class Ipv4Table {
 public:
  /// An empty table: every address resolves to kNoRoute. It is the build
  /// of no prefixes, so its arrays are filled on every core too.
  Ipv4Table();

  /// The table build(prefixes) would leave, with TBL24 and its depths
  /// allocated for overwrite: the sweep is the only pass that writes them,
  /// so a fresh table costs no fill before its build.
  explicit Ipv4Table(std::span<const Ipv4Prefix> prefixes);

  /// Copies are block copies of the 48 MiB of arrays into storage
  /// allocated for overwrite. A moved-from table may only be assigned to
  /// or destroyed; copy-assigning into one reallocates its arrays.
  Ipv4Table(const Ipv4Table& other);
  Ipv4Table& operator=(const Ipv4Table& other);
  Ipv4Table(Ipv4Table&&) noexcept = default;
  Ipv4Table& operator=(Ipv4Table&&) noexcept = default;

  /// Build the table from a prefix set (longest-prefix semantics; when the
  /// same prefix appears twice the last next hop wins, and prefix_count()
  /// counts it once). One pass over memory: the prefixes are radix-sorted
  /// by (network, length), then TBL24 is swept in address order with a
  /// stack of the prefixes covering the current slot, so each entry and
  /// its depth is written once; prefixes longer than /24 then fill their
  /// overflow chunk the same way, one /24 at a time, chunks numbered in
  /// address order. The prefixes are grouped by /6 (ps::counting_scatter),
  /// and both the sort and the sweep run as 64 parallel_for tasks, one per
  /// /6 of TBL24 and its chunks; prefixes shorter than /6 are swept first
  /// over the 64 blocks and give each its fill. Used for a bulk load and
  /// for the from-scratch oracle; steady-state churn goes through
  /// apply_resolved().
  void build(std::span<const Ipv4Prefix> prefixes);

  /// Incremental DIR-24-8 update (the rte_lpm depth-metadata scheme): an
  /// announce of length L overwrites exactly the entries whose current
  /// depth is <= L inside the prefix's range; a withdraw resets entries at
  /// depth == L to the pre-resolved parent. Touches only the TBL24 range
  /// and TBLlong chunks the ops cover — the whole point versus build().
  /// Lookup results afterwards are identical to build() over the updated
  /// RIB (overflow chunks are never deallocated on withdraw, so raw chunk
  /// layout may differ; lookups cannot tell). Returns table slots written,
  /// the per-batch work metric bench_fib_churn reports.
  std::size_t apply_resolved(std::span<const ResolvedIpv4Op> ops);

  /// Longest-prefix-match lookup. `probes`, when non-null, receives the
  /// number of memory accesses performed (1 or 2) for cost accounting.
  NextHop lookup(net::Ipv4Addr addr, int* probes = nullptr) const;

  std::size_t prefix_count() const { return prefix_count_; }
  std::size_t overflow_chunks() const { return tbl_long_.size() / kChunk; }

  /// Raw tables, for copying into GPU device memory. The GPU kernel and
  /// the CPU path share lookup_in_arrays() — the same algorithm on both
  /// processors, exactly as the paper ports it (section 5.5).
  std::span<const u16> tbl24() const { return {tbl24_.get(), kTbl24Entries}; }
  std::span<const u16> tbl_long() const { return tbl_long_; }

  /// The shared lookup routine over raw arrays.
  static NextHop lookup_in_arrays(const u16* tbl24, const u16* tbl_long, u32 addr,
                                  int* probes = nullptr) {
    const u16 entry = tbl24[addr >> 8];
    if ((entry & kLongFlag) == 0) {
      if (probes != nullptr) *probes = 1;
      return entry;
    }
    if (probes != nullptr) *probes = 2;
    const u32 chunk = entry & ~kLongFlag;
    return tbl_long[chunk * kChunk + (addr & 0xff)];
  }

  /// Batched LPM lookup: resolves `n` keys with `kBatchInFlight` lookups in
  /// flight at once. DIR-24-8 is one-to-two dependent loads per key, so a
  /// scalar loop serialises on DRAM latency; interleaving issues the TBL24
  /// loads of the whole group before any TBLlong load is needed, and
  /// software-prefetches both tables' cache lines, converting the per-key
  /// miss latency into memory-level parallelism (the CPU-side analog of the
  /// paper's GPU batching, section 5).
  void lookup_batch(const u32* keys, NextHop* out, std::size_t n) const {
    lookup_batch_in_arrays(tbl24_.get(), tbl_long_.data(), keys, out, n);
  }

  /// The shared batched routine over raw arrays. Software-pipelined: the
  /// TBL24 lines of group g+2 are prefetched while group g resolves, so
  /// every prefetch has two groups' worth of work (~16 lookups) to complete
  /// before its line is demanded — the prefetch distance that converts
  /// per-key miss latency into memory-level parallelism.
  static void lookup_batch_in_arrays(const u16* tbl24, const u16* tbl_long, const u32* keys,
                                     NextHop* out, std::size_t n) {
    constexpr std::size_t kGroup = kBatchInFlight;
    std::size_t i = 0;
    if (n >= 3 * kGroup) {
      for (std::size_t k = 0; k < 2 * kGroup; ++k) {
        __builtin_prefetch(&tbl24[keys[k] >> 8], 0, 1);
      }
      for (; i + 3 * kGroup <= n; i += kGroup) {
        for (std::size_t k = 0; k < kGroup; ++k) {
          __builtin_prefetch(&tbl24[keys[i + 2 * kGroup + k] >> 8], 0, 1);
        }
        resolve_group(tbl24, tbl_long, keys + i, out + i);
      }
    }
    // Up to two already-prefetched groups remain, then a scalar tail.
    for (; i + kGroup <= n; i += kGroup) {
      resolve_group(tbl24, tbl_long, keys + i, out + i);
    }
    for (; i < n; ++i) out[i] = lookup_in_arrays(tbl24, tbl_long, keys[i]);
  }

  static constexpr u16 kLongFlag = 0x8000;
  static constexpr u32 kChunk = 256;
  static constexpr std::size_t kTbl24Entries = std::size_t{1} << 24;
  /// Keys kept in flight by lookup_batch. Sized to the calibrated
  /// memory-level parallelism of one core (perf::kCpuMlpSingleCore = 6)
  /// rounded up to a power of two.
  static constexpr std::size_t kBatchInFlight = 8;

 private:
  /// One group of kBatchInFlight keys: load every TBL24 entry (independent
  /// loads, so the misses overlap), prefetch the TBLlong line for the
  /// overflow minority (~3% of prefixes are longer than /24), then resolve.
  static void resolve_group(const u16* tbl24, const u16* tbl_long, const u32* keys,
                            NextHop* out) {
    u16 entry[kBatchInFlight];
    for (std::size_t k = 0; k < kBatchInFlight; ++k) {
      entry[k] = tbl24[keys[k] >> 8];
    }
    for (std::size_t k = 0; k < kBatchInFlight; ++k) {
      if ((entry[k] & kLongFlag) != 0) {
        const u32 chunk = entry[k] & ~kLongFlag;
        __builtin_prefetch(&tbl_long[chunk * kChunk + (keys[k] & 0xff)], 0, 1);
      }
    }
    for (std::size_t k = 0; k < kBatchInFlight; ++k) {
      if ((entry[k] & kLongFlag) == 0) {
        out[k] = entry[k];
      } else {
        const u32 chunk = entry[k] & ~kLongFlag;
        out[k] = tbl_long[chunk * kChunk + (keys[k] & 0xff)];
      }
    }
  }

  std::size_t apply_one(const ResolvedIpv4Op& op);
  /// Allocate (or find) the overflow chunk under tbl24_[idx24], seeding a
  /// fresh chunk with the entry and depth currently covering that /24.
  u32 chunk_for(u32 idx24);

  std::unique_ptr<u16[]> tbl24_;  // kTbl24Entries entries
  std::vector<u16> tbl_long_;     // kChunk entries per overflow chunk
  /// Depth metadata mirroring tbl24_/tbl_long_: the prefix length of the
  /// route each slot currently resolves to (0 for both "no route" and a
  /// /0 default — apply_resolved treats them identically, correctly).
  /// Only the control plane reads or writes these; lookups never touch
  /// them, so they cost no data-path cache footprint.
  std::unique_ptr<u8[]> depth24_;  // kTbl24Entries entries
  std::vector<u8> depth_long_;
  std::size_t prefix_count_ = 0;
};

/// Reference LPM for property testing: linear scan over all prefixes.
class Ipv4ReferenceLpm {
 public:
  void build(std::span<const Ipv4Prefix> prefixes);
  NextHop lookup(net::Ipv4Addr addr) const;

 private:
  std::vector<Ipv4Prefix> prefixes_;  // sorted by descending length
};

}  // namespace ps::route
