// The control plane's route set (RIB): one open-addressing array of
// prefixes with linear probing, keyed by a prefix's exact (network,
// length). No heap node per route; an insert probes once; listing every
// route is a linear scan of the array. A bulk load reserves its final size
// once and prefetches home slots ahead of its inserts (FibManager settles
// queued announces that way), so it neither doubles the array nor waits
// on each slot's cache miss in turn.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace ps::route {

/// std::hash finished with the splitmix64 mixer. std::hash<u64> is the
/// identity, and the low byte of an IPv4 RIB key is the prefix length, so
/// the unmixed low bits that pick a slot would put every /24 in one run.
struct RibHash {
  template <typename Key>
  std::size_t operator()(const Key& key) const noexcept {
    u64 x = std::hash<Key>{}(key);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

/// KeyFn maps a prefix to its exact RIB key; Hash hashes that key. A slot
/// is free when its `length` is kFree. Erase shifts the later members of
/// the probe run back into the gap instead of leaving a tombstone, so a
/// search stops at the first free slot. The array doubles before it is
/// half full, unless reserve() has already sized it.
template <typename Prefix, typename KeyFn, typename Hash = RibHash>
class Rib {
  using Key = std::invoke_result_t<KeyFn, const Prefix&>;

 public:
  static constexpr u8 kFree = 0xff;
  static_assert(Prefix::kMaxLength < kFree);

  /// `capacity` is the initial slot count, a power of two.
  explicit Rib(std::size_t capacity = 16) : slots_(capacity, free_slot()) {
    assert(std::has_single_bit(capacity));
  }

  /// Add `prefix`, or replace the route with its key. Returns true when
  /// the key was not present.
  bool insert_or_assign(const Prefix& prefix) {
    if ((size_ + 1) * 2 > slots_.size()) rehash(slots_.size() * 2);
    const Key key = KeyFn{}(prefix);
    std::size_t i = home(key);
    for (; slots_[i].length != kFree; i = next(i)) {
      if (KeyFn{}(slots_[i]) == key) {
        slots_[i] = prefix;
        return false;
      }
    }
    slots_[i] = prefix;
    ++size_;
    return true;
  }

  /// The route with `prefix`'s key, or nullptr. Invalidated by the next
  /// insert or erase.
  const Prefix* find(const Prefix& prefix) const {
    const std::size_t i = index_of(KeyFn{}(prefix));
    return i == kAbsent ? nullptr : &slots_[i];
  }

  /// Remove the route with `prefix`'s key and return it; nullopt when
  /// absent.
  std::optional<Prefix> erase(const Prefix& prefix) {
    std::size_t hole = index_of(KeyFn{}(prefix));
    if (hole == kAbsent) return std::nullopt;
    const Prefix removed = slots_[hole];
    // Backward shift: a later member of the run moves into the hole unless
    // its home slot lies cyclically in (hole, j], where it would then sit
    // before its home and be lost to searches.
    for (std::size_t j = next(hole); slots_[j].length != kFree; j = next(j)) {
      const std::size_t h = home(KeyFn{}(slots_[j]));
      const bool stays = hole < j ? (hole < h && h <= j) : (hole < h || h <= j);
      if (!stays) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = free_slot();
    --size_;
    return removed;
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  /// Size the array so that it holds `routes` routes without doubling: one
  /// rehash now instead of one per doubling on the way. Does nothing when
  /// the array is already that large.
  void reserve(std::size_t routes) {
    if (routes * 2 > slots_.size()) rehash(std::bit_ceil(routes * 2));
  }

  /// Start loading the cache line of `prefix`'s home slot, for an insert a
  /// few prefixes later. A hint only: a rehash in between wastes it.
  void prefetch(const Prefix& prefix) const {
    __builtin_prefetch(&slots_[home(KeyFn{}(prefix))], 1);
  }

  /// Every route, in slot order.
  std::vector<Prefix> routes() const {
    std::vector<Prefix> out;
    out.reserve(size_);
    for (const Prefix& p : slots_) {
      if (p.length != kFree) out.push_back(p);
    }
    return out;
  }

 private:
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  static Prefix free_slot() {
    Prefix p{};
    p.length = kFree;
    return p;
  }

  std::size_t home(const Key& key) const { return Hash{}(key) & (slots_.size() - 1); }
  std::size_t next(std::size_t i) const { return (i + 1) & (slots_.size() - 1); }

  std::size_t index_of(const Key& key) const {
    for (std::size_t i = home(key); slots_[i].length != kFree; i = next(i)) {
      if (KeyFn{}(slots_[i]) == key) return i;
    }
    return kAbsent;
  }

  void rehash(std::size_t capacity) {
    std::vector<Prefix> old =
        std::exchange(slots_, std::vector<Prefix>(capacity, free_slot()));
    for (const Prefix& p : old) {
      if (p.length == kFree) continue;
      std::size_t i = home(KeyFn{}(p));
      while (slots_[i].length != kFree) i = next(i);
      slots_[i] = p;
    }
  }

  std::vector<Prefix> slots_;
  std::size_t size_ = 0;
};

}  // namespace ps::route
