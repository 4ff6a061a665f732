// The control plane's route set (RIB): one open-addressing array of
// prefixes with linear probing, keyed by a prefix's exact (network,
// length). No heap node per route; an insert probes once; listing every
// route is a linear scan of the array. A bulk load (insert_all, which
// FibManager settles queued announces with) sizes the array once, and
// when it grows the array it inserts on every core: the new array is cut
// into parts by home slot, and each part takes its routes in order on one
// thread.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/overwrite_allocator.hpp"
#include "common/parallel.hpp"
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

  /// The slot array and a listing: storage that resize() leaves for its
  /// writer.
  using Routes = std::vector<Prefix, OverwriteAllocator<Prefix>>;

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

  /// insert_or_assign(op.prefix) for each op in order, storing what it
  /// returns in op.is_new, with the array sized once for the whole batch.
  /// A batch that grows the array and makes at least two parts of
  /// kPartOps ops runs on every core; any other batch is exactly that
  /// loop. The new array is cut into up to kMaxParts equal parts, the
  /// routes held and then the ops are grouped by the part of their home
  /// slot, keeping their order, and each part fills its slots and inserts
  /// its routes in order on one thread, probing only inside the part. The
  /// new array then replaces the old, and the routes whose probe ran off
  /// their part's end are inserted into it on the calling thread, part by
  /// part, each part's in order. All ops on one key share a home slot, so
  /// every is_new is what one-by-one inserts give. Every buffer is
  /// allocated before the first slot is written, and the old array stays
  /// in place until the parts are done, so a bad_alloc leaves the RIB as
  /// it was.
  template <typename Op>
  void insert_all(std::span<Op> ops) {
    const std::size_t parts = std::min(kMaxParts, std::bit_floor(ops.size() / kPartOps));
    const std::size_t capacity = std::bit_ceil((size_ + ops.size()) * 2);
    if (parts < 2 || capacity <= slots_.size()) {
      reserve(size_ + ops.size());
      for (Op& op : ops) op.is_new = insert_or_assign(op.prefix);
      return;
    }
    // Items [0, held.size()) are the routes the new array takes over; the
    // ops follow them.
    const Routes held = routes();
    Routes fresh(capacity);
    const auto prefix_of = [&](std::size_t i) -> const Prefix& {
      return i < held.size() ? held[i] : ops[i - held.size()].prefix;
    };
    const auto report = [&](std::size_t i, bool is_new) {
      if (i >= held.size()) ops[i - held.size()].is_new = is_new;
    };
    const auto home_slot = [capacity](const Key& key) { return Hash{}(key) & (capacity - 1); };
    const int part_bits = std::countr_zero(capacity / parts);
    // Each route with its item number, grouped by part, so that a part
    // reads its routes in one sweep.
    struct Item {
      Prefix prefix;
      std::size_t index = 0;
    };
    std::vector<Item, OverwriteAllocator<Item>> items(held.size() + ops.size());
    const std::vector<std::size_t> part_begin = counting_scatter(
        items.size(), parts,
        [&](std::size_t i) { return home_slot(KeyFn{}(prefix_of(i))) >> part_bits; },
        [&](std::size_t i, std::size_t pos) { items[pos] = {prefix_of(i), i}; });

    // A part moves the items that run off its end to the front of its own
    // stretch of `items`.
    std::array<std::size_t, kMaxParts> added{};
    std::array<std::size_t, kMaxParts> spilled{};
    parallel_for(parts, [&](std::size_t part) {
      const std::size_t first = part << part_bits;
      const std::size_t last = first + (std::size_t{1} << part_bits);
      std::fill(fresh.begin() + first, fresh.begin() + last, free_slot());
      Item* const begin = items.data() + part_begin[part];
      Item* spill = begin;
      for (const Item* item = begin; item != items.data() + part_begin[part + 1]; ++item) {
        const Key key = KeyFn{}(item->prefix);
        std::size_t s = home_slot(key);
        while (s != last && fresh[s].length != kFree && !(KeyFn{}(fresh[s]) == key)) ++s;
        if (s == last) {
          *spill++ = *item;
          continue;
        }
        const bool is_new = fresh[s].length == kFree;
        fresh[s] = item->prefix;
        added[part] += is_new;
        report(item->index, is_new);
      }
      spilled[part] = static_cast<std::size_t>(spill - begin);
    });
    slots_.swap(fresh);
    size_ = 0;
    // Part by part, each part's in order: the routes of one key share a
    // part, so this is their order in the batch.
    for (std::size_t part = 0; part < parts; ++part) {
      size_ += added[part];
      for (std::size_t k = part_begin[part]; k < part_begin[part] + spilled[part]; ++k) {
        report(items[k].index, insert_or_assign(items[k].prefix));
      }
    }
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

  /// Every route, in slot order.
  Routes routes() const {
    // Every slot is copied, and the cursor moves on only past a route: a
    // branch per slot would mispredict often at a RIB's load. The entry
    // after the last route takes the free slots that follow it.
    Routes out;
    out.resize(size_ + 1);
    std::size_t k = 0;
    for (const Prefix& p : slots_) {
      out[k] = p;
      k += p.length != kFree;
    }
    out.pop_back();
    return out;
  }

  /// insert_all's smallest part, in ops, and its most parts. A batch on
  /// every core has at least two parts.
  static constexpr std::size_t kPartOps = 4096;
  static constexpr std::size_t kMaxParts = 64;

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
    Routes old = std::exchange(slots_, Routes(capacity, free_slot()));
    for (const Prefix& p : old) {
      if (p.length == kFree) continue;
      std::size_t i = home(KeyFn{}(p));
      while (slots_[i].length != kFree) i = next(i);
      slots_[i] = p;
    }
  }

  Routes slots_;
  std::size_t size_ = 0;
};

}  // namespace ps::route
