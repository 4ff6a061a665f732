// 64-bit FNV-1a over a table's layout, field by field (no padding), so a
// test can pin where a build places every entry, not only what lookups
// answer.
#pragma once

#include "common/types.hpp"
#include "route/ipv4_table.hpp"
#include "route/ipv6_table.hpp"

namespace ps::route {

class Fnv1a {
 public:
  void mix(u64 value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  u64 value() const { return hash_; }

 private:
  u64 hash_ = 0xcbf29ce484222325ULL;
};

/// Both arrays entry by entry, then the chunk and prefix counts.
inline u64 layout_hash(const Ipv4Table& table) {
  Fnv1a hash;
  for (const u16 entry : table.tbl24()) hash.mix(entry, 2);
  for (const u16 entry : table.tbl_long()) hash.mix(entry, 2);
  hash.mix(table.overflow_chunks(), 8);
  hash.mix(table.prefix_count(), 8);
  return hash.value();
}

/// Every slot, then the level offsets and masks.
inline u64 layout_hash(const Ipv6Table& table) {
  Fnv1a hash;
  for (const auto& slot : table.slots()) {
    hash.mix(slot.key_hi, 8);
    hash.mix(slot.key_lo, 8);
    hash.mix(slot.bmp, 2);
    hash.mix(slot.occupied, 2);
  }
  for (const u32 offset : table.level_offsets()) hash.mix(offset, 4);
  for (const u32 mask : table.level_masks()) hash.mix(mask, 4);
  return hash.value();
}

}  // namespace ps::route
