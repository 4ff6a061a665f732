// Storage that a vector's resize() leaves for its writer, for buffers
// whose only pass is the one that fills them (the RIB's slot array and
// listing, the table builds' sort and slot arrays).
#pragma once

#include <memory>
#include <utility>

namespace ps {

/// std::allocator whose construct() with no value writes nothing, so a
/// vector's resize() leaves new elements for their writer. For an
/// aggregate of scalars such as Ipv6Table::Slot, the storage allocate()
/// returns already holds elements to assign.
template <typename T>
struct OverwriteAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = OverwriteAllocator<U>;
  };
  template <typename U>
  void construct(U*) noexcept {}
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    std::construct_at(p, std::forward<Args>(args)...);
  }
};

}  // namespace ps
