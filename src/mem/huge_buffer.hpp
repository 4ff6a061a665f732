// Huge packet buffer (paper section 4.2, Figure 4(b)).
//
// Instead of allocating an skb + data buffer per packet, the driver
// allocates two huge regions up front — one of compact 8-byte metadata
// cells and one of 2048-byte data cells — with cell i permanently bound to
// RX-queue slot i and recycled as the circular queue wraps. This removes
// per-packet allocator traffic and per-packet DMA mapping.
//
// The data cells are allocated for overwrite, not zero-filled: the NIC
// writes a cell before anything reads it (RX DMA copies the frame in
// before rx_peek exposes the descriptor; transmit copies the frame in
// before the wire sink reads it), and readers only ever read the
// descriptor's `length` bytes.
#pragma once

#include <cassert>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace ps::mem {

/// Compact per-packet metadata: 8 bytes, versus Linux 2.6.28's 208-byte skb.
/// Packets in a software router never traverse the host TCP/IP stack, so
/// only length and a few driver flags are needed.
struct PacketMetadata {
  u16 length = 0;
  u8 status = 0;   // driver status bits (e.g. checksum-verified-by-NIC)
  u8 rsvd = 0;
  u32 rss_hash = 0;
};
static_assert(sizeof(PacketMetadata) == 8, "metadata cell must stay 8 bytes");

inline constexpr u32 kDataCellSize = 2048;  // fits a 1518 B frame, keeps the
                                            // NIC's 1024 B alignment rule
inline constexpr u32 kSkbMetadataSize = 208;  // Linux 2.6.28 skb, for contrast

/// One huge buffer pair backing one RX or TX descriptor ring.
class HugePacketBuffer {
 public:
  /// `cells` must match the ring size it backs. `numa_node` tags where the
  /// backing memory lives (section 4.5 places it on the NIC's node).
  HugePacketBuffer(u32 cells, int numa_node);

  u32 cell_count() const noexcept { return cell_count_; }
  int numa_node() const noexcept { return numa_node_; }

  /// A cell's bytes are unspecified until written.
  std::span<u8> cell_data(u32 index) {
    assert(index < cell_count_);
    return {data_.get() + static_cast<std::size_t>(index) * kDataCellSize, kDataCellSize};
  }
  std::span<const u8> cell_data(u32 index) const {
    assert(index < cell_count_);
    return {data_.get() + static_cast<std::size_t>(index) * kDataCellSize, kDataCellSize};
  }

  PacketMetadata& metadata(u32 index) {
    assert(index < cell_count_);
    return metadata_[index];
  }
  const PacketMetadata& metadata(u32 index) const {
    assert(index < cell_count_);
    return metadata_[index];
  }

  /// Per-descriptor CRC32C the NIC deposits over the received bytes (the
  /// RX-admission integrity stamp). Kept in a sidecar region rather than
  /// PacketMetadata, which is locked to 8 bytes by the static_assert above
  /// — real 82599 descriptors carry their FCS result out-of-band too.
  u32 cell_crc(u32 index) const {
    assert(index < cell_count_);
    return crcs_[index];
  }
  void set_cell_crc(u32 index, u32 crc) {
    assert(index < cell_count_);
    crcs_[index] = crc;
  }

  /// Total resident bytes (data + metadata regions) — what one DMA mapping
  /// covers instead of a mapping per packet.
  u64 mapped_bytes() const noexcept {
    return static_cast<u64>(cell_count_) * (kDataCellSize + sizeof(PacketMetadata));
  }

 private:
  u32 cell_count_;
  int numa_node_;
  std::unique_ptr<u8[]> data_;  // cell_count_ * kDataCellSize bytes
  std::vector<PacketMetadata> metadata_;
  std::vector<u32> crcs_;  // sidecar: one wire CRC per cell
};

}  // namespace ps::mem
