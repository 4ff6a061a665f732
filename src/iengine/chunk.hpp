// The chunk: a batch of packets copied into one contiguous user-level
// buffer with per-packet offset/length arrays (sections 4.3, 5.3).
//
// The paper copies (rather than zero-copies) from the huge packet buffer
// for better abstraction: cells recycle immediately and the user buffer can
// be freely rewritten and split across output ports. Chunks are also the
// unit of GPU parallelism.
#pragma once

#include <cstring>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "mem/huge_buffer.hpp"

namespace ps::iengine {

/// Per-packet disposition decided in post-shading.
enum class PacketVerdict : u8 {
  kForward = 0,  // send to out_port
  kDrop,         // malformed / TTL expired / no route / policy
  kSlowPath,     // hand to the host stack (destined to local, etc.)
};

/// Why a packet was dropped. Every kDrop verdict carries one of these so
/// the router can account losses per cause (nothing drops silently).
enum class DropReason : u8 {
  kNone = 0,      // not dropped
  kRingFull,      // TX ring backpressure exhausted its retry budget
  kParseError,    // malformed headers / failed validation
  kTtlExpired,    // TTL / hop limit reached zero with no slow path attached
  kNoRoute,       // longest-prefix-match miss / flow-table drop action
  kGpuFailed,     // GPU shading failed and CPU re-shade was impossible
  kQueueFull,     // internal queue overflow with no fallback
  kCorrupted,     // NIC flagged the frame (bad checksum / DMA corruption)
  kSlowpathShed,  // slow-path admission control refused the packet
  kIntegrityFail, // integrity stamp mismatch: silent corruption caught
                  // before TX and unrepairable by a CPU re-shade
  kCount,
};

inline constexpr std::size_t kNumDropReasons = static_cast<std::size_t>(DropReason::kCount);

const char* to_string(DropReason reason);

class PacketChunk {
 public:
  static constexpr u32 kDefaultMaxPackets = 256;  // the RX batch cap

  explicit PacketChunk(u32 max_packets = kDefaultMaxPackets);

  u32 max_packets() const noexcept { return max_packets_; }
  u32 count() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  /// Remove all packets but keep capacity.
  void clear();

  /// Append a packet by copy; returns false when full (by packet count or
  /// buffer bytes). `wire_crc` is the NIC's descriptor-side CRC32C over the
  /// received bytes (the RX-admission integrity stamp).
  bool append(std::span<const u8> frame, u32 rss_hash = 0, u32 wire_crc = 0);

  /// Grow packets in place, keeping them packed back to back: packet i
  /// becomes `new_length(i)` bytes, no shorter than now and at most
  /// kDataCellSize. Its bytes stay at the start of the grown span; the
  /// rest is unspecified until `fill(i, old_length)` writes it. Packets
  /// move back to front, each at most once, and `fill` runs on each right
  /// after its move. `new_length(i)` runs twice per packet, both times
  /// before that packet moves. Returns false, changing nothing, when a
  /// length is out of range.
  template <typename NewLength, typename Fill>
  bool grow(const NewLength& new_length, const Fill& fill) {
    u32 total = 0;
    for (u32 i = 0; i < count_; ++i) {
      const u32 length = new_length(i);
      if (length < lengths_[i] || length > mem::kDataCellSize) return false;
      total += length;
    }
    // The buffer holds max_packets cells, so `total` fits. Packet i's new
    // span ends where packet i + 1's begins and starts no earlier than its
    // old one, so it covers no bytes still to move.
    u32 end = total;
    for (u32 i = count_; i-- > 0;) {
      const u32 offset = end - new_length(i);
      const u16 old_length = lengths_[i];
      std::memmove(buffer_.data() + offset, buffer_.data() + offsets_[i], old_length);
      lengths_[i] = static_cast<u16>(end - offset);
      offsets_[i] = offset;
      fill(i, old_length);
      end = offset;
    }
    used_bytes_ = total;
    return true;
  }

  std::span<u8> packet(u32 i) {
    return {buffer_.data() + offsets_[i], lengths_[i]};
  }
  std::span<const u8> packet(u32 i) const {
    return {buffer_.data() + offsets_[i], lengths_[i]};
  }
  u16 length(u32 i) const { return lengths_[i]; }
  u32 rss_hash(u32 i) const { return hashes_[i]; }

  /// Total payload bytes currently in the chunk.
  u32 bytes() const noexcept { return used_bytes_; }

  // --- routing decisions filled by the application --------------------------
  PacketVerdict verdict(u32 i) const { return verdicts_[i]; }
  void set_verdict(u32 i, PacketVerdict v) { verdicts_[i] = v; }
  i16 out_port(u32 i) const { return out_ports_[i]; }
  void set_out_port(u32 i, i16 port) { out_ports_[i] = port; }

  DropReason drop_reason(u32 i) const { return drop_reasons_[i]; }
  void set_drop_reason(u32 i, DropReason r) { drop_reasons_[i] = r; }
  /// Mark packet i dropped for `reason` (sets both verdict and reason).
  void set_drop(u32 i, DropReason reason) {
    verdicts_[i] = PacketVerdict::kDrop;
    drop_reasons_[i] = reason;
  }

  // --- integrity stamps (ps::integrity) --------------------------------------
  // Per-packet CRC32C over the packet's current bytes. Seeded from the
  // NIC's wire-side stamp at append and retaken by the integrity layer
  // after each sanctioned mutation point; `integrity_bad` flags packets
  // whose bytes stopped matching (set once at the boundary that first saw
  // the corruption, so it is never double-counted downstream).
  u32 crc(u32 i) const { return crcs_[i]; }
  void set_crc(u32 i, u32 c) { crcs_[i] = c; }
  bool integrity_bad(u32 i) const { return integrity_bad_[i] != 0; }
  void set_integrity_bad(u32 i, bool bad) { integrity_bad_[i] = bad ? 1 : 0; }
  /// Whether the per-packet CRCs describe the current bytes. True from
  /// append (wire stamp); cleared when a path mutates bytes it will not
  /// restamp (e.g. the CPU-only fast path, which ends integrity coverage
  /// after the RX check).
  bool stamped() const { return stamped_; }
  void set_stamped(bool s) { stamped_ = s; }

  // --- provenance ------------------------------------------------------------
  int in_port = -1;
  u16 in_queue = 0;

 private:
  u32 max_packets_;
  u32 count_ = 0;
  u32 used_bytes_ = 0;
  std::vector<u8> buffer_;      // max_packets * kDataCellSize, contiguous
  std::vector<u32> offsets_;
  std::vector<u16> lengths_;
  std::vector<u32> hashes_;
  std::vector<PacketVerdict> verdicts_;
  std::vector<DropReason> drop_reasons_;
  std::vector<i16> out_ports_;
  std::vector<u32> crcs_;
  std::vector<u8> integrity_bad_;
  bool stamped_ = false;
};

}  // namespace ps::iengine
