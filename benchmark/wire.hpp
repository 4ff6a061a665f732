// The benchmark's side of the wire: the pool of offered frames, the
// reference route lookup the outputs are checked against, and the sink
// that timestamps every transmitted frame.
//
// Frame i of a run is pool entry i % pool size with the 32-bit tag i
// written right after the UDP header. The sink recovers the tag from each
// TX frame (decrypting the first ciphertext bytes for IPsec) and records
// tx - due(i) into one histogram per 100 ms window of due time, so a run
// of tens of millions of frames needs no per-packet storage.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "crypto/esp.hpp"
#include "histogram.hpp"
#include "net/packet.hpp"
#include "nic/wire.hpp"
#include "telemetry/tracer.hpp"

namespace psbench {

using ps::u16;
using ps::u32;
using ps::u64;
using ps::u8;

/// Offset of the tag in an offered frame: right after the UDP header.
inline constexpr u32 kTagOffsetV4 = ps::net::kMinUdpIpv4Frame;
inline constexpr u32 kTagOffsetV6 = ps::net::kMinUdpIpv6Frame;

/// Longest-prefix match over left-aligned keys of at most 64 bits (an IPv4
/// address in the top 32 bits, the top half of an IPv6 address), one hash
/// map per prefix length. Deliberately unlike the router's tables, so a
/// bug in those cannot hide in the reference.
class ReferenceLpm {
 public:
  void insert(u64 key, int length, u16 next_hop);
  /// Next hop of the longest matching prefix; route::kNoRoute when none.
  u16 lookup(u64 key) const;

 private:
  std::array<std::unordered_map<u64, u16>, 65> by_length_;
  std::vector<int> lengths_;  // non-empty lengths, longest first
};

/// Immutable frames the generator cycles through, plus what the router
/// must make of each one.
struct FramePool {
  std::vector<u8> bytes;
  std::vector<u32> offsets;     // entry k spans [offsets[k], offsets[k + 1])
  std::vector<u16> expect_port;  // egress port, or kAnyPort
  static constexpr u16 kAnyPort = 0xffff;

  u32 size() const { return static_cast<u32>(offsets.size() - 1); }
  std::span<const u8> frame(u64 i) const {
    const u64 k = i % size();
    return {bytes.data() + offsets[k], offsets[k + 1] - offsets[k]};
  }
  void append(std::span<const u8> frame, u16 port) {
    if (offsets.empty()) offsets.push_back(0);
    bytes.insert(bytes.end(), frame.begin(), frame.end());
    offsets.push_back(static_cast<u32>(bytes.size()));
    expect_port.push_back(port);
  }
};

/// How a delivered frame is checked against the frame that was offered.
enum class Check : u8 {
  kIpv4Route,  // TTL - 1, header checksum, egress port from the reference
  kIpv4Ttl,    // TTL - 1 and header checksum only (routes change under churn)
  kIpv6Route,  // hop limit - 1, UDP checksum, egress port from the reference
  kEsp,        // decapsulates to the offered inner packet
};

/// Constant-rate schedule of the offered stream: frame i is due at
/// t0 + i / rate. The measured window is the `windows` 100 ms windows of
/// due time starting at frame `first_measured`.
struct Schedule {
  u64 rate_pps = 0;
  u64 t0_ns = 0;
  u64 first_measured = 0;
  u64 per_window = 0;  // frames per 100 ms window
  u32 windows = 0;
  u64 total = 0;  // frames the run offers

  u64 due_ns(u64 i) const { return t0_ns + i * 1'000'000'000ULL / rate_pps; }
};

class WireTap final : public ps::nic::WireSink {
 public:
  /// Every `kCheckEvery`-th delivered frame is checked in full.
  static constexpr u64 kCheckEvery = 64;

  struct Window {
    LogHistogram latency;  // tx - due, ns
    std::atomic<u64> frames{0};
    std::atomic<u64> latency_ns{0};
  };

  /// `sa` is required for Check::kEsp. `pool`, `schedule` and `sa` must
  /// outlive the tap; the schedule's t0 is set before the first offer.
  WireTap(const FramePool& pool, Check check, const Schedule& schedule,
          const ps::crypto::SecurityAssociation* sa);

  /// Generator side: frames [0, n) have been offered. A tag at or past it
  /// is unknown.
  void set_offered(u64 n) { offered_.store(n, std::memory_order_release); }
  /// While `tracer` is enabled the tap also times its own work.
  void set_tracer(const ps::telemetry::PipelineTracer* tracer) { tracer_ = tracer; }

  void on_frame(int port, std::span<const u8> frame) override;

  const Window& window(u32 w) const { return windows_[w]; }
  u64 delivered() const { return delivered_.load(std::memory_order_relaxed); }
  /// Input wire bytes (offered frame + 24 B, the paper's metric) of the
  /// delivered frames.
  u64 delivered_wire_bytes() const { return wire_bytes_.load(std::memory_order_relaxed); }
  u64 duplicates() const { return duplicates_.load(std::memory_order_relaxed); }
  u64 unknown() const { return unknown_.load(std::memory_order_relaxed); }
  u64 checked() const { return checked_.load(std::memory_order_relaxed); }
  u64 check_failures() const { return check_failures_.load(std::memory_order_relaxed); }
  /// Allocations made by the tap's own checks (ESP decapsulation), so the
  /// router's allocation count can exclude them.
  u64 own_allocations() const { return own_allocations_.load(std::memory_order_relaxed); }
  /// Frames and nanoseconds of the tap's own work while tracing was on.
  u64 timed_frames() const { return timed_frames_.load(std::memory_order_relaxed); }
  u64 timed_ns() const { return timed_ns_.load(std::memory_order_relaxed); }

 private:
  /// Tag of a transmitted frame; false when the frame is not one of ours.
  bool read_tag(std::span<const u8> frame, u64& tag) const;
  bool check(int port, std::span<const u8> frame, u64 tag);

  const FramePool& pool_;
  const Check check_;
  const Schedule& schedule_;
  const ps::crypto::SecurityAssociation* sa_;
  const ps::telemetry::PipelineTracer* tracer_ = nullptr;

  std::unique_ptr<Window[]> windows_;
  std::unique_ptr<std::atomic<u64>[]> seen_;  // one bit per tag
  std::atomic<u64> offered_{0};
  std::atomic<u64> delivered_{0};
  std::atomic<u64> wire_bytes_{0};
  std::atomic<u64> duplicates_{0};
  std::atomic<u64> unknown_{0};
  std::atomic<u64> checked_{0};
  std::atomic<u64> check_failures_{0};
  std::atomic<u64> own_allocations_{0};
  std::atomic<u64> timed_frames_{0};
  std::atomic<u64> timed_ns_{0};
};

}  // namespace psbench
