#include "wire.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <initializer_list>

#include "net/headers.hpp"
#include "route/ipv4_table.hpp"
#include "telemetry/alloc_stats.hpp"

namespace psbench {

namespace {

using ps::net::EthernetHeader;
using ps::net::EtherType;
using ps::net::Ipv4Header;
using ps::net::Ipv6Header;
using ps::net::UdpHeader;

constexpr u32 kL3 = sizeof(EthernetHeader);
constexpr u32 kTtl = kL3 + offsetof(Ipv4Header, ttl);
constexpr u32 kIpv4Checksum = kL3 + offsetof(Ipv4Header, checksum_be);
constexpr u32 kHopLimit = kL3 + offsetof(Ipv6Header, hop_limit);
constexpr u32 kUdp6Checksum = kL3 + sizeof(Ipv6Header) + offsetof(UdpHeader, checksum_be);
// ESP tunnel frame: outer IPv4 | ESP header | 8 B IV | ciphertext of the
// inner IP packet. The inner packet carries the tag 28 bytes in (IPv4 20 +
// UDP 8), so decrypting the first two AES blocks is enough to read it.
constexpr u32 kEspIv = kL3 + sizeof(Ipv4Header) + sizeof(ps::net::EspHeader);
constexpr u32 kEspCipher = kEspIv + ps::crypto::kCtrIvSize;
constexpr u32 kEspTagBytes = 32;

EtherType ether_type(std::span<const u8> frame) {
  return static_cast<EtherType>(ps::load_be16(frame.data() + offsetof(EthernetHeader, ethertype_be)));
}

/// `a` and `b` have one size and agree outside the sorted, disjoint
/// [begin, end) byte ranges in `skip`.
bool equal_outside(std::span<const u8> a, std::span<const u8> b,
                   std::initializer_list<std::array<u32, 2>> skip) {
  if (a.size() != b.size()) return false;
  u32 at = 0;
  for (const auto& [begin, end] : skip) {
    if (end > a.size() || std::memcmp(a.data() + at, b.data() + at, begin - at) != 0) {
      return false;
    }
    at = end;
  }
  return std::memcmp(a.data() + at, b.data() + at, a.size() - at) == 0;
}

/// Parses as `want` with valid checksums (parse_packet verifies the IPv4
/// header checksum and the IPv6 UDP checksum).
bool parses_as(std::span<const u8> frame, EtherType want) {
  ps::net::PacketView view;
  return ps::net::parse_packet(const_cast<u8*>(frame.data()), static_cast<u32>(frame.size()),
                               view) == ps::net::ParseStatus::kOk &&
         view.ether_type == want;
}

}  // namespace

void ReferenceLpm::insert(u64 key, int length, u16 next_hop) {
  const u64 mask = length == 0 ? 0 : ~u64{0} << (64 - length);
  auto& table = by_length_[static_cast<std::size_t>(length)];
  if (table.empty()) {
    lengths_.push_back(length);
    std::sort(lengths_.begin(), lengths_.end(), std::greater<>());
  }
  table[key & mask] = next_hop;
}

u16 ReferenceLpm::lookup(u64 key) const {
  for (const int length : lengths_) {
    const u64 mask = length == 0 ? 0 : ~u64{0} << (64 - length);
    const auto& table = by_length_[static_cast<std::size_t>(length)];
    if (const auto it = table.find(key & mask); it != table.end()) return it->second;
  }
  return ps::route::kNoRoute;
}

WireTap::WireTap(const FramePool& pool, Check check, const Schedule& schedule,
                 const ps::crypto::SecurityAssociation* sa)
    : pool_(pool),
      check_(check),
      schedule_(schedule),
      sa_(sa),
      windows_(std::make_unique<Window[]>(schedule.windows)),
      seen_(std::make_unique<std::atomic<u64>[]>(schedule.total / 64 + 1)) {}

bool WireTap::read_tag(std::span<const u8> frame, u64& tag) const {
  if (frame.size() < sizeof(EthernetHeader)) return false;
  switch (check_) {
    case Check::kIpv4Route:
    case Check::kIpv4Ttl:
      if (frame.size() < kTagOffsetV4 + 4 || ether_type(frame) != EtherType::kIpv4) return false;
      tag = ps::load_be32(frame.data() + kTagOffsetV4);
      return true;
    case Check::kIpv6Route:
      if (frame.size() < kTagOffsetV6 + 4 || ether_type(frame) != EtherType::kIpv6) return false;
      tag = ps::load_be32(frame.data() + kTagOffsetV6);
      return true;
    case Check::kEsp: {
      if (frame.size() < kEspCipher + kEspTagBytes || ether_type(frame) != EtherType::kIpv4 ||
          frame[kL3 + offsetof(Ipv4Header, protocol)] != static_cast<u8>(ps::net::IpProto::kEsp)) {
        return false;
      }
      std::array<u8, kEspTagBytes> head;
      std::memcpy(head.data(), frame.data() + kEspCipher, head.size());
      ps::crypto::aes_ctr_crypt(
          sa_->cipher, std::span<const u8, ps::crypto::kCtrNonceSize>{sa_->nonce},
          std::span<const u8, ps::crypto::kCtrIvSize>{frame.data() + kEspIv,
                                                      ps::crypto::kCtrIvSize},
          head);
      tag = ps::load_be32(head.data() + kTagOffsetV4 - kL3);
      return true;
    }
  }
  return false;
}

bool WireTap::check(int port, std::span<const u8> frame, u64 tag) {
  const std::span<const u8> in = pool_.frame(tag);
  const u16 want_port = pool_.expect_port[tag % pool_.size()];
  if (want_port != FramePool::kAnyPort && port != want_port) return false;
  switch (check_) {
    case Check::kIpv4Route:
    case Check::kIpv4Ttl:
      return parses_as(frame, EtherType::kIpv4) && frame[kTtl] + 1 == in[kTtl] &&
             equal_outside(frame, in,
                           {{kTtl, kTtl + 1}, {kIpv4Checksum, kIpv4Checksum + 2},
                            {kTagOffsetV4, kTagOffsetV4 + 4}});
    case Check::kIpv6Route:
      return parses_as(frame, EtherType::kIpv6) && frame[kHopLimit] + 1 == in[kHopLimit] &&
             equal_outside(frame, in,
                           {{kHopLimit, kHopLimit + 1}, {kUdp6Checksum, kTagOffsetV6 + 4}});
    case Check::kEsp: {
      // A fresh copy of the SA per check: its anti-replay window must not
      // reject the sampled frames, which arrive 64 sequence numbers apart
      // and not always in order.
      ps::crypto::SecurityAssociation sa = *sa_;
      std::vector<u8> inner;
      const u64 before = ps::telemetry::allocations();
      const bool ok = ps::crypto::esp_decapsulate(sa, frame, inner) == ps::crypto::EspError::kOk;
      own_allocations_.fetch_add(ps::telemetry::allocations() - before, std::memory_order_relaxed);
      // The inner Ethernet header is synthesized by decapsulation; the IP
      // packet after it must be exactly what was offered.
      return ok && inner.size() == in.size() &&
             equal_outside(std::span<const u8>(inner).subspan(kL3), in.subspan(kL3),
                           {{kTagOffsetV4 - kL3, kTagOffsetV4 - kL3 + 4}});
    }
  }
  return false;
}

void WireTap::on_frame(int port, std::span<const u8> frame) {
  const u64 tx_ns = ps::telemetry::PipelineTracer::now_ns();
  const u64 nth = delivered_.fetch_add(1, std::memory_order_relaxed) + 1;

  u64 tag = 0;
  if (!read_tag(frame, tag) || tag >= offered_.load(std::memory_order_acquire)) {
    unknown_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const u64 bit = u64{1} << (tag % 64);
  if ((seen_[tag / 64].fetch_or(bit, std::memory_order_relaxed) & bit) != 0) {
    duplicates_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  wire_bytes_.fetch_add(ps::wire_bytes(pool_.frame(tag).size()), std::memory_order_relaxed);

  if (tag >= schedule_.first_measured) {
    const u64 w = (tag - schedule_.first_measured) / schedule_.per_window;
    if (w < schedule_.windows) {
      // The generator never offers a frame before it is due, so tx >= due.
      const u64 due = schedule_.due_ns(tag);
      const u64 latency = tx_ns > due ? tx_ns - due : 0;
      Window& win = windows_[w];
      win.latency.record(latency);
      win.frames.fetch_add(1, std::memory_order_relaxed);
      win.latency_ns.fetch_add(latency, std::memory_order_relaxed);
    }
  }

  if (nth % kCheckEvery == 0) {
    checked_.fetch_add(1, std::memory_order_relaxed);
    if (!check(port, frame, tag)) check_failures_.fetch_add(1, std::memory_order_relaxed);
  }

  if (tracer_ != nullptr && tracer_->enabled()) {
    timed_frames_.fetch_add(1, std::memory_order_relaxed);
    timed_ns_.fetch_add(ps::telemetry::PipelineTracer::now_ns() - tx_ns,
                        std::memory_order_relaxed);
  }
}

}  // namespace psbench
