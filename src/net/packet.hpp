// Packet views, parsing, and frame construction.
//
// A packet in PacketShader is a contiguous byte range inside a huge-buffer
// cell (kernel side) or the chunk's user buffer (application side); nothing
// here owns memory. `FrameBuffer` is the owning convenience type used by
// the traffic generator and tests.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "net/addr.hpp"
#include "net/checksum.hpp"
#include "net/headers.hpp"

namespace ps::net {

using FrameBuffer = std::vector<u8>;

enum class ParseStatus : u8 {
  kOk = 0,
  kTruncated,       // frame shorter than its headers claim
  kBadVersion,      // IP version field inconsistent with ethertype
  kBadHeaderLen,    // IPv4 IHL < 5 or beyond frame
  kBadChecksum,     // IPv4 header checksum failed
  kUnsupported,     // non-IP ethertype
};

const char* to_string(ParseStatus s);

/// Zero-copy view of a parsed frame. Offsets are from the frame start.
struct PacketView {
  u8* data = nullptr;
  u32 length = 0;

  u16 l3_offset = 0;
  u16 l4_offset = 0;
  EtherType ether_type{};
  IpProto ip_proto{};
  bool has_l4 = false;

  EthernetHeader& eth() const { return *reinterpret_cast<EthernetHeader*>(data); }
  Ipv4Header& ipv4() const { return *reinterpret_cast<Ipv4Header*>(data + l3_offset); }
  Ipv6Header& ipv6() const { return *reinterpret_cast<Ipv6Header*>(data + l3_offset); }
  UdpHeader& udp() const { return *reinterpret_cast<UdpHeader*>(data + l4_offset); }
  TcpHeader& tcp() const { return *reinterpret_cast<TcpHeader*>(data + l4_offset); }

  std::span<u8> bytes() const { return {data, length}; }
  std::span<u8> l4_bytes() const {
    return has_l4 ? std::span<u8>{data + l4_offset, length - l4_offset} : std::span<u8>{};
  }
};

/// Parse and validate an Ethernet frame in place. On success fills `out`
/// with offsets and protocol fields. IPv4 header checksums are verified
/// (real NICs mark bad-checksum packets; the pre-shader drops them).
ParseStatus parse_packet(u8* data, u32 length, PacketView& out);

/// Parameters for synthetic frame construction.
struct FrameSpec {
  u32 frame_size = kMinFrameSize;  // total bytes including L2 header
  MacAddr src_mac = MacAddr::for_port(0);
  MacAddr dst_mac = MacAddr::for_port(1);
  u16 src_port = 1000;
  u16 dst_port = 2000;
  u8 ttl = 64;
};

/// Build a UDP-over-IPv4 frame; payload is zero-filled and frame_size is
/// honored exactly (>= 42 B). Checksums are valid.
FrameBuffer build_udp_ipv4(const FrameSpec& spec, Ipv4Addr src, Ipv4Addr dst);

/// Build a UDP-over-IPv6 frame (frame_size >= 62 B).
FrameBuffer build_udp_ipv6(const FrameSpec& spec, const Ipv6Addr& src, const Ipv6Addr& dst);

/// In-place variants for allocation-free steady-state generation
/// (DESIGN.md §13): `out` is resized and overwritten; once its capacity
/// has grown to the largest frame in the mix, no further allocation
/// occurs. The returning builders above are thin wrappers over these.
void build_udp_ipv4_into(FrameBuffer& out, const FrameSpec& spec, Ipv4Addr src, Ipv4Addr dst);
void build_udp_ipv6_into(FrameBuffer& out, const FrameSpec& spec, const Ipv6Addr& src,
                         const Ipv6Addr& dst);

/// Minimum frame sizes the builders accept.
inline constexpr u32 kMinUdpIpv4Frame =
    sizeof(EthernetHeader) + sizeof(Ipv4Header) + sizeof(UdpHeader);
inline constexpr u32 kMinUdpIpv6Frame =
    sizeof(EthernetHeader) + sizeof(Ipv6Header) + sizeof(UdpHeader);

}  // namespace ps::net
