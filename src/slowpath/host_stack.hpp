// Slow-path host stack: the "pass them onto Linux TCP/IP stack" role of
// section 6.2.1, as far as a router's data plane observes it.
//
// Packets the fast path classifies as kSlowPath land here:
//  - TTL-expired IPv4 packets produce a real ICMP Time Exceeded reply
//    (type 11, code 0, RFC 792: IP header + first 8 payload bytes quoted);
//  - packets addressed to one of the router's own addresses are delivered
//    locally (where a BGP daemon would read them);
//  - anything else (ARP, unknown ethertypes) is counted and dropped.
#pragma once

#include <optional>
#include <unordered_set>
#include <vector>

#include "net/packet.hpp"

namespace ps::slowpath {

struct HostStackStats {
  u64 icmp_time_exceeded = 0;
  u64 icmp_echo_replies = 0;
  u64 delivered_locally = 0;
  u64 unhandled = 0;
  /// Local deliveries refused because the retained queue hit its memory
  /// bound (defense in depth behind slowpath::Admission).
  u64 local_overflow = 0;
};

class HostStack {
 public:
  /// The address the router speaks with (ICMP source); more can be added.
  explicit HostStack(net::Ipv4Addr router_addr);

  /// Register an additional local address (packets to it are delivered).
  void add_local_address(net::Ipv4Addr addr);

  /// Handle one slow-path frame. Returns a response frame to transmit out
  /// of the ingress port (e.g. an ICMP error), or nullopt.
  std::optional<net::FrameBuffer> handle(std::span<const u8> frame, int in_port);

  /// Frames delivered to local sockets (would-be BGP/SSH traffic).
  const std::vector<net::FrameBuffer>& local_deliveries() const { return local_; }

  /// Hard bound on retained local-delivery frames: past it, new local
  /// deliveries are counted in `local_overflow` and discarded instead of
  /// growing the queue. Models finite socket buffers — the stack's memory
  /// stays bounded whatever the data path feeds it.
  void set_local_capacity(std::size_t capacity) { local_capacity_ = capacity; }
  std::size_t local_capacity() const { return local_capacity_; }

  const HostStackStats& stats() const { return stats_; }

 private:
  net::FrameBuffer build_time_exceeded(const net::PacketView& offender, int in_port);
  net::FrameBuffer build_echo_reply(const net::PacketView& request, int in_port);

  net::Ipv4Addr router_addr_;
  std::unordered_set<net::Ipv4Addr> local_addrs_;
  std::vector<net::FrameBuffer> local_;
  std::size_t local_capacity_ = 4096;
  HostStackStats stats_;
};

}  // namespace ps::slowpath
