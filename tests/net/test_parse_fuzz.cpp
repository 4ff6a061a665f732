// Parser robustness: random and mutated bytes must never crash, never
// read out of bounds, and always classify into a defined ParseStatus.
// Malformed frames through the NIC + engine + app pipeline must be
// contained (dropped or slow-pathed), never forwarded as IPv4.
#include <gtest/gtest.h>

#include "apps/dynamic_ipv4.hpp"
#include "common/rng.hpp"
#include "core/shader.hpp"
#include "net/packet.hpp"
#include "nic/nic.hpp"

namespace ps::net {
namespace {

class ParseFuzzTest : public ::testing::TestWithParam<u64> {};

TEST_P(ParseFuzzTest, RandomBytesNeverMisbehave) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 2000; ++trial) {
    const u32 len = static_cast<u32>(rng.next_range(0, 256));
    std::vector<u8> bytes(len);
    for (auto& b : bytes) b = static_cast<u8>(rng.next_u64());

    PacketView view;
    const auto status = parse_packet(bytes.data(), len, view);
    // Whatever the status, the view must never point past the buffer.
    if (status == ParseStatus::kOk) {
      EXPECT_LE(view.l3_offset, len);
      EXPECT_LE(view.l4_offset, len);
      if (view.has_l4) {
        EXPECT_LE(view.l4_offset + 8u, len + 0u);
      }
    }
  }
}

TEST_P(ParseFuzzTest, MutatedValidFramesNeverMisbehave) {
  Rng rng(GetParam() + 1000);
  const auto base = build_udp_ipv4({.frame_size = 128}, Ipv4Addr(10, 0, 0, 1),
                                   Ipv4Addr(10, 0, 0, 2));
  for (int trial = 0; trial < 2000; ++trial) {
    auto frame = base;
    // Flip 1-4 random bytes anywhere in the frame.
    const int flips = 1 + static_cast<int>(rng.next_below(4));
    for (int f = 0; f < flips; ++f) {
      frame[rng.next_below(frame.size())] ^= static_cast<u8>(1 + rng.next_below(255));
    }
    PacketView view;
    const auto status = parse_packet(frame.data(), static_cast<u32>(frame.size()), view);
    (void)status;  // any defined status is acceptable; no crash, no UB
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParseFuzzTest, ::testing::Values(1, 2, 3));

TEST(ParseFuzz, GarbageThroughFullPipelineIsContained) {
  // Random garbage delivered to the NIC, fetched by the app: every packet
  // must end as drop or slow-path, never forwarded.
  route::Ipv4Fib fib;
  fib.announce({Ipv4Addr(0), 0, 1});
  fib.commit();
  apps::DynamicIpv4ForwardApp app(fib);

  nic::NicPort port(0, pcie::Topology::single_node(), {.num_rx_queues = 1, .ring_size = 2048});
  Rng rng(99);
  u32 delivered = 0;
  for (int i = 0; i < 1000; ++i) {
    std::vector<u8> junk(rng.next_range(14, 200));
    for (auto& b : junk) b = static_cast<u8>(rng.next_u64());
    if (port.receive_frame(junk)) ++delivered;
  }
  ASSERT_GT(delivered, 0u);

  std::vector<nic::RxSlot> slots(2048);
  const u32 n = port.rx_peek(0, slots.data(), 2048);
  core::ShaderJob job(2048);
  for (u32 i = 0; i < n; ++i) job.chunk.append({slots[i].data, slots[i].length});
  app.process_cpu(job.chunk);

  for (u32 i = 0; i < job.chunk.count(); ++i) {
    // Garbage can accidentally look like valid IPv4 only with a correct
    // checksum — vanishingly unlikely; anything else must not forward.
    if (job.chunk.verdict(i) == iengine::PacketVerdict::kForward) {
      EXPECT_NE(job.chunk.out_port(i), -1);
      PacketView view;
      auto pkt = job.chunk.packet(i);
      EXPECT_EQ(parse_packet(pkt.data(), static_cast<u32>(pkt.size()), view),
                ParseStatus::kOk);
    }
  }
  SUCCEED();
}

// --- targeted adversarial frames: exact statuses, never OOB ---------------

ParseStatus parse(std::span<u8> frame) {
  PacketView view;
  return parse_packet(frame.data(), static_cast<u32>(frame.size()), view);
}

TEST(ParseAdversarial, TruncatedEthernetHeader) {
  auto frame = build_udp_ipv4({.frame_size = 64}, Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2));
  for (u32 len = 0; len < sizeof(EthernetHeader); ++len) {
    EXPECT_EQ(parse({frame.data(), len}), ParseStatus::kTruncated) << "len=" << len;
  }
}

TEST(ParseAdversarial, TruncatedIpv4Header) {
  auto frame = build_udp_ipv4({.frame_size = 64}, Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2));
  // Any cut inside the IPv4 header is truncation, not a header-length error.
  for (u32 len = sizeof(EthernetHeader); len < sizeof(EthernetHeader) + sizeof(Ipv4Header);
       ++len) {
    EXPECT_EQ(parse({frame.data(), len}), ParseStatus::kTruncated) << "len=" << len;
  }
}

TEST(ParseAdversarial, TruncatedIpv6Header) {
  auto frame = build_udp_ipv6({.frame_size = 78}, Ipv6Addr::from_words(1, 1),
                              Ipv6Addr::from_words(2, 2));
  for (u32 len = sizeof(EthernetHeader); len < sizeof(EthernetHeader) + sizeof(Ipv6Header);
       ++len) {
    EXPECT_EQ(parse({frame.data(), len}), ParseStatus::kTruncated) << "len=" << len;
  }
}

TEST(ParseAdversarial, Ipv4TotalLengthBeyondFrame) {
  auto frame = build_udp_ipv4({.frame_size = 64}, Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2));
  auto& ip = *reinterpret_cast<Ipv4Header*>(frame.data() + sizeof(EthernetHeader));
  ip.set_total_length(static_cast<u16>(frame.size()));  // claims 14 B more than exists
  ipv4_fill_checksum(ip);
  EXPECT_EQ(parse(frame), ParseStatus::kTruncated);
}

TEST(ParseAdversarial, Ipv4TotalLengthSmallerThanHeader) {
  auto frame = build_udp_ipv4({.frame_size = 64}, Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2));
  auto& ip = *reinterpret_cast<Ipv4Header*>(frame.data() + sizeof(EthernetHeader));
  ip.set_total_length(sizeof(Ipv4Header) - 1);
  ipv4_fill_checksum(ip);
  EXPECT_EQ(parse(frame), ParseStatus::kTruncated);
}

TEST(ParseAdversarial, Ipv4BogusIhl) {
  // IHL < 5 is an impossible header; IHL claiming options beyond the frame
  // end must be rejected before anyone indexes `l4_offset`.
  for (u8 ihl : {u8{0}, u8{1}, u8{4}}) {
    auto frame =
        build_udp_ipv4({.frame_size = 64}, Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2));
    auto& ip = *reinterpret_cast<Ipv4Header*>(frame.data() + sizeof(EthernetHeader));
    ip.set_version_ihl(4, ihl);
    ipv4_fill_checksum(ip);
    EXPECT_EQ(parse(frame), ParseStatus::kBadHeaderLen) << "ihl=" << int{ihl};
  }
  auto frame = build_udp_ipv4({.frame_size = 64}, Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2));
  auto& ip = *reinterpret_cast<Ipv4Header*>(frame.data() + sizeof(EthernetHeader));
  // Corrupt IHL after checksumming: the helper sums ihl*4 bytes and a
  // 60-byte claim would send it past the frame end. The parser must bail
  // on the header length before it ever reads that far.
  ip.set_version_ihl(4, 15);  // 60-byte header inside a 50-byte L3 payload
  EXPECT_EQ(parse(frame), ParseStatus::kBadHeaderLen);
}

TEST(ParseAdversarial, VersionEthertypeMismatch) {
  // IPv6 version nibble under an IPv4 ethertype and vice versa.
  auto v4 = build_udp_ipv4({.frame_size = 64}, Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2));
  auto& ip4 = *reinterpret_cast<Ipv4Header*>(v4.data() + sizeof(EthernetHeader));
  ip4.set_version_ihl(6, 5);
  ipv4_fill_checksum(ip4);
  EXPECT_EQ(parse(v4), ParseStatus::kBadVersion);

  auto v6 = build_udp_ipv6({.frame_size = 78}, Ipv6Addr::from_words(1, 1),
                           Ipv6Addr::from_words(2, 2));
  v6[sizeof(EthernetHeader)] = (4u << 4);  // version=4 in an IPv6 frame
  EXPECT_EQ(parse(v6), ParseStatus::kBadVersion);
}

TEST(ParseAdversarial, Ipv4CorruptedChecksum) {
  auto frame = build_udp_ipv4({.frame_size = 64}, Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2));
  auto& ip = *reinterpret_cast<Ipv4Header*>(frame.data() + sizeof(EthernetHeader));
  ip.ttl ^= 0xff;  // header changed, checksum not refreshed
  EXPECT_EQ(parse(frame), ParseStatus::kBadChecksum);
}

TEST(ParseAdversarial, Ipv6PayloadLengthBeyondFrame) {
  auto frame = build_udp_ipv6({.frame_size = 78}, Ipv6Addr::from_words(1, 1),
                              Ipv6Addr::from_words(2, 2));
  auto& ip = *reinterpret_cast<Ipv6Header*>(frame.data() + sizeof(EthernetHeader));
  ip.set_payload_length(static_cast<u16>(frame.size()));
  EXPECT_EQ(parse(frame), ParseStatus::kTruncated);
}

TEST(ParseAdversarial, TruncatedUdpLosesL4ViewOnly) {
  // A valid IP header whose datagram is too short for UDP still parses at
  // L3 (routers forward it), but must not expose an L4 view.
  auto frame = build_udp_ipv4({.frame_size = 64}, Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2));
  auto& ip = *reinterpret_cast<Ipv4Header*>(frame.data() + sizeof(EthernetHeader));
  ip.set_total_length(sizeof(Ipv4Header) + 4);  // 4 bytes of UDP, header needs 8
  ipv4_fill_checksum(ip);
  PacketView view;
  ASSERT_EQ(parse_packet(frame.data(), static_cast<u32>(frame.size()), view), ParseStatus::kOk);
  EXPECT_FALSE(view.has_l4);
}

TEST(ParseAdversarial, NonIpEthertypeIsUnsupported) {
  auto frame = build_udp_ipv4({.frame_size = 64}, Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2));
  frame[12] = 0x08;
  frame[13] = 0x06;  // ARP
  EXPECT_EQ(parse(frame), ParseStatus::kUnsupported);
}

}  // namespace
}  // namespace ps::net
