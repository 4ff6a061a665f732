#include "crypto/esp.hpp"

#include <cassert>
#include <cstring>

#include "common/rng.hpp"

namespace ps::crypto {

namespace {
constexpr u8 kNextHeaderIpv4 = 4;  // IP-in-IP
}

const char* to_string(EspError e) {
  switch (e) {
    case EspError::kOk: return "ok";
    case EspError::kNotEsp: return "not-esp";
    case EspError::kUnknownSpi: return "unknown-spi";
    case EspError::kAuthFailed: return "auth-failed";
    case EspError::kReplayed: return "replayed";
    case EspError::kMalformed: return "malformed";
  }
  return "?";
}

SecurityAssociation SecurityAssociation::make_test_sa(u32 spi, net::Ipv4Addr src,
                                                      net::Ipv4Addr dst, u64 seed) {
  SecurityAssociation sa;
  sa.spi = spi;
  sa.tunnel_src = src;
  sa.tunnel_dst = dst;
  Rng rng(seed ^ spi);
  for (auto& b : sa.aes_key) b = static_cast<u8>(rng.next_u64());
  for (auto& b : sa.nonce) b = static_cast<u8>(rng.next_u64());
  for (auto& b : sa.auth_key) b = static_cast<u8>(rng.next_u64());
  sa.cipher.set_key(std::span<const u8, kAesKeySize>{sa.aes_key});
  return sa;
}

u32 esp_cipher_bytes(u32 inner_len) {
  const u32 pad = (4 - (inner_len + sizeof(net::EspTrailer)) % 4) % 4;
  return inner_len + pad + sizeof(net::EspTrailer);
}

u32 esp_output_frame_size(u32 frame_len) {
  const u32 inner_len = frame_len - sizeof(net::EthernetHeader);
  return sizeof(net::EthernetHeader) + kEspFixedOverhead - sizeof(net::EspTrailer) +
         esp_cipher_bytes(inner_len);
}

EspLayout esp_layout(u32 tunnel_len) {
  constexpr u32 esp_offset = sizeof(net::EthernetHeader) + sizeof(net::Ipv4Header);
  constexpr u32 payload_offset = esp_offset + sizeof(net::EspHeader) + kCtrIvSize;
  const u32 icv_offset = tunnel_len - static_cast<u32>(kHmacSha1_96Size);
  return {.esp_offset = esp_offset,
          .payload_offset = payload_offset,
          .cipher_len = icv_offset - payload_offset,
          .icv_offset = icv_offset};
}

u32 esp_tunnel_size(std::span<const u8> frame) {
  net::PacketView view;
  if (net::parse_packet(const_cast<u8*>(frame.data()), static_cast<u32>(frame.size()), view) !=
          net::ParseStatus::kOk ||
      view.ether_type != net::EtherType::kIpv4) {
    return 0;
  }
  return esp_output_frame_size(static_cast<u32>(frame.size()));
}

void esp_build_unencrypted(const SecurityAssociation& sa, std::span<const u8> frame, u32 seq,
                           std::span<u8> out) {
  assert(out.size() == esp_output_frame_size(static_cast<u32>(frame.size())));
  const EspLayout layout = esp_layout(static_cast<u32>(out.size()));
  const u32 inner_len = static_cast<u32>(frame.size()) - sizeof(net::EthernetHeader);
  const u32 pad = layout.cipher_len - inner_len - sizeof(net::EspTrailer);

  // Plaintext first: the inner IP packet + pad + trailer. memmove, since
  // in place the inner packet moves up over its own old bytes; the headers
  // written below then cover what is left of the old frame.
  u8* payload = out.data() + layout.payload_offset;
  std::memmove(payload, frame.data() + sizeof(net::EthernetHeader), inner_len);
  for (u32 i = 0; i < pad; ++i) payload[inner_len + i] = static_cast<u8>(i + 1);
  auto& trailer = *reinterpret_cast<net::EspTrailer*>(payload + inner_len + pad);
  trailer.pad_length = static_cast<u8>(pad);
  trailer.next_header = kNextHeaderIpv4;
  std::memset(out.data(), 0, layout.payload_offset);
  std::memset(out.data() + layout.icv_offset, 0, kHmacSha1_96Size);

  // L2: tunnel endpoints' synthesized MACs; rewritten again at TX anyway.
  auto& eth = *reinterpret_cast<net::EthernetHeader*>(out.data());
  eth.set_src(net::MacAddr::for_port(sa.tunnel_src.value & 0xffff));
  eth.set_dst(net::MacAddr::for_port(sa.tunnel_dst.value & 0xffff));
  eth.set_ethertype(net::EtherType::kIpv4);

  // Outer IPv4.
  auto& ip = *reinterpret_cast<net::Ipv4Header*>(out.data() + sizeof(net::EthernetHeader));
  ip.set_version_ihl(4, 5);
  ip.set_total_length(static_cast<u16>(out.size() - sizeof(net::EthernetHeader)));
  ip.ttl = 64;
  ip.set_proto(net::IpProto::kEsp);
  ip.set_src(sa.tunnel_src);
  ip.set_dst(sa.tunnel_dst);

  // ESP header.
  auto& esp = *reinterpret_cast<net::EspHeader*>(out.data() + layout.esp_offset);
  esp.set_spi(sa.spi);
  esp.set_sequence(seq);

  // Deterministic per-packet IV derived from the sequence number — the
  // standard construction for CTR-mode ESP (uniqueness is what matters).
  u8* iv = out.data() + layout.esp_offset + sizeof(net::EspHeader);
  store_be32(iv, 0x50531001u);  // SA-lifetime salt
  store_be32(iv + 4, seq);

  net::ipv4_fill_checksum(ip);
}

void esp_seal(const SecurityAssociation& sa, std::span<u8> tunnel) {
  const EspLayout layout = esp_layout(static_cast<u32>(tunnel.size()));
  const u8* iv = tunnel.data() + layout.esp_offset + sizeof(net::EspHeader);
  aes_ctr_crypt(sa.cipher, std::span<const u8, kCtrNonceSize>{sa.nonce},
                std::span<const u8, kCtrIvSize>{iv, kCtrIvSize},
                {tunnel.data() + layout.payload_offset, layout.cipher_len});

  // ICV over ESP header + IV + ciphertext (RFC 4303 §2.8).
  const auto icv = hmac_sha1_96(
      sa.auth_key, {tunnel.data() + layout.esp_offset, layout.icv_offset - layout.esp_offset});
  std::memcpy(tunnel.data() + layout.icv_offset, icv.data(), icv.size());
}

std::vector<u8> esp_encapsulate(const SecurityAssociation& sa, std::span<const u8> frame,
                                u32 seq) {
  std::vector<u8> out(esp_tunnel_size(frame));
  if (out.empty()) return out;
  esp_build_unencrypted(sa, frame, seq, out);
  esp_seal(sa, out);
  return out;
}

std::vector<u8> esp_encapsulate(SecurityAssociation& sa, std::span<const u8> frame) {
  return esp_encapsulate(sa, frame, sa.next_seq++);
}

namespace {

/// Anti-replay check and window update (RFC 4303 §3.4.3, 64-bit window).
bool replay_check_and_update(SecurityAssociation& sa, u32 seq) {
  if (seq == 0) return false;
  if (seq > sa.replay_high) {
    const u32 shift = seq - sa.replay_high;
    sa.replay_window = shift >= 64 ? 0 : sa.replay_window << shift;
    sa.replay_window |= 1;
    sa.replay_high = seq;
    return true;
  }
  const u32 offset = sa.replay_high - seq;
  if (offset >= 64) return false;  // too old
  const u64 bit = u64{1} << offset;
  if (sa.replay_window & bit) return false;  // duplicate
  sa.replay_window |= bit;
  return true;
}

}  // namespace

EspError esp_decapsulate(SecurityAssociation& sa, std::span<const u8> frame,
                         std::vector<u8>& inner_out) {
  net::PacketView view;
  if (net::parse_packet(const_cast<u8*>(frame.data()), static_cast<u32>(frame.size()), view) !=
          net::ParseStatus::kOk ||
      view.ether_type != net::EtherType::kIpv4 || view.ip_proto != net::IpProto::kEsp) {
    return EspError::kNotEsp;
  }

  const u32 esp_offset = view.l4_offset;
  const u32 esp_bytes = static_cast<u32>(frame.size()) - esp_offset;
  if (esp_bytes < sizeof(net::EspHeader) + kCtrIvSize + sizeof(net::EspTrailer) +
                      kHmacSha1_96Size) {
    return EspError::kMalformed;
  }

  const auto& esp = *reinterpret_cast<const net::EspHeader*>(frame.data() + esp_offset);
  if (esp.spi() != sa.spi) return EspError::kUnknownSpi;

  // Verify ICV before touching the ciphertext.
  const u32 icv_offset = static_cast<u32>(frame.size()) - kHmacSha1_96Size;
  const auto expected =
      hmac_sha1_96(sa.auth_key, {frame.data() + esp_offset, icv_offset - esp_offset});
  if (std::memcmp(expected.data(), frame.data() + icv_offset, kHmacSha1_96Size) != 0) {
    return EspError::kAuthFailed;
  }

  if (!replay_check_and_update(sa, esp.sequence())) return EspError::kReplayed;

  // Decrypt in a scratch copy.
  const u8* iv = frame.data() + esp_offset + sizeof(net::EspHeader);
  const u32 cipher_offset = esp_offset + sizeof(net::EspHeader) + kCtrIvSize;
  std::vector<u8> plain(frame.begin() + cipher_offset, frame.begin() + icv_offset);
  aes_ctr_crypt(sa.cipher, std::span<const u8, kCtrNonceSize>{sa.nonce},
                std::span<const u8, kCtrIvSize>{iv, kCtrIvSize}, plain);

  const auto& trailer =
      *reinterpret_cast<const net::EspTrailer*>(plain.data() + plain.size() -
                                                sizeof(net::EspTrailer));
  if (trailer.next_header != kNextHeaderIpv4 ||
      trailer.pad_length + sizeof(net::EspTrailer) > plain.size()) {
    return EspError::kMalformed;
  }
  const u32 inner_len =
      static_cast<u32>(plain.size()) - trailer.pad_length - sizeof(net::EspTrailer);

  // Rebuild an Ethernet frame around the inner IP packet.
  inner_out.assign(sizeof(net::EthernetHeader) + inner_len, 0);
  auto& eth = *reinterpret_cast<net::EthernetHeader*>(inner_out.data());
  eth.set_src(net::MacAddr::for_port(sa.tunnel_dst.value & 0xffff));
  eth.set_dst(net::MacAddr::broadcast());
  eth.set_ethertype(net::EtherType::kIpv4);
  std::memcpy(inner_out.data() + sizeof(net::EthernetHeader), plain.data(), inner_len);

  return EspError::kOk;
}

SecurityAssociation& SaDatabase::add(SecurityAssociation sa) {
  sa.cipher.set_key(std::span<const u8, kAesKeySize>{sa.aes_key});
  const u32 spi = sa.spi;
  return sas_.insert_or_assign(spi, std::move(sa)).first->second;
}

SecurityAssociation* SaDatabase::by_spi(u32 spi) {
  const auto it = sas_.find(spi);
  return it == sas_.end() ? nullptr : &it->second;
}

const SecurityAssociation* SaDatabase::by_spi(u32 spi) const {
  const auto it = sas_.find(spi);
  return it == sas_.end() ? nullptr : &it->second;
}

}  // namespace ps::crypto
