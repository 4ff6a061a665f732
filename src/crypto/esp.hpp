// ESP tunnel mode (RFC 4303) with AES-128-CTR + HMAC-SHA1-96 — the IPsec
// configuration of section 6.2.4. Includes a security-association database
// and a sliding anti-replay window.
#pragma once

#include <array>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "crypto/aes.hpp"
#include "crypto/ctr.hpp"
#include "crypto/hmac.hpp"
#include "net/packet.hpp"

namespace ps::crypto {

struct SecurityAssociation {
  u32 spi = 0;
  std::array<u8, kAesKeySize> aes_key{};
  std::array<u8, kCtrNonceSize> nonce{};
  std::array<u8, kSha1DigestSize> auth_key{};
  net::Ipv4Addr tunnel_src;
  net::Ipv4Addr tunnel_dst;

  u32 next_seq = 1;  // outbound sequence number

  // Inbound anti-replay: highest sequence seen + 64-packet window bitmap.
  u32 replay_high = 0;
  u64 replay_window = 0;

  Aes128 cipher;  // expanded from aes_key by SaDatabase::add

  /// Deterministic test SA with keys derived from `seed`.
  static SecurityAssociation make_test_sa(u32 spi, net::Ipv4Addr src, net::Ipv4Addr dst,
                                          u64 seed = 42);
};

/// Fixed per-packet ESP byte overhead before padding:
/// outer IPv4 (20) + ESP header (8) + IV (8) + trailer (2) + ICV (12).
inline constexpr u32 kEspFixedOverhead = 20 + 8 + 8 + 2 + kHmacSha1_96Size;

/// Bytes of AES payload for an inner IP packet of `inner_len` bytes
/// (inner + pad + 2-byte trailer), for the cost model.
u32 esp_cipher_bytes(u32 inner_len);

/// Total output frame size for an input Ethernet frame of `frame_len`.
u32 esp_output_frame_size(u32 frame_len);

enum class EspError : u8 {
  kOk = 0,
  kNotEsp,
  kUnknownSpi,
  kAuthFailed,
  kReplayed,
  kMalformed,
};

const char* to_string(EspError e);

/// Byte layout of a built ESP frame, for split CPU/GPU processing.
struct EspLayout {
  u32 esp_offset = 0;      // ESP header start (HMAC coverage starts here)
  u32 payload_offset = 0;  // first ciphertext byte (after the 8 B IV)
  u32 cipher_len = 0;      // bytes under AES-CTR
  u32 icv_offset = 0;      // 12 B ICV position
};

/// Layout of a tunnel frame of `tunnel_len` bytes.
EspLayout esp_layout(u32 tunnel_len);

/// Tunnel frame size for an input Ethernet frame, or 0 when the frame is
/// not a well-formed IPv4 packet (only IPv4 is tunneled).
u32 esp_tunnel_size(std::span<const u8> frame);

/// Build the tunnel frame into `out` with the payload still in plaintext
/// and the ICV zeroed — the pre-shading half of the GPU path (crypto
/// happens on the device). `out` holds esp_tunnel_size(frame) bytes, which
/// must not be 0. It may start at frame.data(), which encapsulates in
/// place; otherwise it must not overlap `frame`. `seq` is the explicit ESP
/// sequence number.
void esp_build_unencrypted(const SecurityAssociation& sa, std::span<const u8> frame, u32 seq,
                           std::span<u8> out);

/// Encrypt the payload of a frame esp_build_unencrypted built and write
/// its ICV, in place — the crypto half.
void esp_seal(const SecurityAssociation& sa, std::span<u8> tunnel);

/// Full CPU encapsulation with explicit sequence number (const SA; safe
/// from concurrent workers that allocate their own sequence numbers).
std::vector<u8> esp_encapsulate(const SecurityAssociation& sa, std::span<const u8> frame,
                                u32 seq);

/// Convenience wrapper advancing sa.next_seq.
std::vector<u8> esp_encapsulate(SecurityAssociation& sa, std::span<const u8> frame);

/// Decapsulate and verify; returns the reconstructed inner Ethernet frame
/// (original L2 addresses are synthesized from the tunnel ports).
/// Checks HMAC before decrypting and enforces the anti-replay window.
EspError esp_decapsulate(SecurityAssociation& sa, std::span<const u8> frame,
                         std::vector<u8>& inner_out);

class SaDatabase {
 public:
  /// Add (or replace) an SA; expands its AES key schedule.
  SecurityAssociation& add(SecurityAssociation sa);
  SecurityAssociation* by_spi(u32 spi);
  const SecurityAssociation* by_spi(u32 spi) const;
  std::size_t size() const { return sas_.size(); }

 private:
  std::unordered_map<u32, SecurityAssociation> sas_;
};

}  // namespace ps::crypto
