// Golden corpus definitions (DESIGN.md §18): the three committed captures
// the replay-gate CI job routes through the full router and compares
// against expected TX. Everything here is shared between the expect tests
// and the regeneration tool (tools/make_goldens), so the corpus can never
// drift between "what the test replays" and "what the tool regenerates".
#pragma once

#include <array>
#include <string>

#include "cap/expect.hpp"

namespace ps::cap {

enum class Corpus : u8 {
  kIpv4Imix,  // IPv4 forwarding over a real-histogram RIB, IMIX sizes
  kIpv6,      // IPv6 forwarding (128-bit LPM), mixed flows
  kIpsec,     // ESP tunnel encapsulation (crypto determinism end to end)
};

inline constexpr std::array<Corpus, 3> kAllCorpora = {Corpus::kIpv4Imix, Corpus::kIpv6,
                                                      Corpus::kIpsec};

/// Stable corpus slug: "ipv4_imix", "ipv6", "ipsec".
const char* corpus_name(Corpus corpus);

/// Paths under the committed corpus directory (tests/data).
std::string corpus_input_path(const std::string& data_dir, Corpus corpus);
std::string corpus_golden_path(const std::string& data_dir, Corpus corpus);

/// Number of frames each corpus input carries.
u64 corpus_frame_count(Corpus corpus);

/// Synthesize the corpus input capture deterministically (seeded
/// generator, synthetic pcap clock) and write it to `path`. Regenerating
/// yields byte-identical files — the checksum manifest depends on it.
void write_corpus_input(Corpus corpus, const std::string& path);

/// Which executor drives the per-chunk pipeline for a corpus replay.
enum class Executor : u8 {
  kModel,   // core::ModelDriver: one host thread, deterministic order
  kRouter,  // core::Router: worker/master threads, SPSC hand-off, doorbells
};

/// Replay the capture at `input_path` through the full router configured
/// for `corpus` (paper-server testbed, GPU path, inline SIMT execution)
/// and return the canonicalized TX frames. The Router run replays at
/// kMax and stops once every corpus frame reached TX (or on a timeout,
/// leaving the shortfall to the caller's count check).
FrameList route_corpus(Corpus corpus, const std::string& input_path,
                       Executor executor = Executor::kModel);

/// Reassign the ESP sequence numbers of IPsec-corpus frames in a
/// schedule-independent order. The gateway numbers packets in the order
/// its workers encapsulate them, which the threaded Router interleaves
/// differently on every run; everything else in a frame is a function of
/// (inner packet, sequence number). Each frame must decapsulate under the
/// corpus SA and re-encapsulate byte-identically at its own number — one
/// that does not is kept raw, so it fails the golden comparison. The
/// survivors are then re-encapsulated at 1..n in inner-packet order.
FrameList renumber_esp(const FrameList& frames);

}  // namespace ps::cap
