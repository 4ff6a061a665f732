// The per-chunk pipeline (section 5.1, Figures 7 and 10), written once and
// driven by both executors (DESIGN.md §4): core::Router calls these stages
// from its worker and master threads, core::ModelDriver calls them in
// lock-step on one thread under the model clock. Each stage pairs a Shader
// callback with the integrity checks at its boundary. Policy that needs
// threads (rings, retries, device health) or the model clock (charge
// scopes, I/O-only modes) stays with the executor.
#pragma once

#include <span>
#include <vector>

#include "core/shader.hpp"
#include "integrity/integrity.hpp"

namespace ps::core {

/// Shadow-verification state of one shading master: sampling position,
/// escalation window, strikes, and the scratch that stashes the device's
/// results while the CPU re-shade recomputes them (reserve it up front so
/// the steady state stays allocation-free).
struct ShadowState {
  u64 seq = 0;                   // successful GPU batches, for sampling
  u32 escalated_remaining = 0;   // batches left in the escalation window
  u32 strikes = 0;               // mismatched batches in this window
  std::vector<u8> scratch;
};

class Pipeline {
 public:
  /// `shader` may be null only for an executor that never calls a stage
  /// which shades (the model's minimal forwarding). `integrity` null
  /// turns every check into a pointer test.
  Pipeline(Shader* shader, integrity::IntegrityChecker* integrity)
      : shader_(shader), integrity_(integrity) {}

  integrity::IntegrityChecker* integrity() const { return integrity_; }

  /// RX admission: check the huge-buffer bytes against the NIC's wire CRC
  /// and drop the packets a flaky cell or DMA flipped.
  void admit(iengine::PacketChunk& chunk);
  /// Inline CPU path: integrity coverage ends at admission (the chunk
  /// crosses no further hand-off and process_cpu rewrites headers), so
  /// the stamp is cleared rather than re-taken.
  void run_cpu(iengine::PacketChunk& chunk);
  /// Worker pre-shading; pre_shade is a sanctioned mutation point, so the
  /// stamp is re-taken to certify the bytes handed to the master.
  void pre(ShaderJob& job);
  /// Gather boundary: count (localize) corruption from the hand-off. The
  /// owning worker drops the flagged packets in apply().
  void gather_verify(std::span<ShaderJob* const> batch);
  /// Sampled shadow verification of a successfully GPU-shaded batch:
  /// recompute on the CPU, compare, and ship the CPU result on mismatch.
  /// A mismatch escalates sampling to every batch; returns true when the
  /// strikes in one window reach the trip threshold (device suspect) —
  /// what to do about it is the caller's policy.
  bool shadow_verify(ShadowState& state, std::span<ShaderJob* const> batch);
  /// In-place scatter moved the result-apply mutation site into the D2H:
  /// re-certify those frames after shading and shadow verification.
  void restamp_in_place(std::span<ShaderJob* const> batch);
  /// Scatter boundary + post-shading: a chunk whose bytes changed since
  /// the master's stamp is re-shaded on the CPU once (unless it already
  /// was), post_shade applies the results, flagged packets are dropped,
  /// and the stamp is re-taken only if post_shade wrote frame bytes.
  void apply(ShaderJob& job);
  /// Pre-TX check, the last look before the wire (and the host stack):
  /// anything flagged here or earlier is dropped, never sent.
  void pre_tx(iengine::PacketChunk& chunk);

 private:
  /// Shadow-check one job; returns the packets whose results mismatched.
  u64 shadow_check(ShadowState& state, ShaderJob& job);
  /// Drop (kIntegrityFail) every flagged packet not already dropped.
  void drop_flagged(iengine::PacketChunk& chunk);

  Shader* shader_;
  integrity::IntegrityChecker* integrity_;
};

}  // namespace ps::core
