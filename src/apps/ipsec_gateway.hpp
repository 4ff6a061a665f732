// IPsec gateway application (section 6.2.4): ESP tunnel mode with
// AES-128-CTR + HMAC-SHA1. The GPU path exploits two levels of
// parallelism, exactly as the paper describes: AES at the finest grain
// (one GPU thread per 16 B cipher block) and SHA-1 at packet grain (the
// block chain is sequential within a packet).
//
// The CPU path (pre-shading) does everything except crypto: ESP framing,
// padding, IV/sequence allocation. Throughput for this application is
// reported as *input* throughput (the paper's metric), since ESP inflates
// the output.
#pragma once

#include <atomic>
#include <unordered_map>

#include "apps/device_tables.hpp"
#include "common/atomic_shim.hpp"
#include "core/shader.hpp"
#include "crypto/esp.hpp"

namespace ps::apps {

class IpsecGatewayApp final : public core::Shader {
 public:
  /// All traffic is tunneled through `sa` (one VPN peer); egress is the
  /// ingress port's partner (port 0 <-> 1, 2 <-> 3, ...). `sa` must
  /// outlive the app; its cipher must be expanded (SaDatabase::add does).
  explicit IpsecGatewayApp(const crypto::SecurityAssociation& sa);

  const char* name() const override { return "ipsec-gateway"; }
  void bind_gpu(gpu::GpuDevice& device) override;
  void pre_shade(core::ShaderJob& job) override;
  core::ShadeOutcome shade(core::GpuContext& gpu, std::span<core::ShaderJob* const> jobs,
                           Picos submit_time = 0) override;
  void shade_cpu(core::ShaderJob& job) override;
  void post_shade(core::ShaderJob& job) override;
  void process_cpu(iengine::PacketChunk& chunk) override;

  static constexpr u32 kMaxBatchBlocks = 256 * 1024;  // AES blocks per batch
  static constexpr u32 kMaxBatchPackets = 16384;

 private:
  struct GpuState {
    gpu::DeviceBuffer descs;
    gpu::DeviceBuffer blocks;
    gpu::DeviceBuffer blob;    // in-place encryption
    gpu::DeviceBuffer icv;     // 12 B per packet
    gpu::DeviceBuffer keys;    // AES schedule (176 B) + nonce (4) + auth key (20)
    bool keys_loaded = false;  // the keys' last upload landed
    // Scatter-D2H descriptor lists reused across batches (shade runs on
    // the one master that owns this GPU, so no synchronization; grow-only,
    // reaching steady size after the first full batch).
    std::vector<gpu::ScatterSeg> blob_segs;
    std::vector<gpu::ScatterSeg> icv_segs;
  };

  /// Upload the keys; until they land, each shade() retries and fails.
  gpu::GpuResult upload_keys(GpuState& st, TableUpload up) const;
  /// The framing half of both paths, in place: classify each packet, grow
  /// the chunk once, and build each tunnel frame in its own span with the
  /// payload in plaintext and the ICV zeroed.
  void encapsulate(iengine::PacketChunk& chunk);
  gpu::GpuStatus shade_one_job(core::GpuContext& gpu, core::ShaderJob& job,
                               gpu::StreamId stream, Picos submit_time, Picos& done);

  const crypto::SecurityAssociation& sa_;
  // mc: ipsec.next_seq -- relaxed ESP sequence ticket (per-SA uniqueness only)
  ps::atomic<u32> next_seq_{1};
  std::unordered_map<int, GpuState> gpu_state_;
};

}  // namespace ps::apps
