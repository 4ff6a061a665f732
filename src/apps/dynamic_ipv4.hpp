// IPv4 forwarding (section 6.2.1): DIR-24-8 longest-prefix match,
// GPU-offloaded, over a route::Ipv4Fib whose routes may change while the
// router forwards (section 7). A static table is a FIB that never
// receives an update. The pre-shader classifies/rewrites and gathers
// destination addresses; the GPU kernel performs the table lookup; the
// post-shader scatters packets to egress ports.
//
// Host side, the data path pins one FIB generation per chunk (epoch read,
// no lock). Device side, each GPU holds up to TWO copies of the DIR-24-8
// arrays; sync() uploads a new FIB generation into the standby copy and
// flips an atomic index, so kernels never observe a half-written table —
// the "update forwarding table in GPU memory without disturbing the
// data-path" problem the paper calls out, solved the way it suggests. A
// copy is allocated on its first upload, so a FIB that never changes
// holds one copy per GPU.
#pragma once

#include <atomic>
#include <memory>
#include <unordered_map>

#include "common/atomic_shim.hpp"
#include "core/shader.hpp"
#include "route/fib_manager.hpp"

namespace ps::apps {

class DynamicIpv4ForwardApp final : public core::Shader {
 public:
  /// `fib` must outlive the app.
  explicit DynamicIpv4ForwardApp(route::Ipv4Fib& fib);

  const char* name() const override { return "ipv4-forward"; }
  void bind_gpu(gpu::GpuDevice& device) override;
  void pre_shade(core::ShaderJob& job) override;
  core::ShadeOutcome shade(core::GpuContext& gpu, std::span<core::ShaderJob* const> jobs,
                           Picos submit_time = 0) override;
  void shade_cpu(core::ShaderJob& job) override;
  void post_shade(core::ShaderJob& job) override;
  void process_cpu(iengine::PacketChunk& chunk) override;

  /// Control-plane: push the FIB's current generation to every bound GPU
  /// (upload into the standby table copy, then flip). Call after
  /// fib.commit(); safe while the data path runs. Returns the number of
  /// devices refreshed.
  int sync();

  /// Ablation switch for benchmarking: when off, process_cpu uses the
  /// scalar per-packet lookup, the paper's CPU-only baseline. shade_cpu
  /// always uses the batched lookup. On by default.
  void set_batched_lookup(bool on) { batched_lookup_ = on; }

  /// Maximum GPU-eligible packets per shading batch.
  static constexpr u32 kMaxBatchItems = 65536;
  /// Device capacity for >24-bit overflow chunks (per table copy).
  static constexpr u32 kMaxOverflowChunks = 32768;

 private:
  struct GpuState {
    gpu::GpuDevice* device = nullptr;
    gpu::DeviceBuffer tbl24[2];
    gpu::DeviceBuffer tbl_long[2];
    gpu::DeviceBuffer input;   // u32 dst addresses
    gpu::DeviceBuffer output;  // u16 next hops
    // mc: app.dyn.active -- double-buffer slot index; release swap after upload
    ps::atomic<int> active{0};
    u64 generation = 0;  // FIB generation loaded into the active copy
  };

  void upload(GpuState& st, int slot, const route::Ipv4Table& table);

  route::Ipv4Fib& fib_;
  std::unordered_map<int, std::unique_ptr<GpuState>> gpu_state_;
  bool batched_lookup_ = true;
};

}  // namespace ps::apps
