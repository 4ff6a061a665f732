// IPv6 forwarding (section 6.2.2): binary search on prefix lengths, seven
// hash probes per lookup — the memory-intensive workload where GPU
// acceleration pays off most (Figure 11(b)) — over a route::Ipv6Fib whose
// routes may change while the router forwards (section 7). A static table
// is a FIB that never receives an update.
//
// Every FIB generation carries its flattened per-length hash tables
// (Ipv6Table::flat()): the CPU paths walk them on the pinned generation,
// and each GPU holds up to two device copies of them. sync() uploads a
// committed generation into the standby copy (allocating or growing it
// when the table outgrew its reservation) and flips atomically.
#pragma once

#include <atomic>
#include <memory>
#include <unordered_map>

#include "common/atomic_shim.hpp"
#include "core/shader.hpp"
#include "route/fib_manager.hpp"

namespace ps::apps {

class DynamicIpv6ForwardApp final : public core::Shader {
 public:
  /// `fib` must outlive the app.
  explicit DynamicIpv6ForwardApp(route::Ipv6Fib& fib);

  const char* name() const override { return "ipv6-forward"; }
  void bind_gpu(gpu::GpuDevice& device) override;
  void pre_shade(core::ShaderJob& job) override;
  core::ShadeOutcome shade(core::GpuContext& gpu, std::span<core::ShaderJob* const> jobs,
                           Picos submit_time = 0) override;
  void shade_cpu(core::ShaderJob& job) override;
  void post_shade(core::ShaderJob& job) override;
  void process_cpu(iengine::PacketChunk& chunk) override;

  /// Push the FIB's current generation to every bound GPU (standby upload
  /// + flip). Call after fib.commit(); safe while the data path runs.
  int sync();

  static constexpr u32 kMaxBatchItems = 65536;

 private:
  struct TableCopy {
    gpu::DeviceBuffer slots;
    gpu::DeviceBuffer offsets;  // u32[129]
    gpu::DeviceBuffer masks;    // u32[129]
    std::size_t slot_capacity_bytes = 0;
    route::NextHop default_nh = route::kNoRoute;
  };
  struct GpuState {
    gpu::GpuDevice* device = nullptr;
    TableCopy copies[2];
    gpu::DeviceBuffer input;   // 16 B address per item
    gpu::DeviceBuffer output;  // u16 next hop per item
    // mc: app.dyn.active -- double-buffer slot index; release swap after upload
    ps::atomic<int> active{0};
    u64 generation = 0;
  };

  void upload(GpuState& st, int slot, const route::Ipv6FlatTable& flat);

  route::Ipv6Fib& fib_;
  std::unordered_map<int, std::unique_ptr<GpuState>> gpu_state_;
};

}  // namespace ps::apps
