// IPv4 forwarding (section 6.2.1): DIR-24-8 longest-prefix match,
// GPU-offloaded, over a route::Ipv4Fib whose routes may change while the
// router forwards (section 7). A static table is a FIB that never
// receives an update. The pre-shader classifies/rewrites and gathers
// destination addresses; the GPU kernel performs the table lookup; the
// post-shader scatters packets to egress ports.
//
// Host side, the data path pins one FIB generation per chunk (epoch read,
// no lock). Device side, each GPU holds one copy of the DIR-24-8 arrays,
// which its master brings up to the FIB's generation at the start of a
// batch (apps/device_tables.hpp).
#pragma once

#include "apps/device_tables.hpp"
#include "core/shader.hpp"
#include "route/fib_manager.hpp"

namespace ps::apps {

class DynamicIpv4ForwardApp final : public core::Shader {
 public:
  /// `fib` must outlive the app.
  explicit DynamicIpv4ForwardApp(route::Ipv4Fib& fib);

  const char* name() const override { return "ipv4-forward"; }
  void bind_gpu(gpu::GpuDevice& device) override { tables_.bind(device); }
  void pre_shade(core::ShaderJob& job) override;
  core::ShadeOutcome shade(core::GpuContext& gpu, std::span<core::ShaderJob* const> jobs,
                           Picos submit_time = 0) override;
  void shade_cpu(core::ShaderJob& job) override;
  void post_shade(core::ShaderJob& job) override;
  void process_cpu(iengine::PacketChunk& chunk) override;

  /// Ablation switch for benchmarking: when off, process_cpu uses the
  /// scalar per-packet lookup, the paper's CPU-only baseline. shade_cpu
  /// always uses the batched lookup. On by default.
  void set_batched_lookup(bool on) { batched_lookup_ = on; }

  /// Maximum GPU-eligible packets per shading batch.
  static constexpr u32 kMaxBatchItems = 65536;
  /// Device capacity for >24-bit overflow chunks.
  static constexpr u32 kMaxOverflowChunks = 32768;

 private:
  /// TBL24 and kMaxOverflowChunks of TBLlong, allocated at the first upload.
  struct DeviceTable {
    gpu::DeviceBuffer tbl24;
    gpu::DeviceBuffer tbl_long;
    void upload(TableUpload& up, const route::Ipv4Table& table);
  };

  using DeviceTables = DeviceFib<route::Ipv4Fib, DeviceTable>;

  route::Ipv4Fib& fib_;
  DeviceTables tables_;
  bool batched_lookup_ = true;
};

}  // namespace ps::apps
