// OpenFlow switch application (section 6.2.3). The CPU implementation does
// everything on the worker cores; the GPU mode offloads the two expensive
// pieces — flow-key hash computation and wildcard linear search — and
// leaves flow-key extraction and action execution on the CPU, mirroring
// the paper's load split.
#pragma once

#include <unordered_map>
#include <vector>

#include "apps/device_tables.hpp"
#include "core/shader.hpp"
#include "openflow/switch_table.hpp"

namespace ps::apps {

class OpenFlowApp final : public core::Shader {
 public:
  /// Tables must be fully populated before bind_gpu/start (static tables,
  /// as the paper assumes); `sw` must outlive the app.
  explicit OpenFlowApp(openflow::OpenFlowSwitch& sw);

  const char* name() const override { return "openflow-switch"; }
  void bind_gpu(gpu::GpuDevice& device) override;
  void pre_shade(core::ShaderJob& job) override;
  core::ShadeOutcome shade(core::GpuContext& gpu, std::span<core::ShaderJob* const> jobs,
                           Picos submit_time = 0) override;
  void shade_cpu(core::ShaderJob& job) override;
  void post_shade(core::ShaderJob& job) override;
  void process_cpu(iengine::PacketChunk& chunk) override;

  static constexpr u32 kMaxBatchItems = 65536;

  /// GPU-side classification result, one per packet: which table matched
  /// and the entry index inside it (like the rule pointer a real switch's
  /// classifier returns). The post-shader resolves the index to the full
  /// action host-side, so rich actions (L2 rewrites) need no device state.
  enum class MatchSource : u8 { kExact = 0, kWildcard = 1, kMiss = 2 };

 private:
  /// POD mirror of an exact slot for device memory (same index layout and
  /// probe sequence as the host table).
  struct GpuExactSlot {
    openflow::FlowKey key;
    u32 occupied = 0;
  };
  /// POD mirror of a wildcard entry, in priority order.
  struct GpuWildcardEntry {
    openflow::FlowKey key;
    u32 wildcards = 0;
    u8 nw_src_bits = 0;
    u8 nw_dst_bits = 0;
    u16 priority = 0;
  };

  struct GpuState {
    gpu::DeviceBuffer exact;     // GpuExactSlot[capacity]
    gpu::DeviceBuffer wildcard;  // GpuWildcardEntry[n]
    gpu::DeviceBuffer input;     // FlowKey per item
    gpu::DeviceBuffer output;    // u32 encoded result per item
    u32 exact_mask = 0;
    u32 wildcard_count = 0;
    bool loaded = false;  // the tables' last upload landed
  };

  /// Upload the tables; until they land, each shade() retries and fails.
  gpu::GpuResult upload_tables(GpuState& st, TableUpload up) const;
  static u32 encode_result(MatchSource source, u32 index);
  void apply_action(iengine::PacketChunk& chunk, u32 i, openflow::Action action);
  perf::KernelCost kernel_cost() const;

  openflow::OpenFlowSwitch& switch_;
  std::unordered_map<int, GpuState> gpu_state_;
};

}  // namespace ps::apps
