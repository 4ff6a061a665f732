// IPv6 forwarding (section 6.2.2): binary search on prefix lengths, seven
// hash probes per lookup — the memory-intensive workload where GPU
// acceleration pays off most (Figure 11(b)) — over a route::Ipv6Fib whose
// routes may change while the router forwards (section 7). A static table
// is a FIB that never receives an update.
//
// Every FIB generation is an Ipv6Table, whose flat per-length hash arrays
// are the whole table: the CPU paths walk them on the pinned generation,
// and each GPU holds one device copy of them, which its master brings up
// to the FIB's generation at the start of a batch (apps/device_tables.hpp),
// growing it when the table outgrows its reservation.
#pragma once

#include "apps/device_tables.hpp"
#include "core/shader.hpp"
#include "route/fib_manager.hpp"

namespace ps::apps {

class DynamicIpv6ForwardApp final : public core::Shader {
 public:
  /// `fib` must outlive the app.
  explicit DynamicIpv6ForwardApp(route::Ipv6Fib& fib);

  const char* name() const override { return "ipv6-forward"; }
  void bind_gpu(gpu::GpuDevice& device) override { tables_.bind(device); }
  void pre_shade(core::ShaderJob& job) override;
  core::ShadeOutcome shade(core::GpuContext& gpu, std::span<core::ShaderJob* const> jobs,
                           Picos submit_time = 0) override;
  void shade_cpu(core::ShaderJob& job) override;
  void post_shade(core::ShaderJob& job) override;
  void process_cpu(iengine::PacketChunk& chunk) override;

  static constexpr u32 kMaxBatchItems = 65536;

 private:
  /// The flat per-length arrays; the slot array grows when a table outgrows it.
  struct DeviceTable {
    gpu::DeviceBuffer slots;
    gpu::DeviceBuffer offsets;  // u32[129]
    gpu::DeviceBuffer masks;    // u32[129]
    route::NextHop default_nh = route::kNoRoute;
    void upload(TableUpload& up, const route::Ipv6Table& table);
  };
  using DeviceTables = DeviceFib<route::Ipv6Fib, DeviceTable>;

  route::Ipv6Fib& fib_;
  DeviceTables tables_;
};

}  // namespace ps::apps
