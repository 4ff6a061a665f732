// The apps' tables on the GPUs. TableUpload runs one upload's copies.
// DeviceFib keeps a forwarding app's FIB on each bound GPU as one table
// copy, which that GPU's master re-uploads in place at the start of a
// batch when a commit has moved the FIB. Only a device's master launches
// kernels on it, and every kernel has finished before shade() returns, so
// no kernel can see a half-written table (DESIGN.md §12).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <unordered_map>

#include "apps/forwarding.hpp"

namespace ps::apps {

/// One upload's host-to-device copies, on one stream. A copy after a
/// failed one is skipped, so `result` holds the first failure, or else the
/// last copy's timing.
struct TableUpload {
  template <typename Range>
  TableUpload& copy(gpu::DeviceBuffer& dst, const Range& src) {
    const auto bytes = std::as_bytes(std::span(src));
    if (result.ok() && !bytes.empty()) {
      result = device.memcpy_h2d(
          dst, 0, {reinterpret_cast<const u8*>(bytes.data()), bytes.size()}, stream, submit_time);
    }
    return *this;
  }

  gpu::GpuDevice& device;
  gpu::StreamId stream = gpu::kDefaultStream;
  Picos submit_time = 0;
  gpu::GpuResult result{gpu::GpuStatus::kOk, submit_time, submit_time};
};

/// `Copy` holds one table's device buffers; its
/// `void upload(TableUpload&, const Table&)` allocates them on first use.
template <typename Fib, typename Copy>
class DeviceFib {
 public:
  /// One bound GPU. Kernels read it through a pointer, so it never moves.
  struct Device {
    gpu::DeviceBuffer input;   // key_bytes per item
    gpu::DeviceBuffer output;  // one next hop per item
    Copy copy;
    std::optional<u64> generation;  // the FIB generation `copy` holds
  };

  /// `fib` must outlive the manager.
  DeviceFib(Fib& fib, u32 max_items, std::size_t key_bytes)
      : fib_(fib), max_items_(max_items), key_bytes_(key_bytes) {}

  /// Allocate `device`'s buffers and upload the current generation. If the
  /// upload fails, the first shade() uploads again.
  void bind(gpu::GpuDevice& device) {
    auto& d = devices_[device.gpu_id()];
    if (d != nullptr) return;
    d = std::make_unique<Device>(Device{device.alloc(max_items_ * key_bytes_),
                                        device.alloc(max_items_ * sizeof(route::NextHop))});
    refresh(*d, {device});
  }

  /// shade_lookups() with `make_kernel(device, offset, items)`, once the
  /// copy holds the published generation. A failed refresh fails the
  /// batch, so the router's retry and CPU fallback serve it.
  template <typename MakeKernel>
  core::ShadeOutcome shade(core::GpuContext& gpu, std::span<core::ShaderJob* const> jobs,
                           Picos submit_time, const MakeKernel& make_kernel) {
    Device& d = *devices_.at(gpu.device->gpu_id());
    const gpu::GpuResult up = refresh(d, {*gpu.device, gpu.stream_for(0), submit_time});
    if (!up.ok()) return {up.status, up.end};
    return shade_lookups(gpu, jobs, up.end, d.input, key_bytes_, d.output, sizeof(route::NextHop),
                         [&](u32 offset, u32 items) { return make_kernel(d, offset, items); });
  }

 private:
  /// Upload the published generation if a commit moved it; lock-free. The
  /// generation is read before the table is pinned, so a racing commit
  /// costs one more upload next batch, never a stale copy recorded as
  /// current. A failed or partial upload leaves the copy holding none.
  gpu::GpuResult refresh(Device& d, TableUpload up) {
    const u64 generation = fib_.generation();
    if (generation == d.generation) return up.result;
    d.generation.reset();
    d.copy.upload(up, *fib_.read());
    if (up.result.ok()) d.generation = generation;
    return up.result;
  }

  Fib& fib_;
  u32 max_items_;
  std::size_t key_bytes_;
  std::unordered_map<int, std::unique_ptr<Device>> devices_;
};

}  // namespace ps::apps
