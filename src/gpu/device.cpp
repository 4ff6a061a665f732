#include "gpu/device.hpp"

#include <algorithm>
#include <cstring>
#include <new>
#include <utility>

namespace ps::gpu {

const char* to_string(GpuStatus status) {
  switch (status) {
    case GpuStatus::kOk:           return "ok";
    case GpuStatus::kLaunchFailed: return "launch_failed";
    case GpuStatus::kCopyFailed:   return "copy_failed";
    case GpuStatus::kTimeout:      return "timeout";
    case GpuStatus::kDeviceSick:   return "device_sick";
  }
  return "unknown";
}

DeviceBuffer::DeviceBuffer(GpuDevice* device, std::size_t bytes) : account_(device->mem_) {
  assert(device != nullptr);
  MutexLock lock(account_->mu);  // allocation may race device ops
  if (account_->allocated + bytes > perf::kGpuMemBytes) {
    throw std::bad_alloc();  // past the card's 1.5 GB GDDR5
  }
  storage_ = std::make_unique_for_overwrite<u8[]>(bytes);
  size_ = bytes;
  account_->allocated += bytes;
}

DeviceBuffer::~DeviceBuffer() { release(); }

void DeviceBuffer::release() noexcept {
  if (account_ != nullptr) {
    MutexLock lock(account_->mu);
    account_->allocated -= size_;
  }
  account_.reset();
  storage_.reset();
  size_ = 0;
}

DeviceBuffer& DeviceBuffer::operator=(DeviceBuffer&& other) noexcept {
  if (this != &other) {
    release();
    account_ = std::move(other.account_);
    storage_ = std::move(other.storage_);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

GpuDevice::GpuDevice(int gpu_id, const pcie::Topology& topo,
                     std::shared_ptr<SimtExecutor> executor)
    : gpu_id_(gpu_id),
      node_(topo.node_of_gpu(gpu_id)),
      ioh_(topo.ioh_of_gpu(gpu_id)),
      executor_(executor ? std::move(executor) : std::make_shared<SimtExecutor>()),
      streams_(1, 0) {}

StreamId GpuDevice::create_stream() {
  MutexLock lock(op_mu_);
  streams_.push_back(0);
  return static_cast<StreamId>(streams_.size() - 1);
}

Picos GpuDevice::stream_call_overhead() const {
  return streams_.size() > 1 ? perf::kGpuStreamCallOverhead : 0;
}

GpuStatus GpuDevice::check_fault(std::string_view op_point, GpuStatus op_status) {
  if (injector_ == nullptr) return GpuStatus::kOk;
  if (injector_->should_fire("gpu.sick")) return GpuStatus::kDeviceSick;
  if (injector_->should_fire(op_point)) return op_status;
  if (injector_->should_fire("gpu.timeout")) return GpuStatus::kTimeout;
  return GpuStatus::kOk;
}

void GpuDevice::charge_copy(u64 bytes, perf::Direction dir) {
  if (ledger_ == nullptr) return;
  const Picos occupancy = perf::ioh_copy_occupancy(bytes, dir);
  ledger_->charge({perf::ResourceKind::kGpuCopy, static_cast<u16>(gpu_id_)}, occupancy);
  if (streams_.size() <= 1) {
    // Without "concurrent copy and execution" (section 5.4), the device
    // serializes transfers and kernels: copy time also occupies the
    // execution engine. Multiple streams lift this.
    ledger_->charge({perf::ResourceKind::kGpuExec, static_cast<u16>(gpu_id_)}, occupancy);
  }
  const auto channel = dir == perf::Direction::kHostToDevice ? perf::ResourceKind::kIohH2d
                                                             : perf::ResourceKind::kIohD2h;
  ledger_->charge({channel, static_cast<u16>(ioh_)}, occupancy);
}

GpuResult GpuDevice::memcpy_h2d(DeviceBuffer& dst, std::size_t dst_offset,
                                std::span<const u8> src, StreamId stream, Picos submit_time) {
  MutexLock lock(op_mu_);
  assert(dst_offset + src.size() <= dst.size());
  if (const GpuStatus st = check_fault("gpu.copy", GpuStatus::kCopyFailed);
      st != GpuStatus::kOk) {
    // Failed DMA: the driver call still burns CPU, nothing lands on device.
    perf::charge_cpu_cycles(perf::kGpuDriverCallCycles);
    const Picos start = std::max({submit_time, streams_.at(stream), copy_engine_free_});
    return {st, start, start};
  }
  std::memcpy(dst.data() + dst_offset, src.data(), src.size());
  if (injector_ != nullptr && !src.empty() &&
      injector_->should_fire(fault::Point::kPcieH2dCorrupt)) {
    // Silent PCIe transfer error: a bit lands flipped on the device while
    // the copy still reports kOk. The first byte of the transfer is hit so
    // chaos tests can reason about exactly which staged item is wrong.
    dst.data()[dst_offset] ^= 0x01;
  }
  bytes_h2d_ += src.size();
  charge_copy(src.size(), perf::Direction::kHostToDevice);
  // CPU time spent in the CUDA library (driver call + stream overhead).
  perf::charge_cpu_cycles(perf::kGpuDriverCallCycles +
                          to_seconds(stream_call_overhead()) * perf::kCpuHz);

  const Picos duration =
      perf::pcie_transfer_time(src.size(), perf::Direction::kHostToDevice) +
      stream_call_overhead();
  const Picos start = std::max({submit_time, streams_.at(stream), copy_engine_free_});
  const Picos end = start + duration;
  streams_[stream] = end;
  // Back-to-back copies pipeline their handshakes: the engine frees after
  // the occupancy portion, before the full one-shot latency elapses.
  copy_engine_free_ =
      start + perf::ioh_copy_occupancy(src.size(), perf::Direction::kHostToDevice);
  const GpuResult result{GpuStatus::kOk, start, end};
  if (op_observer_) op_observer_(GpuOp::kH2d, result);
  return result;
}

GpuResult GpuDevice::memcpy_d2h(std::span<u8> dst, const DeviceBuffer& src,
                                std::size_t src_offset, StreamId stream, Picos submit_time) {
  MutexLock lock(op_mu_);
  assert(src_offset + dst.size() <= src.size());
  if (const GpuStatus st = check_fault("gpu.copy", GpuStatus::kCopyFailed);
      st != GpuStatus::kOk) {
    perf::charge_cpu_cycles(perf::kGpuDriverCallCycles);
    const Picos start = std::max({submit_time, streams_.at(stream), copy_engine_free_});
    return {st, start, start};
  }
  std::memcpy(dst.data(), src.data() + src_offset, dst.size());
  bool corrupt_result = pending_bad_result_;  // a lying kernel surfaces here
  pending_bad_result_ = false;
  if (injector_ != nullptr && !dst.empty() &&
      injector_->should_fire(fault::Point::kPcieD2hCorrupt)) {
    corrupt_result = true;
  }
  if (corrupt_result && !dst.empty()) {
    // Flip a bit in the first result byte, status still kOk: the host now
    // holds a wrong value it has no hardware-side reason to distrust.
    dst.data()[0] ^= 0x01;
  }
  bytes_d2h_ += dst.size();
  charge_copy(dst.size(), perf::Direction::kDeviceToHost);
  perf::charge_cpu_cycles(perf::kGpuDriverCallCycles +
                          to_seconds(stream_call_overhead()) * perf::kCpuHz);

  const Picos duration =
      perf::pcie_transfer_time(dst.size(), perf::Direction::kDeviceToHost) +
      stream_call_overhead();
  const Picos start = std::max({submit_time, streams_.at(stream), copy_engine_free_});
  const Picos end = start + duration;
  streams_[stream] = end;
  copy_engine_free_ =
      start + perf::ioh_copy_occupancy(dst.size(), perf::Direction::kDeviceToHost);
  const GpuResult result{GpuStatus::kOk, start, end};
  if (op_observer_) op_observer_(GpuOp::kD2h, result);
  return result;
}

GpuResult GpuDevice::memcpy_d2h_scatter(std::span<const ScatterSeg> segs,
                                        const DeviceBuffer& src, StreamId stream,
                                        Picos submit_time) {
  MutexLock lock(op_mu_);
  u64 total = 0;
  for (const auto& seg : segs) {
    assert(seg.src_offset + seg.dst.size() <= src.size());
    total += seg.dst.size();
  }
  if (const GpuStatus st = check_fault("gpu.copy", GpuStatus::kCopyFailed);
      st != GpuStatus::kOk) {
    perf::charge_cpu_cycles(perf::kGpuDriverCallCycles);
    const Picos start = std::max({submit_time, streams_.at(stream), copy_engine_free_});
    return {st, start, start};
  }
  for (const auto& seg : segs) {
    std::memcpy(seg.dst.data(), src.data() + seg.src_offset, seg.dst.size());
  }
  bool corrupt_result = pending_bad_result_;
  pending_bad_result_ = false;
  if (injector_ != nullptr && total > 0 &&
      injector_->should_fire(fault::Point::kPcieD2hCorrupt)) {
    corrupt_result = true;
  }
  if (corrupt_result && total > 0) {
    for (const auto& seg : segs) {
      if (seg.dst.empty()) continue;
      seg.dst.data()[0] ^= 0x01;
      break;
    }
  }
  bytes_d2h_ += total;
  charge_copy(total, perf::Direction::kDeviceToHost);
  perf::charge_cpu_cycles(perf::kGpuDriverCallCycles +
                          to_seconds(stream_call_overhead()) * perf::kCpuHz);

  const Picos duration = perf::pcie_transfer_time(total, perf::Direction::kDeviceToHost) +
                         stream_call_overhead();
  const Picos start = std::max({submit_time, streams_.at(stream), copy_engine_free_});
  const Picos end = start + duration;
  streams_[stream] = end;
  copy_engine_free_ =
      start + perf::ioh_copy_occupancy(total, perf::Direction::kDeviceToHost);
  const GpuResult result{GpuStatus::kOk, start, end};
  if (op_observer_) op_observer_(GpuOp::kD2h, result);
  return result;
}

GpuResult GpuDevice::launch(const KernelLaunch& kernel, StreamId stream, Picos submit_time,
                            ExecStats* stats_out) {
  MutexLock lock(op_mu_);
  if (const GpuStatus st = check_fault("gpu.launch", GpuStatus::kLaunchFailed);
      st != GpuStatus::kOk) {
    perf::charge_cpu_cycles(perf::kGpuDriverCallCycles);
    const Picos start = std::max({submit_time, streams_.at(stream), exec_engine_free_});
    return {st, start, start};
  }
  const ExecStats stats = executor_->run(kernel.threads, kernel.body, kernel.track_divergence);
  if (stats_out != nullptr) *stats_out = stats;
  if (injector_ != nullptr && injector_->should_fire(fault::Point::kGpuBadResult)) {
    // Miscomputation: the launch reports success but one result is wrong.
    // Deferred to the next D2H because the device cannot know which buffer
    // the kernel treated as output.
    pending_bad_result_ = true;
  }
  ++kernels_launched_;
  perf::charge_cpu_cycles(perf::kGpuDriverCallCycles +
                          to_seconds(stream_call_overhead()) * perf::kCpuHz);

  // Measured divergence overrides the static estimate when tracking is on.
  perf::KernelCost cost = kernel.cost;
  if (kernel.track_divergence) cost.warp_efficiency *= stats.warp_efficiency;

  const Picos exec = perf::gpu_exec_time(kernel.threads, cost);
  const Picos launch = perf::gpu_launch_latency(kernel.threads);
  const Picos duration = launch + exec + stream_call_overhead();
  if (ledger_ != nullptr) {
    // Launching occupies the device front-end: back-to-back small kernels
    // serialize on it, which is what gather/scatter amortizes (§5.4).
    ledger_->charge({perf::ResourceKind::kGpuExec, static_cast<u16>(gpu_id_)}, launch + exec);
  }

  const Picos start = std::max({submit_time, streams_.at(stream), exec_engine_free_});
  const Picos end = start + duration;
  streams_[stream] = end;
  exec_engine_free_ = end;  // one kernel at a time on the device (section 7)
  const GpuResult result{GpuStatus::kOk, start, end};
  if (op_observer_) op_observer_(GpuOp::kKernel, result);
  return result;
}

GpuResult GpuDevice::probe(Picos submit_time) {
  MutexLock lock(op_mu_);
  if (const GpuStatus st = check_fault("gpu.launch", GpuStatus::kLaunchFailed);
      st != GpuStatus::kOk) {
    perf::charge_cpu_cycles(perf::kGpuDriverCallCycles);
    return {st, submit_time, submit_time};
  }
  // A minimal one-thread launch: enough to exercise driver + front-end.
  perf::charge_cpu_cycles(perf::kGpuDriverCallCycles);
  const Picos start = std::max({submit_time, exec_engine_free_});
  const Picos end = start + perf::gpu_launch_latency(1);
  exec_engine_free_ = end;
  return {GpuStatus::kOk, start, end};
}

Picos GpuDevice::synchronize() const {
  MutexLock lock(op_mu_);
  Picos latest = 0;
  for (const Picos tail : streams_) latest = std::max(latest, tail);
  return latest;
}

void GpuDevice::reset_timeline() {
  MutexLock lock(op_mu_);
  std::fill(streams_.begin(), streams_.end(), 0);
  exec_engine_free_ = 0;
  copy_engine_free_ = 0;
}

}  // namespace ps::gpu
