// Functional SIMT executor: runs kernel bodies over a grid of GPU threads
// on a host thread pool, preserving the warp structure (warp id / lane id)
// and tracking code-path divergence per warp.
//
// This is the "silicon" of the simulated GTX480: results are computed for
// real; time is modeled separately by GpuDevice using perf::gpu_exec_time.
#pragma once

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "common/atomic_shim.hpp"
#include "common/parallel.hpp"
#include "common/thread_annotations.hpp"
#include "common/types.hpp"
#include "perf/calibration.hpp"

namespace ps::gpu {

/// Execution context handed to a kernel body for one GPU thread.
class ThreadCtx {
 public:
  ThreadCtx(u32 tid, ps::atomic<u64>* path_words)
      : tid_(tid), path_words_(path_words) {}

  u32 thread_id() const { return tid_; }
  u32 warp_id() const { return tid_ / perf::kGpuWarpSize; }
  u32 lane_id() const { return tid_ % perf::kGpuWarpSize; }

  /// Record which code path this thread took at a divergent branch.
  /// Threads of one warp recording different values model a diverged warp:
  /// the SIMT hardware must execute every distinct path with masking
  /// (section 2.1), which the executor reports as reduced warp efficiency.
  void record_path(u8 path) {
    if (path_words_ == nullptr) return;
    // One bit per distinct path id (0..63) per warp.
    path_words_[warp_id()].fetch_or(u64{1} << (path & 63), std::memory_order_relaxed);
  }

 private:
  u32 tid_;
  ps::atomic<u64>* path_words_;
};

using KernelBody = std::function<void(ThreadCtx&)>;

struct ExecStats {
  u32 threads = 0;
  u32 warps = 0;
  /// 1.0 = no divergence; 1/k when warps take k distinct paths on average.
  double warp_efficiency = 1.0;
};

/// Fixed-size worker pool executing kernel grids. One executor is shared
/// per GpuDevice; launches are serialized per device, matching the paper's
/// one-kernel-at-a-time constraint (section 7) unless concurrent-kernel
/// mode is enabled at the device level.
class SimtExecutor {
 public:
  /// `workers` = 0 runs kernels inline on the calling thread.
  explicit SimtExecutor(unsigned workers = default_worker_count());
  ~SimtExecutor();

  SimtExecutor(const SimtExecutor&) = delete;
  SimtExecutor& operator=(const SimtExecutor&) = delete;

  /// Run `body` for thread ids [0, threads); returns divergence stats.
  /// `track_divergence` enables per-warp path tracking (small overhead).
  ExecStats run(u32 threads, const KernelBody& body, bool track_divergence = false);

  static unsigned default_worker_count() { return worker_threads(); }

 private:
  struct Task {
    u32 begin = 0;
    u32 end = 0;
  };

  void worker_loop();
  static void run_range(const KernelBody& body, ps::atomic<u64>* path_words,
                        u32 begin, u32 end);

  // Launch payload: published by run() in the same mu_ critical section
  // that bumps generation_, copied out by each worker in the critical
  // section where it observes the new generation. A worker that wakes
  // late — after the launcher already completed a launch without it —
  // therefore can never race the next launch's publication.
  const KernelBody* body_ GUARDED_BY(mu_) = nullptr;
  ps::atomic<u64>* path_words_ GUARDED_BY(mu_) = nullptr;
  u32 total_threads_ GUARDED_BY(mu_) = 0;
  u32 total_blocks_ GUARDED_BY(mu_) = 0;
  // mc: gpu.next_block -- relaxed block-claim ticket shared by the pool
  ps::atomic<u32> next_block_{0};
  // mc: gpu.blocks_done -- acq_rel completion count; launcher acquires
  ps::atomic<u32> blocks_done_{0};

  Mutex launch_mu_;  // serializes launches (one kernel at a time)

  Mutex mu_;
  CondVar work_cv_;
  CondVar done_cv_;
  u64 generation_ GUARDED_BY(mu_) = 0;
  unsigned active_workers_ GUARDED_BY(mu_) = 0;
  bool stopping_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace ps::gpu
