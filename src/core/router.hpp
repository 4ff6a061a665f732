// The PacketShader runtime (sections 5.1, 5.3, 5.4): per-NUMA-node
// partitions of worker threads (packet I/O + pre/post-shading) and one
// master thread (exclusive GPU communication), joined by the master's
// input queue and per-worker output queues.
//
// Implemented optimizations, each independently switchable for ablation:
//  - chunk pipelining: a worker keeps several chunks in flight instead of
//    stalling for the master (Figure 10(a));
//  - gather/scatter: the master dequeues several chunks and shades them in
//    one batch (Figure 10(b));
//  - concurrent copy and execution: multiple CUDA streams overlap PCIe
//    copies with kernel execution (Figure 10(c));
//  - opportunistic offloading (section 7): small chunks (light load) are
//    processed on the worker's CPU for latency, large ones on the GPU.
//
// Overload control and liveness (beyond the paper, which assumes graceful
// degradation):
//  - end-to-end backpressure: the master's queue depth is the congestion
//    signal; above the high watermark workers shrink their RX batch with
//    per-port fair shares, and at saturation chunks divert straight down
//    the CPU path; only when both silicon paths are exhausted does excess
//    load overflow the NIC RX ring — the cheapest drop point;
//  - slow-path admission control: a token bucket plus a memory bound in
//    front of the host stack (refusals are kSlowpathShed drops);
//  - a heartbeat supervisor detects stalled workers/masters within a
//    bounded window, quarantines a wedged worker's NIC queues onto a peer,
//    and re-kicks the thread; audit() proves no packet is ever lost
//    unaccounted through any of it.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>


#include "common/atomic_shim.hpp"
#include "common/cacheline.hpp"
#include "common/heartbeat.hpp"
#include "common/thread_annotations.hpp"
#include "common/spsc_ring.hpp"
#include "core/pipeline.hpp"
#include "core/shader.hpp"
#include "fault/fault_injector.hpp"
#include "gpu/device.hpp"
#include "iengine/engine.hpp"
#include "integrity/integrity.hpp"
#include "slowpath/admission.hpp"
#include "slowpath/host_stack.hpp"
#include "supervise/supervisor.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/tracer.hpp"

namespace ps::core {

struct RouterConfig {
  /// CPU+GPU mode: 3 workers + 1 master per node; CPU-only: 4 workers.
  bool use_gpu = true;

  u32 chunk_capacity = iengine::PacketChunk::kDefaultMaxPackets;

  // --- optimization switches (section 5.4) ---------------------------------
  u32 pipeline_depth = 4;   // chunks in flight per worker (1 = no pipelining)
  u32 gather_max = 8;       // chunks per shading batch (1 = no gather/scatter)
  u32 num_streams = 1;      // >1 enables concurrent copy and execution
  /// Chunks with fewer packets than this are processed on the CPU
  /// (opportunistic offloading); 0 disables (always GPU).
  u32 opportunistic_threshold = 0;

  u32 master_queue_capacity = 64;

  // --- GPU watchdog (fault tolerance) --------------------------------------
  /// Shading attempts per batch before the master declares the batch failed
  /// and re-shades it on the CPU (1 = no retry).
  u32 gpu_max_retries = 3;
  /// Base backoff between retries, doubling per attempt, capped below.
  u32 gpu_backoff_us = 50;
  u32 gpu_backoff_cap_us = 2000;
  /// Consecutive failed batches before the node's device is marked
  /// unhealthy and shading flips to the CPU.
  u32 gpu_fail_threshold = 2;
  /// While unhealthy, probe the device every this many batches; a
  /// successful probe re-admits it.
  u32 gpu_probe_interval_batches = 16;

  // --- end-to-end backpressure (overload control) --------------------------
  /// Reduced RX batch while the master queue is above its high watermark
  /// (GPU mode; the watermarks are fixed fractions of
  /// master_queue_capacity, see router.cpp).
  u32 bp_reduced_batch = 32;

  // --- heartbeat supervisor (liveness) -------------------------------------
  /// The supervisor thread (detection + recovery of hung threads) always
  /// runs; it samples heartbeats every supervisor_interval.
  std::chrono::milliseconds supervisor_interval{2};
  /// Heartbeat silence beyond this declares a worker/master stalled.
  std::chrono::milliseconds supervisor_stall_window{20};

  // --- slow-path admission control -----------------------------------------
  slowpath::AdmissionConfig slowpath_admission{};
};

/// Per-worker counters.
struct WorkerStats {
  u64 chunks = 0;
  u64 packets_in = 0;
  u64 packets_out = 0;
  u64 slow_path = 0;
  u64 cpu_processed = 0;  // packets taken by the opportunistic CPU path
  u64 gpu_processed = 0;
  // --- overload control ----------------------------------------------------
  u64 bp_reduced_batches = 0;  // RX fetches shrunk by the high watermark
  u64 bp_diverted_chunks = 0;  // chunks sent down the CPU path because the
                               // master queue was saturated at dispatch time
  u64 adopted_chunks = 0;      // chunks drained from a quarantined peer
  /// Dropped packets, bucketed by cause (indexed by iengine::DropReason).
  std::array<u64, iengine::kNumDropReasons> drops_by_reason{};

  u64 drops(iengine::DropReason reason) const {
    return drops_by_reason[static_cast<std::size_t>(reason)];
  }
  /// Total drops across all reasons (the old `dropped` counter).
  u64 dropped() const {
    return std::accumulate(drops_by_reason.begin(), drops_by_reason.end(), u64{0});
  }
};

/// Per-node GPU watchdog counters (master-thread owned, mutex-published).
struct GpuHealthStats {
  u64 batches = 0;           // shading batches attempted
  u64 retries = 0;           // extra shade attempts after a failure
  u64 failed_batches = 0;    // batches that exhausted the retry budget
  u64 cpu_fallback_chunks = 0;  // chunks re-shaded on the CPU by the master
  u64 trips = 0;             // healthy -> unhealthy transitions
  u64 recoveries = 0;        // unhealthy -> healthy transitions
  u64 probes = 0;            // probe attempts while unhealthy
  bool healthy = true;
};

/// Packet-conservation identity over everything the engine accepted:
///   rx == tx + dropped + slow_path + in_flight.
/// After stop() in_flight is zero and balanced() must hold — stop()
/// asserts it in debug builds, chaos tests assert it always. Wire-side
/// losses (RX ring full, carrier out) happen before rx and are accounted
/// separately in the NIC queue stats.
struct ConservationAudit {
  u64 rx = 0;         // packets workers fetched from the rings
  u64 tx = 0;         // packets transmitted
  u64 dropped = 0;    // sum over DropReason buckets
  u64 slow_path = 0;  // packets consumed by the slow path
  u64 in_flight = 0;  // packets in jobs still inside the pipeline
  bool balanced() const { return rx == tx + dropped + slow_path + in_flight; }
};

class Router {
 public:
  /// `engine` and `gpus` outlive the router. `gpus` holds one device per
  /// NUMA node (empty in CPU-only mode). The router attaches workers to
  /// queues NUMA-locally: worker k of node n drains queue k of every port
  /// on node n (section 4.5 RSS confinement).
  Router(iengine::PacketIoEngine& engine, std::vector<gpu::GpuDevice*> gpus, Shader& shader,
         RouterConfig config);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Attach the slow-path host stack: packets with a kSlowPath verdict are
  /// handed to it, and any response it builds (e.g. ICMP Time Exceeded)
  /// goes back out of the ingress port. Call before start(); the stack
  /// must outlive the router. Null detaches. Admission control
  /// (config.slowpath_admission) gates entry: refusals become
  /// DropReason::kSlowpathShed.
  void set_host_stack(slowpath::HostStack* stack) { host_stack_ = stack; }

  /// Spawn worker and master threads (and the heartbeat supervisor) and
  /// start forwarding.
  void start();

  /// Stop threads and join them. Idempotent. Asserts the conservation
  /// audit in debug builds.
  void stop();

  /// Aggregate statistics over all workers. Safe to call while the router
  /// runs (counters are single-writer relaxed atomics): the snapshot is
  /// not an instantaneous cut across workers, but every value in it was
  /// current at the moment it was read.
  WorkerStats total_stats() const;

  /// Packet-conservation audit. Exact once the router is stopped;
  /// a racy-but-indicative snapshot while it runs.
  ConservationAudit audit() const;

  /// Liveness: the heartbeat supervisor (stall events, per-thread health).
  /// Workers register first (supervisor thread id == worker id), then
  /// masters (id == num_workers() + node).
  const supervise::Supervisor& supervisor() const { return supervisor_; }

  /// Slow-path admission accounting (admitted / shed by rate / by queue).
  slowpath::AdmissionStats slowpath_admission_stats() const;

  /// Snapshot of the attached host stack's counters, taken under the same
  /// lock the workers hold while feeding it — the only race-free way to
  /// observe the stack while the router runs (HostStack itself is
  /// unsynchronized by design). Zeroes when no stack is attached.
  slowpath::HostStackStats host_stack_stats() const;

  /// Snapshot of node `node`'s GPU watchdog state.
  GpuHealthStats gpu_health(int node) const;

  /// Route fault-injection checks ("core.master_queue", the hang points)
  /// through `injector`. Call before start(); null disables. The injector
  /// must outlive the router.
  void set_fault_injector(fault::FaultInjector* injector) { injector_ = injector; }

  /// Attach the data-plane integrity layer (null disables, the default —
  /// a disabled layer costs one pointer test per boundary). With a checker
  /// attached the router re-checks each packet's CRC stamp at the RX,
  /// gather, scatter, and pre-TX boundaries (corrupted packets are
  /// quarantined: one CPU re-shade, then DropReason::kIntegrityFail), and
  /// the master shadow-verifies sampled GPU batches against the CPU path,
  /// escalating to every batch — and ultimately tripping the device into
  /// the gpu_health CPU-only fallback — on mismatches. Call before
  /// start(), and before set_telemetry() so the integrity.* probes get
  /// registered; the checker must outlive the router.
  void set_integrity(integrity::IntegrityChecker* checker) {
    pipeline_ = Pipeline(&shader_, checker);
  }

  /// Publish this router's counters into `registry` under the canonical
  /// names (see README "Exported metrics"): router.*, gpu.node<N>.*,
  /// slowpath.*, supervisor.*, nic.port<P>.*, engine.tx_drops. Registers
  /// pull-model probes over the existing single-writer atomics, so
  /// registry->snapshot() is race-free while traffic flows. Call before
  /// start(). The probes capture `this`: either the router must outlive
  /// the registry's last snapshot, or a rebuilt router re-registers the
  /// same names (probe re-registration swaps in place). Null detaches
  /// nothing (no-op).
  void set_telemetry(telemetry::MetricsRegistry* registry);

  /// Attach a pipeline tracer; every chunk then gets stamped at the eight
  /// Fig-12 stage boundaries (tracer->set_enabled gates the cost). Call
  /// before start(); the tracer must outlive the router. Null detaches.
  void set_tracer(telemetry::PipelineTracer* tracer);
  telemetry::PipelineTracer* tracer() const { return tracer_; }

  int workers_per_node() const { return workers_per_node_; }
  int num_workers() const { return static_cast<int>(workers_.size()); }

 private:
  struct NodeRuntime {
    /// Worker->master hand-off: one lock-free SPSC lane per worker of this
    /// node (worker k pushes lane k = its node_slot). Per-worker FIFO,
    /// cross-worker round-robin — see SpscFanIn's ordering contract.
    std::unique_ptr<SpscFanIn<ShaderJob*>> master_in;
    GpuContext gpu;

    /// Released by the supervisor to un-park a master wedged at
    /// fault::Point::kMasterHang (the "re-kick").
    // mc: router.hang_release -- supervisor release latch; parked thread polls
    ps::atomic<bool> hang_release{false};
    int supervise_id = -1;

    /// Batch whose spans the device-op observer stamps (H2D/kernel/D2H).
    /// Master-thread only: set around shade_batch, and the observer runs
    /// on the master thread too (device ops are synchronous).
    std::span<ShaderJob* const> trace_batch{};

    // Watchdog state. Counters are written only by the node's master
    // thread; the mutex orders them for gpu_health() readers.
    mutable Mutex health_mu;
    GpuHealthStats health GUARDED_BY(health_mu);
    u32 consecutive_failures = 0;     // master-thread only
    u32 batches_since_probe = 0;      // master-thread only

    ShadowState shadow;  // master-thread only; scratch reserved at construction
  };

  /// Internal form of WorkerStats: single-writer relaxed atomics. Each
  /// slot is written by exactly one worker thread; making the counters
  /// atomic lets total_stats() / the supervisor / tests sample them while
  /// traffic flows without a data race or a hot-path lock.
  struct WorkerCounters {
    // mc: router.stats -- single-writer relaxed per-worker counters
    ps::atomic<u64> chunks{0};
    // mc: router.stats
    ps::atomic<u64> packets_in{0};
    // mc: router.stats
    ps::atomic<u64> packets_out{0};
    // mc: router.stats
    ps::atomic<u64> slow_path{0};
    // mc: router.stats
    ps::atomic<u64> cpu_processed{0};
    // mc: router.stats
    ps::atomic<u64> gpu_processed{0};
    // mc: router.stats
    ps::atomic<u64> bp_reduced_batches{0};
    // mc: router.stats
    ps::atomic<u64> bp_diverted_chunks{0};
    // mc: router.stats
    ps::atomic<u64> adopted_chunks{0};
    /// Packets fetched but not yet accounted out by finish_job. Written
    /// only by the owning worker (finish_job always runs there), so the
    /// telemetry in-flight gauge stays single-writer; the audit()'s
    /// job-pool scan is the independent cross-check.
    // mc: router.stats
    ps::atomic<u64> in_flight_packets{0};
    // mc: router.stats
    std::array<ps::atomic<u64>, iengine::kNumDropReasons> drops_by_reason{};

    WorkerStats snapshot() const {
      WorkerStats s;
      s.chunks = chunks.load(std::memory_order_relaxed);
      s.packets_in = packets_in.load(std::memory_order_relaxed);
      s.packets_out = packets_out.load(std::memory_order_relaxed);
      s.slow_path = slow_path.load(std::memory_order_relaxed);
      s.cpu_processed = cpu_processed.load(std::memory_order_relaxed);
      s.gpu_processed = gpu_processed.load(std::memory_order_relaxed);
      s.bp_reduced_batches = bp_reduced_batches.load(std::memory_order_relaxed);
      s.bp_diverted_chunks = bp_diverted_chunks.load(std::memory_order_relaxed);
      s.adopted_chunks = adopted_chunks.load(std::memory_order_relaxed);
      for (std::size_t r = 0; r < iengine::kNumDropReasons; ++r) {
        s.drops_by_reason[r] = drops_by_reason[r].load(std::memory_order_relaxed);
      }
      return s;
    }
  };

  struct WorkerRuntime {
    int id = 0;
    int node = 0;
    int core = 0;
    /// This worker's lane index in its node's master_in fan-in.
    int node_slot = 0;
    iengine::IoHandle* handle = nullptr;
    std::unique_ptr<SpscRing<ShaderJob*>> out_queue;  // master -> this worker
    /// Edge-triggered nap for the idle path: the master notifies after
    /// pushing results to out_queue, so a worker parked between polls
    /// wakes for the scatter immediately instead of after kIdleSleep.
    WakeSignal wake;
    std::vector<JobPtr> job_pool;
    /// Worker-thread-local staging, sized once in the constructor so the
    /// scatter sweep and the batched TX settle stay allocation-free.
    std::vector<ShaderJob*> scatter_scratch;
    std::vector<ShaderJob*> finish_scratch;

    // --- liveness / quarantine (supervisor handshake) ----------------------
    // mc: router.hang_release
    ps::atomic<bool> hang_release{false};
    /// While true this worker does not poll its own NIC queues (a peer
    /// adopted them after a detected hang). Set before the hang is
    /// released, cleared only after the adopter acknowledged letting go.
    // mc: router.quarantined -- supervisor-written latch; owner polls acquire
    ps::atomic<bool> quarantined{false};
    /// Exclusive right to RX on this worker's handle. A stall verdict can
    /// be a false positive — a live worker merely starved of cycles, still
    /// mid-poll when the supervisor hands its queues away — so the
    /// single-consumer discipline cannot rest on the verdict alone: every
    /// poll (owner or adopter) must win this token first. Uncontended in
    /// steady state, so it costs one exchange per loop iteration.
    // mc: router.io_token -- acq_rel exchange mutex for RX polling rights
    ps::atomic<bool> io_token{false};
    /// Wedged peer whose handle this worker should drain in addition to
    /// its own (quarantine adoption). Written by the supervisor.
    // mc: router.adopt -- supervisor release-publishes the adoption order
    ps::atomic<WorkerRuntime*> adopt{nullptr};
    /// Last `adopt` value this worker actually acted on, published every
    /// iteration — the supervisor's proof that the adopter has let go
    /// before the owner resumes (single-consumer discipline preserved).
    // mc: router.adopt_ack -- adopter release-publishes; supervisor acquires
    ps::atomic<WorkerRuntime*> adopt_ack{nullptr};
    int adopter_id = -1;  // supervisor-thread only
    int supervise_id = -1;

    bool bp_active = false;  // worker-thread-local watermark hysteresis
  };

  void worker_loop(WorkerRuntime& worker);
  /// Sweep this worker's scatter ring: post-shade + verify + stage TX for
  /// every result the master has pushed, then settle the staged doorbells
  /// in one flush. Called at several points inside one worker_loop
  /// iteration so results never wait out a whole RX + pre-shade leg.
  /// Returns true when at least one job was processed.
  bool drain_scatter(WorkerRuntime& worker, WorkerCounters& st, u32& inflight);
  void master_loop(int node);
  /// One watchdog-supervised shading pass over `batch`: retry with
  /// exponential backoff, trip to unhealthy on repeated failure, probe for
  /// recovery, and fall back to shade_cpu so no batch is ever lost.
  void shade_batch(NodeRuntime& node, std::span<ShaderJob* const> batch);
  void cpu_fallback_batch(NodeRuntime& node, std::span<ShaderJob* const> batch);
  ShaderJob* acquire_job(WorkerRuntime& worker);
  void release_job(WorkerRuntime& worker, ShaderJob* job);
  /// Everything finish used to do up to (and including) queueing the
  /// chunk's frames on their TX rings — but the per-(port,queue) doorbell
  /// is *staged*, not rung. Callers follow with settle_finishes().
  void stage_finish(WorkerRuntime& worker, ShaderJob* job);
  /// Ring the staged doorbells (one per touched port across the whole
  /// batch), then close each job's trace span and recycle it.
  void settle_finishes(WorkerRuntime& worker, std::span<ShaderJob* const> jobs);
  /// stage_finish + settle_finishes for a single chunk — the CPU paths,
  /// where there is no batch to amortize the doorbell across.
  void finish_job(WorkerRuntime& worker, ShaderJob* job);
  void process_cpu_only(WorkerRuntime& worker, ShaderJob* job);
  /// Fetch one chunk from `handle` and route it through the pipeline
  /// (GPU push with CPU fallback, or the CPU-only path). Returns true on
  /// progress. `adopted` marks chunks drained on a quarantined peer's
  /// behalf (for stats). `divert_cpu` skips the master queue entirely —
  /// the deterministic opportunistic fallback when the queue is saturated.
  bool recv_and_dispatch(WorkerRuntime& worker, iengine::IoHandle* handle, u32 batch_cap,
                         u32 per_queue_cap, u32& inflight, bool adopted, bool divert_cpu);
  /// Park the calling thread (no heartbeats) until the supervisor releases
  /// it or the router stops — the deterministic model of a hung thread.
  void simulate_hang(ps::atomic<bool>& release);

  // Supervisor-thread recovery policy.
  void on_worker_stall(int worker_id);
  void on_worker_recover(int worker_id);
  void on_master_stall(int node);

  /// Register the canonical probe set into telemetry_ (set_telemetry impl).
  void register_metrics();

  iengine::PacketIoEngine& engine_;
  Shader& shader_;
  /// The stage bodies shared with ModelDriver (verdict writes stay with
  /// the worker that owns the job).
  Pipeline pipeline_;
  RouterConfig config_;
  int workers_per_node_;

  // The host stack is single-threaded, as Linux's is per-softirq: every
  // worker funnels its kSlowPath packets through this one lock.
  mutable Mutex host_stack_mu_;
  slowpath::HostStack* host_stack_ PT_GUARDED_BY(host_stack_mu_) = nullptr;
  slowpath::Admission slowpath_admission_ GUARDED_BY(host_stack_mu_);
  fault::FaultInjector* injector_ = nullptr;
  telemetry::MetricsRegistry* telemetry_ = nullptr;
  telemetry::PipelineTracer* tracer_ = nullptr;

  std::vector<std::unique_ptr<NodeRuntime>> nodes_;  // NodeRuntime owns a mutex
  std::vector<std::unique_ptr<WorkerRuntime>> workers_;  // owns atomics
  /// Per-worker counters, cacheline-isolated (§4.4 discipline: each slot
  /// is written on every chunk by its worker).
  std::vector<CacheAligned<WorkerCounters>> stats_;
  /// One heartbeat per worker, then one per master; cacheline-isolated
  /// (each is written every loop iteration by its thread).
  std::vector<CacheAligned<Heartbeat>> heartbeats_;
  supervise::Supervisor supervisor_;
  std::vector<std::thread> threads_;
  // mc: router.running -- release start/stop latch; loops load acquire
  ps::atomic<bool> running_{false};
  bool started_ = false;
};

}  // namespace ps::core
