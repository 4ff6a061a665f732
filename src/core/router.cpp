#include "core/router.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "telemetry/alloc_stats.hpp"

namespace ps::core {

namespace {
constexpr std::chrono::microseconds kIdleSleep{20};
/// Master wait quantum: short enough that an idle master still heartbeats
/// well inside any sane stall window.
constexpr std::chrono::milliseconds kMasterIdleTick{1};
/// Park quantum for a simulated hang.
constexpr std::chrono::microseconds kHangPollSleep{100};
/// Master-queue depth, as a fraction of its capacity, above which a worker
/// shrinks its RX batch to bp_reduced_batch with per-port fair shares.
constexpr double kBpHighWatermark = 0.75;
/// Depth fraction below which the worker returns to full batches
/// (hysteresis, so the batch size does not flap at the threshold).
constexpr double kBpLowWatermark = 0.25;
}

Router::Router(iengine::PacketIoEngine& engine, std::vector<gpu::GpuDevice*> gpus,
               Shader& shader, RouterConfig config)
    : engine_(engine),
      shader_(shader),
      pipeline_(&shader, nullptr),
      config_(config),
      slowpath_admission_(config.slowpath_admission),
      supervisor_({config.supervisor_interval, config.supervisor_stall_window}) {
  const auto& topo = engine.topology();
  workers_per_node_ = config_.use_gpu ? topo.cores_per_node - 1 : topo.cores_per_node;
  assert(workers_per_node_ > 0);

  nodes_.reserve(static_cast<std::size_t>(topo.num_nodes));
  for (int n = 0; n < topo.num_nodes; ++n) {
    auto& node = *nodes_.emplace_back(std::make_unique<NodeRuntime>());
    if (config_.use_gpu) {
      assert(static_cast<std::size_t>(n) < gpus.size() && gpus[static_cast<std::size_t>(n)]);
      // Lock-free hand-off: one SPSC lane per worker of this node, the
      // configured capacity split across them (watermarks read the
      // aggregate, so the backpressure arithmetic is unchanged).
      node.master_in = std::make_unique<SpscFanIn<ShaderJob*>>(
          static_cast<std::size_t>(workers_per_node_), config_.master_queue_capacity);
      node.shadow.scratch.reserve(std::size_t{config_.chunk_capacity} *
                                  ShaderJob::kStagingBytesPerItem);
      node.gpu.device = gpus[static_cast<std::size_t>(n)];
      node.gpu.streams.push_back(gpu::kDefaultStream);
      for (u32 s = 1; s < config_.num_streams; ++s) {
        node.gpu.streams.push_back(node.gpu.device->create_stream());
      }
    }
  }

  // Worker k of node n drains RX queue k of every port on node n — the
  // NUMA-local RSS confinement of section 4.5.
  for (int n = 0; n < topo.num_nodes; ++n) {
    for (int k = 0; k < workers_per_node_; ++k) {
      auto worker = std::make_unique<WorkerRuntime>();
      worker->id = static_cast<int>(workers_.size());
      worker->node = n;
      worker->node_slot = k;
      worker->core = n * topo.cores_per_node + k;

      std::vector<iengine::QueueRef> queues;
      for (int port = 0; port < topo.num_ports(); ++port) {
        if (topo.node_of_port(port) != n) continue;
        queues.push_back({port, static_cast<u16>(k)});
      }
      worker->handle = engine_.attach(worker->core, std::move(queues));
      worker->out_queue = std::make_unique<SpscRing<ShaderJob*>>(
          std::max<u32>(config_.pipeline_depth * 2, 16));
      // Scatter-sweep + doorbell-settle staging, sized to the output ring
      // so the steady state never grows them.
      worker->scatter_scratch.resize(worker->out_queue->capacity());
      worker->finish_scratch.reserve(worker->out_queue->capacity());
      workers_.push_back(std::move(worker));
    }
  }
  stats_ = std::vector<CacheAligned<WorkerCounters>>(workers_.size());

  // Liveness: one heartbeat per worker, then one per master, supervised
  // with the router's recovery policy (quarantine + kick for workers,
  // re-kick for masters).
  const std::size_t num_masters = config_.use_gpu ? nodes_.size() : 0;
  heartbeats_ = std::vector<CacheAligned<Heartbeat>>(workers_.size() + num_masters);
  for (auto& owned : workers_) {
    const int w = owned->id;
    owned->supervise_id = supervisor_.add_thread(
        "worker." + std::to_string(w), supervise::ThreadKind::kWorker,
        &heartbeats_[static_cast<std::size_t>(w)].value,
        [this, w](const supervise::StallEvent&) { on_worker_stall(w); },
        [this, w](int) { on_worker_recover(w); });
  }
  for (std::size_t n = 0; n < num_masters; ++n) {
    nodes_[n]->supervise_id = supervisor_.add_thread(
        "master." + std::to_string(n), supervise::ThreadKind::kMaster,
        &heartbeats_[workers_.size() + n].value,
        [this, n](const supervise::StallEvent&) { on_master_stall(static_cast<int>(n)); });
  }
}

Router::~Router() { stop(); }

ShaderJob* Router::acquire_job(WorkerRuntime& worker) {
  for (auto& owned : worker.job_pool) {
    if (owned->worker_id == -1) {  // -1 marks "free"
      owned->worker_id = worker.id;
      owned->reset();
      return owned.get();
    }
  }
  worker.job_pool.push_back(std::make_unique<ShaderJob>(config_.chunk_capacity));
  worker.job_pool.back()->worker_id = worker.id;
  return worker.job_pool.back().get();
}

void Router::release_job(WorkerRuntime& worker, ShaderJob* job) {
  (void)worker;
  job->worker_id = -1;
}

void Router::stage_finish(WorkerRuntime& worker, ShaderJob* job) {
  auto& st = *stats_[static_cast<std::size_t>(worker.id)];
  pipeline_.pre_tx(job->chunk);  // before slow-path delivery too
  for (u32 i = 0; i < job->chunk.count(); ++i) {
    if (job->chunk.verdict(i) != iengine::PacketVerdict::kSlowPath) continue;
    if (host_stack_ != nullptr) {
      std::optional<net::FrameBuffer> reply;
      bool admitted;
      {
        MutexLock lock(host_stack_mu_);
        admitted = slowpath_admission_.admit(host_stack_->local_deliveries().size());
        if (admitted) reply = host_stack_->handle(job->chunk.packet(i), job->chunk.in_port);
      }
      if (!admitted) {
        // Admission refused (token bucket dry or the stack at its memory
        // bound): shed at the door, before the stack spends cycles or
        // memory. The packet becomes an accounted drop, not a slow_path.
        job->chunk.set_drop(i, iengine::DropReason::kSlowpathShed);
        continue;
      }
      st.slow_path.fetch_add(1, std::memory_order_relaxed);
      // Errors (ICMP etc.) go back out of the ingress port.
      if (reply) worker.handle->send_frame(job->chunk.in_port, *reply);
    } else {
      st.slow_path.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Queue frames first: a TX ring that stays full after the retry budget
  // marks the packet kDrop/kRingFull, so drops are tallied after the
  // attempt. The doorbell itself is staged — settle_finishes() rings it
  // once per touched port for the whole batch.
  st.packets_out.fetch_add(worker.handle->stage_chunk_tx(job->chunk),
                           std::memory_order_relaxed);
  for (u32 i = 0; i < job->chunk.count(); ++i) {
    if (job->chunk.verdict(i) == iengine::PacketVerdict::kDrop) {
      st.drops_by_reason[static_cast<std::size_t>(job->chunk.drop_reason(i))].fetch_add(
          1, std::memory_order_relaxed);
    }
  }
  st.in_flight_packets.fetch_sub(job->chunk.count(), std::memory_order_relaxed);
}

void Router::settle_finishes(WorkerRuntime& worker, std::span<ShaderJob* const> jobs) {
  worker.handle->flush_tx();
  // Spans close only after the doorbell: kTxDoorbell brackets the actual
  // ring, not the staging, so fig12's tail stays honest under batching.
  for (ShaderJob* job : jobs) {
    if (tracer_ != nullptr) tracer_->end_span(job->trace_slot);
    release_job(worker, job);
  }
}

void Router::finish_job(WorkerRuntime& worker, ShaderJob* job) {
  stage_finish(worker, job);
  const std::array<ShaderJob*, 1> one{job};
  settle_finishes(worker, {one.data(), one.size()});
}

void Router::process_cpu_only(WorkerRuntime& worker, ShaderJob* job) {
  stats_[static_cast<std::size_t>(worker.id)]->cpu_processed.fetch_add(
      job->chunk.count(), std::memory_order_relaxed);
  if (tracer_ != nullptr) tracer_->mark_cpu_path(job->trace_slot);
  pipeline_.run_cpu(job->chunk);
  if (tracer_ != nullptr) tracer_->stamp(job->trace_slot, telemetry::Stage::kScatter);
  finish_job(worker, job);
}

void Router::simulate_hang(ps::atomic<bool>& release) {
  while (running_.load(std::memory_order_acquire) &&
         !release.load(std::memory_order_acquire)) {
    // pslint: allow(hot-sleep) -- deterministic hang simulation: the whole
    // point is that this thread makes no progress until released.
    std::this_thread::sleep_for(kHangPollSleep);
  }
  release.store(false, std::memory_order_relaxed);
}

bool Router::recv_and_dispatch(WorkerRuntime& worker, iengine::IoHandle* handle, u32 batch_cap,
                               u32 per_queue_cap, u32& inflight, bool adopted, bool divert_cpu) {
  auto& st = *stats_[static_cast<std::size_t>(worker.id)];
  auto& node = *nodes_[static_cast<std::size_t>(worker.node)];
  ShaderJob* job = acquire_job(worker);
  u32 n;
  n = handle->recv_chunk(job->chunk, batch_cap, per_queue_cap);
  if (n == 0) {
    release_job(worker, job);
    return false;
  }
  st.chunks.fetch_add(1, std::memory_order_relaxed);
  st.packets_in.fetch_add(n, std::memory_order_relaxed);
  st.in_flight_packets.fetch_add(n, std::memory_order_relaxed);
  if (tracer_ != nullptr) job->trace_slot = tracer_->begin_span(n);
  if (adopted) st.adopted_chunks.fetch_add(1, std::memory_order_relaxed);
  if (worker.bp_active) st.bp_reduced_batches.fetch_add(1, std::memory_order_relaxed);
  pipeline_.admit(job->chunk);

  const bool take_cpu_path =
      !config_.use_gpu ||
      (config_.opportunistic_threshold != 0 && n < config_.opportunistic_threshold);
  if (take_cpu_path) {
    process_cpu_only(worker, job);
    return true;
  }
  pipeline_.pre(*job);
  const bool push_ok =
      !divert_cpu &&
      (injector_ == nullptr || !injector_->should_fire("core.master_queue")) &&
      node.master_in->try_push(static_cast<std::size_t>(worker.node_slot), job);
  if (push_ok) {
    st.gpu_processed.fetch_add(n, std::memory_order_relaxed);
    ++inflight;
  } else {
    // Master back-pressure (queue saturated at dispatch time, a lost
    // try_push race, or injected queue overflow): shade on the CPU rather
    // than stall — the degenerate form of opportunistic offloading.
    // pre_shade already rewrote headers, so re-shade the gathered input
    // instead of re-running process_cpu (which would, e.g., decrement TTL
    // again).
    if (divert_cpu) st.bp_diverted_chunks.fetch_add(1, std::memory_order_relaxed);
    st.cpu_processed.fetch_add(n, std::memory_order_relaxed);
    if (tracer_ != nullptr) tracer_->mark_cpu_path(job->trace_slot);
    shader_.shade_cpu(*job);
    job->shaded_on_cpu = true;
    pipeline_.apply(*job);
    if (tracer_ != nullptr) tracer_->stamp(job->trace_slot, telemetry::Stage::kScatter);
    finish_job(worker, job);
  }
  return true;
}

bool Router::drain_scatter(WorkerRuntime& worker, WorkerCounters& st, u32& inflight) {
  // The sweep is batched twice over: pop_batch drains the ring in one
  // pass, and every chunk's TX is staged so settle_finishes below rings
  // one doorbell per touched port for the whole sweep instead of one per
  // chunk. worker_loop calls this between its own pipeline stages (not
  // just once per iteration) so a result that lands while this worker is
  // mid-RX or mid-pre-shade is picked up at the next stage boundary
  // instead of waiting out the rest of the iteration.
  bool progress = false;
  auto& finished = worker.finish_scratch;
  finished.clear();
  std::size_t swept;
  while ((swept = worker.out_queue->pop_batch(worker.scatter_scratch.data(),
                                              worker.scatter_scratch.size())) > 0) {
    for (std::size_t j = 0; j < swept; ++j) {
      ShaderJob* job = worker.scatter_scratch[j];
      pipeline_.apply(*job);
      if (job->shaded_on_cpu) {
        // The master's GPU failed this batch, shadow verification
        // quarantined its results, or the scatter check re-shaded it: the
        // packets were shaded on the CPU, so re-attribute them.
        st.gpu_processed.fetch_sub(job->chunk.count(), std::memory_order_relaxed);
        st.cpu_processed.fetch_add(job->chunk.count(), std::memory_order_relaxed);
      }
      if (tracer_ != nullptr) tracer_->stamp(job->trace_slot, telemetry::Stage::kScatter);
      stage_finish(worker, job);
      // pslint: allow(steady-state-growth) -- 'finished' aliases
      // finish_scratch, reserved to out_queue capacity at construction
      finished.push_back(job);
      --inflight;
    }
    progress = true;
  }
  if (!finished.empty()) {
    settle_finishes(worker, {finished.data(), finished.size()});
    finished.clear();
  }
  return progress;
}

void Router::worker_loop(WorkerRuntime& worker) {
  auto& st = *stats_[static_cast<std::size_t>(worker.id)];
  auto& node = *nodes_[static_cast<std::size_t>(worker.node)];
  auto& hb = heartbeats_[static_cast<std::size_t>(worker.id)].value;
  u32 inflight = 0;

  while (running_.load(std::memory_order_acquire) || inflight > 0) {
    // The beat leads the iteration and the hang point follows it
    // immediately: every poll this thread ever made happens-before its
    // latest published beat, which is what lets the supervisor hand the
    // queues to a peer race-free once the beats go silent.
    hb.beat();
    if (injector_ != nullptr && injector_->should_fire(fault::Point::kWorkerHang)) {
      simulate_hang(worker.hang_release);
      continue;  // re-read quarantine state before touching any queue
    }

    bool progress = false;

    // Scatter side: results ready from the master.
    progress |= drain_scatter(worker, st, inflight);

    // End-to-end backpressure: the master queue's depth is the congestion
    // signal. Above the high watermark, shrink the RX batch and split it
    // fairly across this worker's virtual interfaces; at saturation keep
    // the (shrunk) poll but divert the chunk straight down the CPU path —
    // opportunistic offloading in its degenerate form. Spare CPU cycles
    // absorb what the GPU queue cannot take, and only when both are
    // exhausted does excess load overflow the NIC RX ring, which is the
    // cheapest place to drop (no copy, no cycles).
    u32 batch_cap = config_.chunk_capacity;
    u32 per_queue_cap = config_.chunk_capacity;
    bool divert_cpu = false;
    if (config_.use_gpu) {
      const std::size_t depth = node.master_in->size();
      const std::size_t cap = node.master_in->capacity();
      if (depth >= cap) divert_cpu = true;
      const auto high = static_cast<std::size_t>(static_cast<double>(cap) * kBpHighWatermark);
      const auto low = static_cast<std::size_t>(static_cast<double>(cap) * kBpLowWatermark);
      if (worker.bp_active) {
        if (depth <= low) worker.bp_active = false;  // hysteresis
      } else if (depth >= high) {
        worker.bp_active = true;
      }
      if (worker.bp_active) {
        batch_cap = std::min(batch_cap, config_.bp_reduced_batch);
        const auto nq = static_cast<u32>(worker.handle->queues().size());
        per_queue_cap = std::max<u32>(1, batch_cap / std::max<u32>(1, nq));
      }
    }

    // Chunk pipelining: keep fetching while under the in-flight cap. Every
    // RX poll — on our own handle or an adopted one — first wins the
    // handle's io_token: stall detection can accuse a live worker (one
    // merely starved of cycles, possibly mid-poll), so the token, not the
    // verdict, is what keeps each handle single-consumer.
    const bool want_fetch =
        running_.load(std::memory_order_acquire) && inflight < config_.pipeline_depth;
    if (want_fetch && !worker.quarantined.load(std::memory_order_acquire) &&
        !worker.io_token.exchange(true, std::memory_order_acquire)) {
      progress |= recv_and_dispatch(worker, worker.handle, batch_cap, per_queue_cap,
                                    inflight, /*adopted=*/false, divert_cpu);
      worker.io_token.store(false, std::memory_order_release);
      // RX + pre-shade is the longest leg of the iteration; results that
      // arrived during it ship now rather than after the adoption checks.
      progress |= drain_scatter(worker, st, inflight);
    }

    // Quarantine adoption: drain a wedged peer's virtual interfaces on its
    // behalf. adopt_ack publishes (with release) which peer this worker
    // last acted on; the supervisor reads it (acquire) to know the peer's
    // final poll is visible before letting the owner resume.
    WorkerRuntime* victim = worker.adopt.load(std::memory_order_acquire);
    worker.adopt_ack.store(victim, std::memory_order_release);
    if (victim != nullptr && want_fetch && inflight < config_.pipeline_depth &&
        !victim->io_token.exchange(true, std::memory_order_acquire)) {
      progress |= recv_and_dispatch(worker, victim->handle, batch_cap, per_queue_cap,
                                    inflight, /*adopted=*/true, divert_cpu);
      victim->io_token.store(false, std::memory_order_release);
      progress |= drain_scatter(worker, st, inflight);
    }

    // Idle path: every queue was dry this iteration. Park edge-triggered —
    // the master's wake.notify after pushing a result ends the nap
    // immediately, so a scatter no longer eats the fixed kIdleSleep that
    // dominated the fig12 tail; the deadline keeps RX polling and
    // heartbeats ticking when no results are coming.
    if (!progress) {
      const u64 token = worker.wake.prepare_wait();
      if (worker.out_queue->empty()) {
        worker.wake.wait_until(token, std::chrono::steady_clock::now() + kIdleSleep);
      } else {
        worker.wake.cancel_wait();
      }
    }
  }
}

void Router::cpu_fallback_batch(NodeRuntime& node, std::span<ShaderJob* const> batch) {
  for (ShaderJob* job : batch) {
    shader_.shade_cpu(*job);
    job->shaded_on_cpu = true;
    if (tracer_ != nullptr) tracer_->mark_cpu_path(job->trace_slot);
  }
  MutexLock lock(node.health_mu);
  node.health.cpu_fallback_chunks += batch.size();
}

void Router::shade_batch(NodeRuntime& node, std::span<ShaderJob* const> batch) {
  if (tracer_ != nullptr) {
    // Gather complete: the batch is assembled and about to be shaded.
    for (ShaderJob* job : batch) tracer_->stamp(job->trace_slot, telemetry::Stage::kGather);
  }
  {
    MutexLock lock(node.health_mu);
    ++node.health.batches;
  }
  pipeline_.gather_verify(batch);  // the master never touches verdicts

  // Unhealthy device: shade on the CPU, but probe periodically so the GPU
  // is re-admitted once it recovers.
  bool healthy;
  {
    MutexLock lock(node.health_mu);
    healthy = node.health.healthy;
  }
  if (!healthy) {
    if (++node.batches_since_probe >= config_.gpu_probe_interval_batches) {
      node.batches_since_probe = 0;
      const auto probe = node.gpu.device->probe();
      MutexLock lock(node.health_mu);
      ++node.health.probes;
      if (probe.ok()) {
        node.health.healthy = true;
        ++node.health.recoveries;
        node.consecutive_failures = 0;
        healthy = true;
      }
    }
    if (!healthy) {
      cpu_fallback_batch(node, batch);
      return;
    }
  }

  // Healthy (or just recovered): shade with bounded retry + exponential
  // backoff. Retrying is safe: shaders re-upload their gathered inputs
  // each attempt and a failed device op advances no stream state.
  const u32 attempts = std::max<u32>(1, config_.gpu_max_retries);
  for (u32 attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      const u64 backoff =
          std::min<u64>(static_cast<u64>(config_.gpu_backoff_us) << (attempt - 1),
                        config_.gpu_backoff_cap_us);
      // pslint: allow(hot-sleep) -- GPU retry backoff: the device just
      // failed, so the batch is already off the fast path by definition.
      std::this_thread::sleep_for(std::chrono::microseconds(backoff));
      MutexLock lock(node.health_mu);
      ++node.health.retries;
    }
    const ShadeOutcome outcome = shader_.shade(node.gpu, batch);
    if (outcome.ok()) {
      node.consecutive_failures = 0;
      if (pipeline_.shadow_verify(node.shadow, batch)) {
        // Repeated shadow mismatches: distrust the device and fall back to
        // the CPU until a probe re-admits it.
        MutexLock lock(node.health_mu);
        if (node.health.healthy) {
          node.health.healthy = false;
          ++node.health.trips;
          node.batches_since_probe = 0;
        }
      }
      return;
    }
  }

  // Retry budget exhausted: the batch is re-shaded on the CPU (no packet
  // is lost) and repeated failures trip the device to unhealthy.
  ++node.consecutive_failures;
  {
    MutexLock lock(node.health_mu);
    ++node.health.failed_batches;
    if (node.health.healthy && node.consecutive_failures >= config_.gpu_fail_threshold) {
      node.health.healthy = false;
      ++node.health.trips;
      node.batches_since_probe = 0;
    }
  }
  cpu_fallback_batch(node, batch);
}

void Router::master_loop(int node_id) {
  auto& node = *nodes_[static_cast<std::size_t>(node_id)];
  auto& hb = heartbeats_[workers_.size() + static_cast<std::size_t>(node_id)].value;
  std::vector<ShaderJob*> batch;
  batch.reserve(config_.gather_max);

  while (true) {
    // Beat, then the hang point, then the gather: a parked master holds no
    // jobs, so workers' in-flight chunks drain as soon as it is re-kicked.
    hb.beat();
    if (injector_ != nullptr && injector_->should_fire(fault::Point::kMasterHang)) {
      simulate_hang(node.hang_release);
      continue;
    }

    batch.clear();
    // Gather: take as many pending chunks as allowed in one shading pass.
    // The wait is timed (not indefinite) so an idle master keeps beating.
    const std::size_t n =
        node.master_in->pop_batch_wait_for(batch, config_.gather_max, kMasterIdleTick);
    if (n == 0) {
      if (node.master_in->drained()) break;  // queue closed and empty
      continue;
    }

    if (tracer_ != nullptr) {
      for (ShaderJob* job : batch) {
        tracer_->stamp(job->trace_slot, telemetry::Stage::kMasterDequeue);
      }
    }
    // The device-op observer stamps H2D/kernel/D2H for whatever batch is
    // published here; ops run synchronously on this thread.
    node.trace_batch = {batch.data(), batch.size()};
    shade_batch(node, {batch.data(), batch.size()});
    node.trace_batch = {};

    // After shading and shadow verification (a failed device pass may
    // also leave partial D2H bytes the copy path overwrites later).
    pipeline_.restamp_in_place({batch.data(), batch.size()});

    // Scatter: return each chunk to the worker it came from. Capacity is
    // sized so a worker's in-flight jobs always fit its output ring. The
    // wake ends the owner's idle nap immediately (edge-triggered) instead
    // of letting the result sit out the remainder of its kIdleSleep.
    for (ShaderJob* job : batch) {
      auto& owner = *workers_[static_cast<std::size_t>(job->worker_id)];
      const bool pushed = owner.out_queue->push(job);
      assert(pushed);
      (void)pushed;
      owner.wake.notify();
    }
  }
}

void Router::on_worker_stall(int worker_id) {
  WorkerRuntime& worker = *workers_[static_cast<std::size_t>(worker_id)];
  // Quarantine: hand the wedged worker's virtual interfaces to a same-node
  // peer so its NIC queues keep draining while it is out. The peer polls
  // them only while `adopt` is set; the owner polls them only while not
  // quarantined; and because this verdict may be wrong (a live worker can
  // look stalled when the scheduler starves it), both sides additionally
  // race for the owner's io_token before every poll — the handle stays
  // single-consumer even against a false positive.
  for (auto& cand : workers_) {
    if (cand->id == worker.id || cand->node != worker.node) continue;
    if (cand->quarantined.load(std::memory_order_acquire)) continue;
    if (cand->adopt.load(std::memory_order_acquire) != nullptr) continue;
    worker.quarantined.store(true, std::memory_order_release);
    cand->adopt.store(&worker, std::memory_order_release);
    worker.adopter_id = cand->id;
    break;
  }
  // The kick (watchdog bite): a thread parked at the hang point resumes —
  // quarantined, so it stays off its queues until recovery completes.
  worker.hang_release.store(true, std::memory_order_release);
}

void Router::on_worker_recover(int worker_id) {
  WorkerRuntime& worker = *workers_[static_cast<std::size_t>(worker_id)];
  if (worker.adopter_id < 0) {
    // No peer could adopt (e.g. all quarantined); just lift the flag if set.
    worker.quarantined.store(false, std::memory_order_release);
    return;
  }
  WorkerRuntime& peer = *workers_[static_cast<std::size_t>(worker.adopter_id)];
  worker.adopter_id = -1;
  peer.adopt.store(nullptr, std::memory_order_release);
  // Wait for the peer's acknowledgement: it republishes adopt_ack every
  // iteration after its adopted poll, so observing nullptr (acquire) makes
  // the peer's final poll visible before the owner's next one — the
  // single-consumer handoff is race-free. The wait is bounded: a peer
  // that itself hung stops acking, but a parked peer is not polling, so
  // resuming the owner anyway is safe.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (running_.load(std::memory_order_acquire) &&
         peer.adopt_ack.load(std::memory_order_acquire) != nullptr &&
         std::chrono::steady_clock::now() < deadline) {
    // pslint: allow(hot-sleep) -- supervisor recovery wait (bounded): the
    // owner is quarantined and not forwarding while this loop runs.
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  worker.quarantined.store(false, std::memory_order_release);
}

void Router::on_master_stall(int node) {
  // Masters hold no exclusive queues; recovery is just the re-kick. The
  // workers already absorbed the stall via try_push failure -> CPU path.
  nodes_[static_cast<std::size_t>(node)]->hang_release.store(true, std::memory_order_release);
}

void Router::start() {
  if (started_) return;
  started_ = true;
  running_.store(true, std::memory_order_release);

  if (config_.use_gpu) {
    for (auto& node : nodes_) {
      if (node->gpu.device != nullptr) shader_.bind_gpu(*node->gpu.device);
    }
    if (tracer_ != nullptr) {
      // Stamp device stage boundaries from inside the device: the observer
      // runs on the master thread (ops are synchronous) and stamps whatever
      // batch the master published in trace_batch. Detached in stop().
      for (auto& owned : nodes_) {
        NodeRuntime* node = owned.get();
        if (node->gpu.device == nullptr) continue;
        node->gpu.device->set_op_observer(
            [this, node](gpu::GpuOp op, const gpu::GpuResult&) {
              const telemetry::Stage stage = op == gpu::GpuOp::kH2d ? telemetry::Stage::kH2d
                                             : op == gpu::GpuOp::kKernel
                                                 ? telemetry::Stage::kKernel
                                                 : telemetry::Stage::kD2h;
              for (ShaderJob* job : node->trace_batch) tracer_->stamp(job->trace_slot, stage);
            });
      }
    }
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      threads_.emplace_back([this, n] { master_loop(static_cast<int>(n)); });
    }
  }
  for (auto& worker : workers_) {
    threads_.emplace_back([this, w = worker.get()] { worker_loop(*w); });
  }
  supervisor_.start();
}

void Router::stop() {
  if (!started_) return;
  running_.store(false, std::memory_order_release);
  // Supervisor first: threads about to exit stop beating, and shutdown
  // must not be misread as a mass stall.
  supervisor_.stop();
  engine_.stop();
  // Workers stop fetching, flush their in-flight chunks, and exit; masters
  // exit once their queues are closed and drained.
  for (auto& node : nodes_) {
    if (node->master_in) node->master_in->close();
  }
  for (auto& t : threads_) t.join();
  threads_.clear();
  if (tracer_ != nullptr) {
    // The observer captures `this`; the device outlives the router.
    for (auto& node : nodes_) {
      if (node->gpu.device != nullptr) node->gpu.device->set_op_observer(nullptr);
    }
  }
  started_ = false;
  assert(audit().balanced() && "packet conservation violated");
}

WorkerStats Router::total_stats() const {
  WorkerStats total;
  for (const auto& slot : stats_) {
    const WorkerStats st = slot->snapshot();
    total.chunks += st.chunks;
    total.packets_in += st.packets_in;
    total.packets_out += st.packets_out;
    total.slow_path += st.slow_path;
    total.cpu_processed += st.cpu_processed;
    total.gpu_processed += st.gpu_processed;
    total.bp_reduced_batches += st.bp_reduced_batches;
    total.bp_diverted_chunks += st.bp_diverted_chunks;
    total.adopted_chunks += st.adopted_chunks;
    for (std::size_t r = 0; r < iengine::kNumDropReasons; ++r) {
      total.drops_by_reason[r] += st.drops_by_reason[r];
    }
  }
  return total;
}

ConservationAudit Router::audit() const {
  ConservationAudit audit;
  const WorkerStats total = total_stats();
  audit.rx = total.packets_in;
  audit.tx = total.packets_out;
  audit.dropped = total.dropped();
  audit.slow_path = total.slow_path;
  // Jobs still owned by a worker hold packets inside the pipeline. Exact
  // once threads are joined (job pools are worker-thread-local while they
  // run), zero after a clean stop().
  for (const auto& worker : workers_) {
    for (const auto& owned : worker->job_pool) {
      if (owned->worker_id != -1) audit.in_flight += owned->chunk.count();
    }
  }
  return audit;
}

slowpath::AdmissionStats Router::slowpath_admission_stats() const {
  MutexLock lock(host_stack_mu_);
  return slowpath_admission_.stats();
}

slowpath::HostStackStats Router::host_stack_stats() const {
  MutexLock lock(host_stack_mu_);
  return host_stack_ ? host_stack_->stats() : slowpath::HostStackStats{};
}

GpuHealthStats Router::gpu_health(int node) const {
  const auto& rt = *nodes_[static_cast<std::size_t>(node)];
  MutexLock lock(rt.health_mu);
  return rt.health;
}

void Router::set_telemetry(telemetry::MetricsRegistry* registry) {
  telemetry_ = registry;
  if (telemetry_ != nullptr) register_metrics();
}

void Router::set_tracer(telemetry::PipelineTracer* tracer) { tracer_ = tracer; }

void Router::register_metrics() {
  using telemetry::MetricKind;
  auto& reg = *telemetry_;

  // --- router aggregates (probes over the per-worker single-writer atomics)
  reg.register_probe("router.rx_packets", MetricKind::kCounter,
                     [this] { return total_stats().packets_in; });
  reg.register_probe("router.tx_packets", MetricKind::kCounter,
                     [this] { return total_stats().packets_out; });
  reg.register_probe("router.chunks", MetricKind::kCounter,
                     [this] { return total_stats().chunks; });
  reg.register_probe("router.slow_path", MetricKind::kCounter,
                     [this] { return total_stats().slow_path; });
  reg.register_probe("router.drops_total", MetricKind::kCounter,
                     [this] { return total_stats().dropped(); });
  for (std::size_t r = 0; r < iengine::kNumDropReasons; ++r) {
    const auto reason = static_cast<iengine::DropReason>(r);
    reg.register_probe(std::string("router.drops.") + iengine::to_string(reason),
                       MetricKind::kCounter,
                       [this, reason] { return total_stats().drops(reason); });
  }
  reg.register_probe("router.bp_reduced_batches", MetricKind::kCounter,
                     [this] { return total_stats().bp_reduced_batches; });
  reg.register_probe("router.bp_diverted_chunks", MetricKind::kCounter,
                     [this] { return total_stats().bp_diverted_chunks; });
  reg.register_probe("router.adopted_chunks", MetricKind::kCounter,
                     [this] { return total_stats().adopted_chunks; });
  // Gauges: cpu/gpu_processed re-attribute on GPU fallback (gpu shrinks,
  // cpu grows), and in-flight drains back to zero.
  reg.register_probe("router.cpu_processed", MetricKind::kGauge,
                     [this] { return total_stats().cpu_processed; });
  reg.register_probe("router.gpu_processed", MetricKind::kGauge,
                     [this] { return total_stats().gpu_processed; });
  reg.register_probe("router.in_flight_packets", MetricKind::kGauge, [this] {
    u64 total = 0;
    for (const auto& slot : stats_) {
      total += slot->in_flight_packets.load(std::memory_order_relaxed);
    }
    return total;
  });

  // --- per-worker hand-off lanes (lock-free; counters are relaxed atomics)
  if (config_.use_gpu) {
    for (const auto& owned : workers_) {
      const WorkerRuntime* w = owned.get();
      const std::string prefix = "ring." + std::to_string(w->id) + ".";
      const NodeRuntime* node = nodes_[static_cast<std::size_t>(w->node)].get();
      const auto slot = static_cast<std::size_t>(w->node_slot);
      reg.register_probe(prefix + "full_spins", MetricKind::kCounter,
                         [node, slot] { return node->master_in->full_spins(slot); });
      reg.register_probe(prefix + "batch_occupancy", MetricKind::kGauge,
                         [node, slot] { return node->master_in->batch_occupancy(slot); });
    }
  }

  // --- per-node GPU watchdog (mutex-published by the master)
  if (config_.use_gpu) {
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      const std::string prefix = "gpu.node" + std::to_string(n) + ".";
      const int node = static_cast<int>(n);
      reg.register_probe(prefix + "batches", MetricKind::kCounter,
                         [this, node] { return gpu_health(node).batches; });
      reg.register_probe(prefix + "retries", MetricKind::kCounter,
                         [this, node] { return gpu_health(node).retries; });
      reg.register_probe(prefix + "failed_batches", MetricKind::kCounter,
                         [this, node] { return gpu_health(node).failed_batches; });
      reg.register_probe(prefix + "cpu_fallback_chunks", MetricKind::kCounter,
                         [this, node] { return gpu_health(node).cpu_fallback_chunks; });
      reg.register_probe(prefix + "trips", MetricKind::kCounter,
                         [this, node] { return gpu_health(node).trips; });
      reg.register_probe(prefix + "recoveries", MetricKind::kCounter,
                         [this, node] { return gpu_health(node).recoveries; });
      reg.register_probe(prefix + "probes", MetricKind::kCounter,
                         [this, node] { return gpu_health(node).probes; });
      reg.register_probe(prefix + "healthy", MetricKind::kGauge,
                         [this, node] { return gpu_health(node).healthy ? u64{1} : u64{0}; });
    }
  }

  // --- process memory (steady-state allocation invariant, DESIGN.md §13)
  reg.register_probe("mem.allocations", MetricKind::kCounter,
                     [] { return telemetry::allocations(); });

  // --- data-plane integrity (attach via set_integrity before set_telemetry)
  if (pipeline_.integrity() != nullptr) pipeline_.integrity()->register_metrics(reg);

  // --- slow-path admission + supervisor
  reg.register_probe("slowpath.admitted", MetricKind::kCounter,
                     [this] { return slowpath_admission_stats().admitted; });
  reg.register_probe("slowpath.shed_rate", MetricKind::kCounter,
                     [this] { return slowpath_admission_stats().shed_rate; });
  reg.register_probe("slowpath.shed_queue", MetricKind::kCounter,
                     [this] { return slowpath_admission_stats().shed_queue; });
  reg.register_probe("supervisor.stalls", MetricKind::kCounter,
                     [this] { return supervisor_.stalls_detected(); });
  reg.register_probe("supervisor.recoveries", MetricKind::kCounter,
                     [this] { return supervisor_.recoveries(); });

  // --- engine + NIC (wire-side accounting, before the router's rx)
  reg.register_probe("engine.tx_drops", MetricKind::kCounter, [this] {
    u64 total = 0;
    for (const auto& worker : workers_) total += worker->handle->tx_drops();
    return total;
  });
  for (std::size_t p = 0; p < engine_.num_ports(); ++p) {
    const std::string prefix = "nic.port" + std::to_string(p) + ".";
    nic::NicPort* port = engine_.port(static_cast<int>(p));
    reg.register_probe(prefix + "rx_packets", MetricKind::kCounter,
                       [port] { return port->rx_totals().packets; });
    reg.register_probe(prefix + "rx_bytes", MetricKind::kCounter,
                       [port] { return port->rx_totals().bytes; });
    reg.register_probe(prefix + "rx_drops", MetricKind::kCounter,
                       [port] { return port->rx_totals().drops; });
    reg.register_probe(prefix + "tx_packets", MetricKind::kCounter,
                       [port] { return port->tx_totals().packets; });
    reg.register_probe(prefix + "tx_bytes", MetricKind::kCounter,
                       [port] { return port->tx_totals().bytes; });
    reg.register_probe(prefix + "tx_drops", MetricKind::kCounter,
                       [port] { return port->tx_totals().drops; });
    reg.register_probe(prefix + "link_flaps", MetricKind::kCounter,
                       [port] { return port->link_flaps(); });
    reg.register_probe(prefix + "carrier_lost_frames", MetricKind::kCounter,
                       [port] { return port->carrier_lost_frames(); });
    reg.register_probe(prefix + "link_up", MetricKind::kGauge,
                       [port] { return port->link_up() ? u64{1} : u64{0}; });
  }
}

}  // namespace ps::core
