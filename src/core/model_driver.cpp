#include "core/model_driver.hpp"

#include <cassert>

#include "perf/calibration.hpp"

namespace ps::core {

ModelDriver::ModelDriver(Testbed& testbed, Shader* shader, RouterConfig config)
    : testbed_(testbed), shader_(shader), config_(config), pipeline_(shader, nullptr) {
  const auto& topo = testbed_.topology();
  const int wpn = testbed_.workers_per_node();

  for (int n = 0; n < topo.num_nodes; ++n) {
    for (int k = 0; k < wpn; ++k) {
      WorkerCtx w;
      w.core = n * topo.cores_per_node + k;
      w.node = n;
      std::vector<iengine::QueueRef> queues;
      for (int port = 0; port < topo.num_ports(); ++port) {
        if (topo.node_of_port(port) != n) continue;
        queues.push_back({port, static_cast<u16>(k)});
      }
      w.handle = testbed_.engine().attach(w.core, std::move(queues));
      workers_.push_back(w);
    }
  }
  node_pending_.resize(static_cast<std::size_t>(topo.num_nodes));
  shadow_.scratch.reserve(std::size_t{config_.chunk_capacity} * ShaderJob::kStagingBytesPerItem);
}

void ModelDriver::forward_minimal(iengine::PacketChunk& chunk) const {
  // Echo to the peer port, no table lookup (§4.6).
  const int n = static_cast<int>(testbed_.ports().size());
  const auto out = static_cast<i16>(node_crossing_ ? (chunk.in_port + n / 2) % n
                                                   : chunk.in_port ^ 1);
  for (u32 i = 0; i < chunk.count(); ++i) {
    chunk.set_verdict(i, iengine::PacketVerdict::kForward);
    chunk.set_out_port(i, out);
  }
}

ModelResult ModelDriver::run(gen::TrafficGen& traffic, u64 target_packets) {
  return run_impl(traffic, &traffic, target_packets);
}

ModelResult ModelDriver::run(gen::FrameSource& source, u64 target_packets) {
  assert(io_mode_ != IoMode::kTxOnly && "TX-only mode requires the TrafficGen overload");
  return run_impl(source, nullptr, target_packets);
}

ModelResult ModelDriver::run_impl(gen::FrameSource& source, gen::TrafficGen* txonly_traffic,
                                  u64 target_packets) {
  const auto& topo = testbed_.topology();
  const int wpn = testbed_.workers_per_node();
  const int active_per_node = active_workers_ > 0 ? std::min(active_workers_, wpn) : wpn;

  // Confine RSS to the queues of active workers so nothing rots in
  // undrained rings.
  for (auto* port : testbed_.ports()) {
    port->configure_rss(0, static_cast<u16>(active_per_node));
  }

  // Table upload is control-plane setup, not data-path work: bind before
  // attaching the ledger so it does not count against throughput.
  if (shader_ != nullptr && config_.use_gpu) {
    for (auto* gpu : testbed_.gpus()) shader_->bind_gpu(*gpu);
  }

  ledger_.reset();
  testbed_.set_ledger(&ledger_);

  // One GPU context per node.
  std::vector<GpuContext> gpu_ctx(static_cast<std::size_t>(topo.num_nodes));
  if (config_.use_gpu) {
    const auto gpus = testbed_.gpus();
    for (int n = 0; n < topo.num_nodes; ++n) {
      auto& ctx = gpu_ctx[static_cast<std::size_t>(n)];
      ctx.device = gpus[static_cast<std::size_t>(n)];
      ctx.streams.push_back(gpu::kDefaultStream);
      for (u32 s = 1; s < config_.num_streams; ++s) {
        ctx.streams.push_back(ctx.device->create_stream());
      }
    }
  }

  ModelResult result;
  std::vector<JobPtr> free_jobs;
  auto acquire = [&]() -> JobPtr {
    if (!free_jobs.empty()) {
      JobPtr job = std::move(free_jobs.back());
      free_jobs.pop_back();
      job->reset();
      return job;
    }
    return std::make_unique<ShaderJob>(config_.chunk_capacity);
  };

  // Variable-size sources (IMIX, captures) report their exact mean so the
  // accepted-frames -> input-Gbps conversion stays honest.
  const double in_mean_wire = source.mean_wire_bytes();
  // Keep the RX queues deep enough that recv_chunk mostly fetches full
  // batches — the steady-state condition of the saturated-router figures.
  const u64 slice = std::max<u64>(
      static_cast<u64>(testbed_.ports().size()) * config_.chunk_capacity * 4, 64);
  bool source_dry = false;  // finite source produced nothing this pass

  // Loop-invariant scratch hoisted out of the steady-state loop below so
  // the modelled data path does not allocate per slice.
  std::vector<i16> local_ports;
  local_ports.reserve(static_cast<std::size_t>(topo.num_ports()));
  std::vector<ShaderJob*> batch;
  batch.reserve(config_.gather_max);
  auto account = [&](const iengine::PacketChunk& chunk) {
    for (u32 i = 0; i < chunk.count(); ++i) {
      if (chunk.verdict(i) == iengine::PacketVerdict::kDrop) ++result.dropped;
      if (chunk.verdict(i) == iengine::PacketVerdict::kSlowPath) ++result.slow_path;
    }
  };

  while (result.offered < target_packets) {
    // --- offered load -------------------------------------------------------
    if (io_mode_ != IoMode::kTxOnly) {
      const gen::OfferResult offered = source.offer_some(testbed_.ports(), slice);
      result.offered += offered.offered;
      result.accepted += offered.accepted;
      source_dry = offered.offered == 0;
    }

    // --- worker RX + pre-shading -------------------------------------------
    for (auto& worker : workers_) {
      if (worker.core % topo.cores_per_node >= active_per_node) continue;
      perf::CpuChargeScope scope(&ledger_, static_cast<u16>(worker.core));

      if (io_mode_ == IoMode::kTxOnly) {
        // Synthesize and transmit chunks without RX (Figure 6 TX series).
        const u64 per_worker = slice / static_cast<u64>(workers_.size()) + 1;
        u64 made = 0;
        local_ports.clear();
        for (int p = 0; p < topo.num_ports(); ++p) {
          if (topo.node_of_port(p) == worker.node) local_ports.push_back(static_cast<i16>(p));
        }
        while (made < per_worker) {
          JobPtr job = acquire();
          while (job->chunk.count() < job->chunk.max_packets() && made < per_worker) {
            job->chunk.append(txonly_traffic->next_frame());
            ++made;
          }
          for (u32 i = 0; i < job->chunk.count(); ++i) {
            job->chunk.set_out_port(i, local_ports[i % local_ports.size()]);
          }
          result.offered += job->chunk.count();
          result.accepted += job->chunk.count();
          worker.handle->send_chunk(job->chunk);
          free_jobs.push_back(std::move(job));
        }
        continue;
      }

      while (true) {
        JobPtr job = acquire();
        const u32 n = worker.handle->recv_chunk(job->chunk);
        if (n == 0) {
          free_jobs.push_back(std::move(job));
          break;
        }
        if (io_mode_ == IoMode::kRxOnly) {
          result.forwarded += n;  // counted as processed work
          free_jobs.push_back(std::move(job));
          continue;
        }
        pipeline_.admit(job->chunk);
        const bool cpu_path =
            shader_ == nullptr || !config_.use_gpu ||
            (config_.opportunistic_threshold != 0 && n < config_.opportunistic_threshold);
        if (cpu_path) {
          if (shader_ != nullptr) {
            pipeline_.run_cpu(job->chunk);
          } else {
            forward_minimal(job->chunk);
          }
          result.forwarded += worker.handle->send_chunk(job->chunk);
          account(job->chunk);
          free_jobs.push_back(std::move(job));
        } else {
          job->worker_id = static_cast<int>(&worker - workers_.data());
          pipeline_.pre(*job);
          node_pending_[static_cast<std::size_t>(worker.node)].push_back(std::move(job));
        }
      }
    }

    // --- master shading (gather/scatter) ------------------------------------
    if (config_.use_gpu && shader_ != nullptr) {
      for (int n = 0; n < topo.num_nodes; ++n) {
        auto& pending = node_pending_[static_cast<std::size_t>(n)];
        if (pending.empty()) continue;
        const int master_core = n * topo.cores_per_node + wpn;
        perf::CpuChargeScope scope(&ledger_, static_cast<u16>(master_core));

        for (std::size_t i = 0; i < pending.size(); i += config_.gather_max) {
          batch.clear();
          for (std::size_t j = i; j < std::min(pending.size(), i + config_.gather_max); ++j) {
            batch.push_back(pending[j].get());
          }
          const std::span<ShaderJob* const> jobs{batch.data(), batch.size()};
          pipeline_.gather_verify(jobs);
          const ShadeOutcome outcome = shader_->shade(gpu_ctx[static_cast<std::size_t>(n)], jobs);
          if (!outcome.ok()) {
            // The analytic driver has no retry loop; re-shade on the CPU so
            // a model run under fault injection still accounts every packet.
            for (auto* job : batch) {
              shader_->shade_cpu(*job);
              job->shaded_on_cpu = true;
            }
          } else {
            // No device health to trip here: the model prices the checks.
            (void)pipeline_.shadow_verify(shadow_, jobs);
          }
          pipeline_.restamp_in_place(jobs);
        }

        // --- worker post-shading + staged TX ---------------------------------
        for (auto& job : pending) {
          auto& worker = workers_[static_cast<std::size_t>(job->worker_id)];
          perf::CpuChargeScope wscope(&ledger_, static_cast<u16>(worker.core));
          pipeline_.apply(*job);
          pipeline_.pre_tx(job->chunk);
          result.forwarded += worker.handle->stage_chunk_tx(job->chunk);
          account(job->chunk);
          free_jobs.push_back(std::move(job));
        }
        pending.clear();
        // Batched doorbells: one flush per worker handle for everything its
        // chunks staged this scatter pass (charged to the worker's core).
        for (auto& worker : workers_) {
          if (worker.node != n) continue;
          perf::CpuChargeScope wscope(&ledger_, static_cast<u16>(worker.core));
          worker.handle->flush_tx();
        }
      }
    }

    // A drained finite source ends the run: each pass fully empties the
    // rings (workers drain until recv_chunk returns 0) and the GPU batches
    // above, so nothing is still in flight when the source goes dry.
    if (source_dry && io_mode_ != IoMode::kTxOnly) break;
  }

  const Picos t = ledger_.bottleneck_time();
  result.bottleneck = ledger_.bottleneck_name();
  if (t > 0) {
    result.input_gbps =
        to_gbps(static_cast<u64>(static_cast<double>(result.accepted) * in_mean_wire + 0.5), t);
    u64 tx_bytes = 0;
    u64 tx_packets = 0;
    for (auto* port : testbed_.ports()) {
      const auto totals = port->tx_totals();
      tx_bytes += totals.bytes;
      tx_packets += totals.packets;
    }
    result.output_gbps = to_gbps(tx_bytes + tx_packets * kEthernetWireOverhead, t);
    const u64 work = io_mode_ == IoMode::kRxOnly ? result.accepted : result.forwarded;
    result.mpps = to_mpps(work, t);
    if (io_mode_ == IoMode::kRxOnly) result.output_gbps = result.input_gbps;
  }
  testbed_.set_ledger(nullptr);
  return result;
}

}  // namespace ps::core
