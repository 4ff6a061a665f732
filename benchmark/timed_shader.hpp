// A core::Shader decorator that times every callback of the real app from
// outside. It forwards each virtual unchanged and, while the tracer is
// enabled, adds the call's wall time and packet count to relaxed counters.
// With the tracer disabled it costs one relaxed load per call.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "core/shader.hpp"
#include "telemetry/tracer.hpp"

namespace psbench {

struct CallTiming {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> packets{0};
  std::atomic<std::uint64_t> ns{0};

  void add(std::uint64_t n_packets, std::uint64_t elapsed_ns) {
    calls.fetch_add(1, std::memory_order_relaxed);
    packets.fetch_add(n_packets, std::memory_order_relaxed);
    ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
  }
};

class TimedShader final : public ps::core::Shader {
 public:
  TimedShader(ps::core::Shader& inner, const ps::telemetry::PipelineTracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  CallTiming pre_shade_t, shade_t, shade_cpu_t, post_shade_t, process_cpu_t;

  const char* name() const override { return inner_.name(); }
  void bind_gpu(ps::gpu::GpuDevice& device) override { inner_.bind_gpu(device); }

  void pre_shade(ps::core::ShaderJob& job) override {
    if (!tracer_.enabled()) return inner_.pre_shade(job);
    const std::uint64_t n = job.chunk.count();
    const std::uint64_t t0 = now();
    inner_.pre_shade(job);
    pre_shade_t.add(n, now() - t0);
  }

  ps::core::ShadeOutcome shade(ps::core::GpuContext& gpu,
                               std::span<ps::core::ShaderJob* const> jobs,
                               ps::Picos submit_time) override {
    if (!tracer_.enabled()) return inner_.shade(gpu, jobs, submit_time);
    std::uint64_t n = 0;
    for (const ps::core::ShaderJob* job : jobs) n += job->chunk.count();
    const std::uint64_t t0 = now();
    const ps::core::ShadeOutcome out = inner_.shade(gpu, jobs, submit_time);
    shade_t.add(n, now() - t0);
    return out;
  }

  void shade_cpu(ps::core::ShaderJob& job) override {
    if (!tracer_.enabled()) return inner_.shade_cpu(job);
    const std::uint64_t n = job.chunk.count();
    const std::uint64_t t0 = now();
    inner_.shade_cpu(job);
    shade_cpu_t.add(n, now() - t0);
  }

  void post_shade(ps::core::ShaderJob& job) override {
    if (!tracer_.enabled()) return inner_.post_shade(job);
    const std::uint64_t n = job.chunk.count();
    const std::uint64_t t0 = now();
    inner_.post_shade(job);
    post_shade_t.add(n, now() - t0);
  }

  void process_cpu(ps::iengine::PacketChunk& chunk) override {
    if (!tracer_.enabled()) return inner_.process_cpu(chunk);
    const std::uint64_t n = chunk.count();
    const std::uint64_t t0 = now();
    inner_.process_cpu(chunk);
    process_cpu_t.add(n, now() - t0);
  }

 private:
  static std::uint64_t now() { return ps::telemetry::PipelineTracer::now_ns(); }

  ps::core::Shader& inner_;
  const ps::telemetry::PipelineTracer& tracer_;
};

}  // namespace psbench
