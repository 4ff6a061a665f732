// PipelineTracer properties, from the unit ring up through the threaded
// router:
//  - spans are well-nested and stage timestamps are monotonic per chunk
//    (in stage order, over the stages that were actually stamped);
//  - ring overflow drops whole spans, never truncates one — every drained
//    span is complete (begin and end stamped);
//  - disabled tracing performs ZERO atomic writes on the hot path,
//    asserted via the tracer's write-instrumentation counter.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <set>
#include <thread>
#include <vector>

#include "apps/dynamic_ipv4.hpp"
#include "apps/ipsec_gateway.hpp"
#include "core/router.hpp"
#include "core/testbed.hpp"
#include "gen/traffic.hpp"
#include "telemetry/tracer.hpp"

namespace ps {
namespace {

using namespace std::chrono_literals;
using telemetry::PipelineTracer;
using telemetry::Stage;
using telemetry::TraceSpan;

/// Stage timestamps must be non-decreasing in stage order over the stages
/// that were stamped (0 = never stamped; CPU-path spans skip the device).
void expect_stage_monotonic(const TraceSpan& span) {
  u64 prev = 0;
  for (std::size_t k = 0; k < telemetry::kNumStages; ++k) {
    if (span.ts[k] == 0) continue;
    EXPECT_GE(span.ts[k], prev) << "stage " << telemetry::to_string(static_cast<Stage>(k))
                                << " went backwards (chunk " << span.chunk_id << ")";
    prev = span.ts[k];
  }
}

/// A drained span is complete by construction: begin and end stamped, end
/// not before begin. Overflow may lose spans whole, never partially.
void expect_complete(const TraceSpan& span) {
  EXPECT_NE(span.begin_ns(), 0u);
  EXPECT_NE(span.end_ns(), 0u);
  EXPECT_GE(span.end_ns(), span.begin_ns());
}

TEST(PipelineTrace, SpanLifecycleStampsAllStagesInOrder) {
  PipelineTracer tracer(8);
  tracer.set_enabled(true);

  const i32 slot = tracer.begin_span(64);
  ASSERT_NE(slot, PipelineTracer::kNoSlot);
  for (const Stage s : {Stage::kMasterDequeue, Stage::kGather, Stage::kH2d, Stage::kKernel,
                        Stage::kD2h, Stage::kScatter}) {
    tracer.stamp(slot, s);
  }
  tracer.end_span(slot);

  std::vector<TraceSpan> spans;
  EXPECT_EQ(tracer.drain(spans), 1u);
  ASSERT_EQ(spans.size(), 1u);
  const auto& span = spans[0];
  EXPECT_EQ(span.packets, 64u);
  EXPECT_FALSE(span.cpu_path);
  for (std::size_t k = 0; k < telemetry::kNumStages; ++k) EXPECT_NE(span.ts[k], 0u);
  expect_stage_monotonic(span);
  expect_complete(span);
  EXPECT_EQ(tracer.spans_started(), 1u);
  EXPECT_EQ(tracer.spans_completed(), 1u);
  EXPECT_EQ(tracer.spans_dropped(), 0u);

  // Drain is destructive: the same span is never handed out twice.
  EXPECT_EQ(tracer.drain(spans), 0u);
}

TEST(PipelineTrace, CpuPathSpansLeaveDeviceStagesUnstamped) {
  PipelineTracer tracer(8);
  tracer.set_enabled(true);

  const i32 slot = tracer.begin_span(7);
  ASSERT_NE(slot, PipelineTracer::kNoSlot);
  tracer.mark_cpu_path(slot);
  tracer.stamp(slot, Stage::kScatter);
  tracer.end_span(slot);

  std::vector<TraceSpan> spans;
  ASSERT_EQ(tracer.drain(spans), 1u);
  EXPECT_TRUE(spans[0].cpu_path);
  EXPECT_EQ(spans[0].stage(Stage::kH2d), 0u);
  EXPECT_EQ(spans[0].stage(Stage::kKernel), 0u);
  EXPECT_EQ(spans[0].stage(Stage::kD2h), 0u);
  expect_stage_monotonic(spans[0]);
  expect_complete(spans[0]);
}

TEST(PipelineTrace, WrapOntoOpenSpanDropsTheNewSpanWhole) {
  PipelineTracer tracer(4);
  ASSERT_EQ(tracer.capacity(), 4u);
  tracer.set_enabled(true);

  i32 slots[4];
  for (auto& s : slots) {
    s = tracer.begin_span(1);
    ASSERT_NE(s, PipelineTracer::kNoSlot);
  }
  // Ring full of open spans: the next claim must be rejected, and the
  // open spans must be untouched by the rejected claim.
  EXPECT_EQ(tracer.begin_span(1), PipelineTracer::kNoSlot);
  EXPECT_EQ(tracer.spans_dropped(), 1u);

  for (const auto s : slots) tracer.end_span(s);
  std::vector<TraceSpan> spans;
  EXPECT_EQ(tracer.drain(spans), 4u);
  for (const auto& span : spans) expect_complete(span);
  EXPECT_EQ(tracer.spans_started(), 4u);
  EXPECT_EQ(tracer.spans_completed(), 4u);
}

TEST(PipelineTrace, OverwriteLosesWholeSpansNeverTruncates) {
  PipelineTracer tracer(4);
  tracer.set_enabled(true);

  // Two laps of completed spans with no drain in between: the second lap
  // overwrites the first wholesale.
  for (u32 i = 0; i < 8; ++i) {
    const i32 slot = tracer.begin_span(i + 1);
    ASSERT_NE(slot, PipelineTracer::kNoSlot);
    tracer.end_span(slot);
  }
  EXPECT_EQ(tracer.spans_overwritten(), 4u);

  std::vector<TraceSpan> spans;
  EXPECT_EQ(tracer.drain(spans), 4u);
  std::set<u64> ids;
  for (const auto& span : spans) {
    expect_complete(span);
    // Only second-lap spans survive — no first-lap fields bleed through.
    EXPECT_GE(span.packets, 5u);
    ids.insert(span.chunk_id);
  }
  EXPECT_EQ(ids.size(), 4u);
}

TEST(PipelineTrace, DisabledTracingPerformsZeroAtomicWrites) {
  PipelineTracer tracer(64);
  ASSERT_FALSE(tracer.enabled());
  const u64 before = tracer.hot_path_atomic_writes();

  for (int i = 0; i < 1000; ++i) {
    const i32 slot = tracer.begin_span(64);
    EXPECT_EQ(slot, PipelineTracer::kNoSlot);
    tracer.stamp(slot, Stage::kGather);
    tracer.mark_cpu_path(slot);
    tracer.end_span(slot);
  }

  EXPECT_EQ(tracer.hot_path_atomic_writes(), before);
  EXPECT_EQ(tracer.spans_started(), 0u);
  EXPECT_EQ(tracer.spans_completed(), 0u);
  std::vector<TraceSpan> spans;
  EXPECT_EQ(tracer.drain(spans), 0u);
}

// --- through the threaded router ---------------------------------------------

struct RouterTraceFixture {
  route::Ipv4Fib fib;
  apps::DynamicIpv4ForwardApp app;
  core::Testbed testbed;
  gen::TrafficGen traffic;

  RouterTraceFixture()
      : app(fib),
        testbed({.topo = pcie::Topology::single_node(),
                 .use_gpu = true,
                 .ring_size = 4096,
                 .gpu_pool_workers = 0},
                core::RouterConfig{.use_gpu = true}),
        traffic({.frame_size = 64, .seed = 31}) {
    fib.announce({net::Ipv4Addr(0), 0, 1});
    fib.commit();
    testbed.connect_sink(&traffic);
  }

  core::RouterConfig router_config() const {
    core::RouterConfig config;
    config.use_gpu = true;
    config.chunk_capacity = 64;
    return config;
  }

  u64 run(core::Router& router, u64 packets) {
    router.start();
    u64 accepted = 0;
    while (accepted < packets) {
      const u64 got = traffic.offer(testbed.ports(), 1'000);
      accepted += got;
      if (got == 0) std::this_thread::sleep_for(1ms);
    }
    // Drain-wait on total_stats() (single-writer atomics); audit()'s
    // job-pool scan is only race-free once the router is stopped.
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (std::chrono::steady_clock::now() < deadline) {
      const auto s = router.total_stats();
      if (s.packets_in == accepted &&
          s.packets_out + s.dropped() + s.slow_path == s.packets_in) {
        break;
      }
      std::this_thread::sleep_for(1ms);
    }
    router.stop();
    return accepted;
  }
};

TEST(PipelineTrace, RouterSpansAreWellFormedAndMonotonic) {
  RouterTraceFixture fx;
  // Capacity comfortably above the chunk count so no span is lost and
  // conservation over spans is exact.
  telemetry::PipelineTracer tracer(4096);
  tracer.set_enabled(true);

  core::Router router(fx.testbed.engine(), fx.testbed.gpus(), fx.app, fx.router_config());
  router.set_tracer(&tracer);
  const u64 accepted = fx.run(router, 20'000);
  ASSERT_GT(accepted, 0u);

  std::vector<TraceSpan> spans;
  tracer.drain(spans);
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(tracer.spans_started(), tracer.spans_completed());
  EXPECT_EQ(tracer.spans_dropped(), 0u);
  EXPECT_EQ(spans.size(), tracer.spans_completed());

  // Every chunk the router counted has exactly one completed span, and
  // the spans' packets sum back to the accepted total (well-nestedness:
  // begin/end pairs match 1:1 with chunks, nothing dangling).
  const auto stats = router.total_stats();
  EXPECT_EQ(spans.size(), stats.chunks);
  u64 traced_packets = 0;
  std::set<u64> ids;
  for (const auto& span : spans) {
    expect_complete(span);
    expect_stage_monotonic(span);
    EXPECT_GT(span.packets, 0u);
    traced_packets += span.packets;
    ids.insert(span.chunk_id);
    if (!span.cpu_path) {
      // A GPU-path span visits every Figure-12 stage.
      for (const Stage s : {Stage::kMasterDequeue, Stage::kGather, Stage::kH2d, Stage::kKernel,
                            Stage::kD2h, Stage::kScatter}) {
        EXPECT_NE(span.stage(s), 0u)
            << "GPU span missing stage " << telemetry::to_string(s);
      }
    }
  }
  EXPECT_EQ(traced_packets, accepted);
  EXPECT_EQ(ids.size(), spans.size());  // span identities are unique
}

TEST(PipelineTrace, InPlaceScatterSpansCrossAllEightBoundariesInOrder) {
  // Fig12 property over the PR 8 data path: IPsec shades with the
  // in-place scatter (device results DMA'd straight into the frames) and
  // TX doorbells are batched per settle sweep. Every GPU span must still
  // cross all eight stage boundaries in order — in particular
  // kMasterDequeue must bracket the SPSC hand-off (stamped by the master
  // after its fan-in sweep) and kScatter/kTxDoorbell must bracket the
  // drain_scatter sweep and the batched doorbell flush behind it.
  const auto sa = crypto::SecurityAssociation::make_test_sa(
      0x7272, net::Ipv4Addr(172, 16, 0, 1), net::Ipv4Addr(172, 16, 0, 2));
  apps::IpsecGatewayApp app(sa);

  core::Testbed testbed({.topo = pcie::Topology::single_node(),
                         .use_gpu = true,
                         .ring_size = 4096,
                         .gpu_pool_workers = 0},
                        core::RouterConfig{.use_gpu = true});
  gen::TrafficGen traffic({.frame_size = 64, .seed = 77});
  testbed.connect_sink(&traffic);

  core::RouterConfig config;
  config.use_gpu = true;
  config.chunk_capacity = 64;

  telemetry::PipelineTracer tracer(1u << 14);
  tracer.set_enabled(true);

  core::Router router(testbed.engine(), testbed.gpus(), app, config);
  router.set_tracer(&tracer);
  router.start();
  u64 accepted = 0;
  while (accepted < 8'000) {
    const u64 got = traffic.offer(testbed.ports(), 1'000);
    accepted += got;
    if (got == 0) std::this_thread::sleep_for(1ms);
  }
  const auto deadline = std::chrono::steady_clock::now() + 20s;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto s = router.total_stats();
    if (s.packets_in == accepted &&
        s.packets_out + s.dropped() + s.slow_path == s.packets_in) {
      break;
    }
    std::this_thread::sleep_for(1ms);
  }
  router.stop();

  std::vector<TraceSpan> spans;
  tracer.drain(spans);
  ASSERT_FALSE(spans.empty());

  constexpr Stage kOrder[] = {Stage::kRxRing, Stage::kMasterDequeue, Stage::kGather,
                              Stage::kH2d,    Stage::kKernel,        Stage::kD2h,
                              Stage::kScatter, Stage::kTxDoorbell};
  static_assert(std::size(kOrder) == telemetry::kNumStages);
  u64 gpu_spans = 0;
  for (const auto& span : spans) {
    expect_complete(span);
    expect_stage_monotonic(span);
    if (span.cpu_path) continue;
    ++gpu_spans;
    for (std::size_t k = 0; k < std::size(kOrder); ++k) {
      ASSERT_NE(span.stage(kOrder[k]), 0u)
          << "GPU span missing stage " << telemetry::to_string(kOrder[k]);
      if (k > 0) {
        EXPECT_GE(span.stage(kOrder[k]), span.stage(kOrder[k - 1]))
            << telemetry::to_string(kOrder[k]) << " precedes "
            << telemetry::to_string(kOrder[k - 1]) << " (chunk " << span.chunk_id << ")";
      }
    }
  }
  // The in-place path must actually have been exercised (this config
  // shades every chunk on the GPU unless backpressure diverts it).
  EXPECT_GT(gpu_spans, 0u);
}

TEST(PipelineTrace, RouterWithDisabledTracerWritesNothing) {
  RouterTraceFixture fx;
  telemetry::PipelineTracer tracer(4096);  // attached but disabled

  core::Router router(fx.testbed.engine(), fx.testbed.gpus(), fx.app, fx.router_config());
  router.set_tracer(&tracer);
  const u64 accepted = fx.run(router, 10'000);
  ASSERT_GT(accepted, 0u);

  // The tracer stayed wired into the hot path the whole run, yet wrote
  // nothing: zero atomic writes, zero spans.
  EXPECT_EQ(tracer.hot_path_atomic_writes(), 0u);
  EXPECT_EQ(tracer.spans_started(), 0u);
  std::vector<TraceSpan> spans;
  EXPECT_EQ(tracer.drain(spans), 0u);
}

}  // namespace
}  // namespace ps
