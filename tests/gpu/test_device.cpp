// GPU device model: memory accounting, copies, stream timelines, the
// concurrent copy-and-execution overlap, and ledger charges.
#include <gtest/gtest.h>

#include <numeric>

#include "gpu/device.hpp"

namespace ps::gpu {
namespace {

pcie::Topology topo() { return pcie::Topology::paper_server(); }

TEST(DeviceBuffer, AllocationAccounting) {
  GpuDevice dev(0, topo());
  {
    auto a = dev.alloc(1000);
    auto b = dev.alloc(500);
    EXPECT_EQ(dev.allocated_bytes(), 1500u);
    b = std::move(a);  // move frees b's old storage
    EXPECT_EQ(dev.allocated_bytes(), 1000u);
  }
  EXPECT_EQ(dev.allocated_bytes(), 0u);
}

TEST(DeviceBuffer, CapacityEnforced) {
  GpuDevice dev(0, topo());
  EXPECT_THROW(dev.alloc(perf::kGpuMemBytes + 1), std::bad_alloc);
  auto ok = dev.alloc(perf::kGpuMemBytes / 2);
  EXPECT_THROW(dev.alloc(perf::kGpuMemBytes / 2 + 1), std::bad_alloc);
}

TEST(GpuDevice, CopyRoundTrip) {
  GpuDevice dev(0, topo());
  auto buf = dev.alloc(256);
  std::vector<u8> in(256);
  std::iota(in.begin(), in.end(), 0);
  dev.memcpy_h2d(buf, 0, in);

  std::vector<u8> out(256);
  dev.memcpy_d2h(out, buf, 0);
  EXPECT_EQ(in, out);
  EXPECT_EQ(dev.bytes_h2d(), 256u);
  EXPECT_EQ(dev.bytes_d2h(), 256u);
}

TEST(GpuDevice, OffsetCopies) {
  GpuDevice dev(0, topo());
  auto buf = dev.alloc(64);
  const std::vector<u8> a(16, 0xaa), b(16, 0xbb);
  dev.memcpy_h2d(buf, 0, a);
  dev.memcpy_h2d(buf, 16, b);
  std::vector<u8> out(16);
  dev.memcpy_d2h(out, buf, 16);
  EXPECT_EQ(out, b);
}

TEST(GpuDevice, KernelLaunchExecutesFunctionally) {
  GpuDevice dev(0, topo(), std::make_shared<SimtExecutor>(0u));
  auto in = dev.alloc(1024 * 4);
  auto out = dev.alloc(1024 * 4);
  std::vector<u32> input(1024);
  std::iota(input.begin(), input.end(), 0u);
  dev.memcpy_h2d(in, 0, {reinterpret_cast<const u8*>(input.data()), input.size() * 4});

  const u32* in_p = in.as<const u32>();
  u32* out_p = out.as<u32>();
  KernelLaunch kernel{
      .threads = 1024,
      .body = [=](ThreadCtx& ctx) { out_p[ctx.thread_id()] = in_p[ctx.thread_id()] * 2; },
      .cost = {.instructions = 10},
  };
  dev.launch(kernel);

  std::vector<u32> result(1024);
  dev.memcpy_d2h({reinterpret_cast<u8*>(result.data()), result.size() * 4}, out, 0);
  for (u32 i = 0; i < 1024; ++i) EXPECT_EQ(result[i], i * 2);
  EXPECT_EQ(dev.kernels_launched(), 1u);
}

TEST(GpuDevice, SingleStreamSerializes) {
  GpuDevice dev(0, topo(), std::make_shared<SimtExecutor>(0u));
  auto buf = dev.alloc(4096);
  const std::vector<u8> data(4096, 1);

  const auto c1 = dev.memcpy_h2d(buf, 0, data);
  KernelLaunch kernel{.threads = 512, .body = [](ThreadCtx&) {}, .cost = {}};
  const auto k = dev.launch(kernel);
  std::vector<u8> out(4096);
  const auto c2 = dev.memcpy_d2h(out, buf, 0);

  // On one stream each op starts only after the previous completed.
  EXPECT_GE(k.start, c1.end);
  EXPECT_GE(c2.start, k.end);
  EXPECT_EQ(dev.synchronize(), c2.end);
}

TEST(GpuDevice, ConcurrentCopyAndExecutionOverlaps) {
  // Two streams: stream B's copy may start while stream A's kernel runs
  // (Figure 10(c)) — but kernels still serialize on the single exec engine.
  GpuDevice dev(0, topo(), std::make_shared<SimtExecutor>(0u));
  const auto stream_b = dev.create_stream();
  auto buf_a = dev.alloc(1 << 20);
  auto buf_b = dev.alloc(1 << 20);
  const std::vector<u8> data(1 << 20, 7);

  dev.memcpy_h2d(buf_a, 0, data, kDefaultStream);
  KernelLaunch heavy{.threads = 50'000,
                     .body = [](ThreadCtx&) {},
                     .cost = {.instructions = 10'000, .mem_accesses = 10}};
  const auto k = dev.launch(heavy, kDefaultStream);
  const auto copy_b = dev.memcpy_h2d(buf_b, 0, data, stream_b);

  EXPECT_LT(copy_b.start, k.end);  // overlap achieved
}

TEST(GpuDevice, StreamedModeAddsCallOverhead) {
  GpuDevice serial(0, topo(), std::make_shared<SimtExecutor>(0u));
  GpuDevice streamed(0, topo(), std::make_shared<SimtExecutor>(0u));
  streamed.create_stream();  // >1 stream => per-call overhead (§5.4)

  auto buf_a = serial.alloc(64);
  auto buf_b = streamed.alloc(64);
  const std::vector<u8> data(64, 0);
  const auto t_serial = serial.memcpy_h2d(buf_a, 0, data);
  const auto t_streamed = streamed.memcpy_h2d(buf_b, 0, data);
  EXPECT_EQ(t_streamed.duration() - t_serial.duration(), perf::kGpuStreamCallOverhead);
}

TEST(GpuDevice, LaunchLatencyScalesGently) {
  // Section 2.2: 3.8 us for one thread, ~4.1 us for 4096 (only ~10% more).
  const Picos one = perf::gpu_launch_latency(1);
  const Picos many = perf::gpu_launch_latency(4096);
  EXPECT_NEAR(to_micros(one), 3.8, 0.01);
  EXPECT_NEAR(to_micros(many), 4.1, 0.05);
}

TEST(GpuDevice, ChargesLedgerOnItsIoh) {
  perf::CostLedger ledger;
  GpuDevice dev1(1, topo(), std::make_shared<SimtExecutor>(0u));  // node 1 -> IOH 1
  dev1.set_ledger(&ledger);

  auto buf = dev1.alloc(1 << 16);
  const std::vector<u8> data(1 << 16, 0);
  dev1.memcpy_h2d(buf, 0, data);
  EXPECT_GT(ledger.busy({perf::ResourceKind::kIohH2d, 1}), 0);
  EXPECT_EQ(ledger.busy({perf::ResourceKind::kIohH2d, 0}), 0);
  EXPECT_GT(ledger.busy({perf::ResourceKind::kGpuCopy, 1}), 0);

  KernelLaunch kernel{.threads = 64, .body = [](ThreadCtx&) {}, .cost = {.instructions = 100}};
  dev1.launch(kernel);
  EXPECT_GT(ledger.busy({perf::ResourceKind::kGpuExec, 1}), 0);
}

TEST(GpuDevice, MeasuredDivergenceSlowsKernel) {
  GpuDevice dev(0, topo(), std::make_shared<SimtExecutor>(0u));
  KernelLaunch uniform{.threads = 4096,
                       .body = [](ThreadCtx& ctx) { ctx.record_path(0); },
                       .cost = {.instructions = 1000},
                       .track_divergence = true};
  KernelLaunch divergent = uniform;
  divergent.body = [](ThreadCtx& ctx) { ctx.record_path(static_cast<u8>(ctx.lane_id() % 4)); };

  const auto tu = dev.launch(uniform);
  dev.reset_timeline();
  const auto td = dev.launch(divergent);
  EXPECT_GT(td.duration(), tu.duration());  // 4-way divergence costs ~4x compute
}

TEST(GpuDevice, ResetTimelineClearsClocks) {
  GpuDevice dev(0, topo(), std::make_shared<SimtExecutor>(0u));
  auto buf = dev.alloc(64);
  dev.memcpy_h2d(buf, 0, std::vector<u8>(64, 0));
  EXPECT_GT(dev.synchronize(), 0);
  dev.reset_timeline();
  EXPECT_EQ(dev.synchronize(), 0);
}

}  // namespace
}  // namespace ps::gpu
