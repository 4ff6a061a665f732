// Additional GPU device coverage: stream-tail semantics, submit-time
// dependencies, concurrent use from two threads (master + control plane),
// and allocation churn.
#include <gtest/gtest.h>

#include <thread>

#include "gpu/device.hpp"

namespace ps::gpu {
namespace {

pcie::Topology topo() { return pcie::Topology::paper_server(); }

TEST(GpuDeviceMore, StreamTailsAdvanceIndependently) {
  GpuDevice dev(0, topo(), std::make_shared<SimtExecutor>(0u));
  const auto s1 = dev.create_stream();
  auto buf = dev.alloc(1 << 16);
  const std::vector<u8> data(1 << 16, 0);

  dev.memcpy_h2d(buf, 0, data, kDefaultStream);
  const Picos tail0 = dev.stream_tail(kDefaultStream);
  EXPECT_GT(tail0, 0);
  EXPECT_EQ(dev.stream_tail(s1), 0);  // untouched stream stays at zero

  dev.memcpy_h2d(buf, 0, data, s1);
  EXPECT_GT(dev.stream_tail(s1), 0);
  EXPECT_EQ(dev.synchronize(), std::max(dev.stream_tail(kDefaultStream), dev.stream_tail(s1)));
}

TEST(GpuDeviceMore, SubmitTimeDefersStart) {
  GpuDevice dev(0, topo(), std::make_shared<SimtExecutor>(0u));
  auto buf = dev.alloc(64);
  const std::vector<u8> data(64, 0);
  const Picos later = micros(500.0);
  const auto timing = dev.memcpy_h2d(buf, 0, data, kDefaultStream, later);
  EXPECT_GE(timing.start, later);
}

TEST(GpuDeviceMore, KernelsSerializeAcrossStreams) {
  // One exec engine: kernels on different streams still run one at a time
  // (the pre-Fermi constraint of section 7).
  GpuDevice dev(0, topo(), std::make_shared<SimtExecutor>(0u));
  const auto s1 = dev.create_stream();
  KernelLaunch heavy{.threads = 10'000,
                     .body = [](ThreadCtx&) {},
                     .cost = {.instructions = 50'000}};
  const auto first = dev.launch(heavy, kDefaultStream);
  const auto second = dev.launch(heavy, s1);
  EXPECT_GE(second.start, first.end);
}

TEST(GpuDeviceMore, AllocationChurn) {
  GpuDevice dev(0, topo(), std::make_shared<SimtExecutor>(0u));
  for (int round = 0; round < 100; ++round) {
    auto a = dev.alloc(1 << 20);
    auto b = dev.alloc(1 << 20);
    EXPECT_EQ(dev.allocated_bytes(), 2u << 20);
  }
  EXPECT_EQ(dev.allocated_bytes(), 0u);
}

TEST(GpuDeviceMore, ConcurrentOpsFromTwoThreadsAreSafe) {
  // A master thread launching kernels while a control-plane thread uploads
  // tables — the DynamicIpv4ForwardApp::sync scenario.
  GpuDevice dev(0, topo(), std::make_shared<SimtExecutor>(2u));
  auto table_a = dev.alloc(1 << 16);
  auto table_b = dev.alloc(1 << 16);
  auto io = dev.alloc(1 << 12);

  std::atomic<bool> stop{false};
  std::thread uploader([&] {
    const std::vector<u8> table(1 << 16, 0x55);
    while (!stop.load(std::memory_order_relaxed)) {
      dev.memcpy_h2d(table_b, 0, table);
    }
  });

  const u8* in = io.as<const u8>();
  for (int round = 0; round < 200; ++round) {
    KernelLaunch kernel{.threads = 256,
                        .body = [=](ThreadCtx& ctx) { (void)in[ctx.thread_id() % 4096]; },
                        .cost = {.instructions = 10}};
    dev.launch(kernel);
  }
  stop.store(true, std::memory_order_relaxed);
  uploader.join();
  EXPECT_GE(dev.kernels_launched(), 200u);
}

TEST(GpuDeviceMore, DefaultConstructedBufferIsInvalid) {
  DeviceBuffer buffer;
  EXPECT_FALSE(buffer.valid());
  EXPECT_EQ(buffer.size(), 0u);
}

}  // namespace
}  // namespace ps::gpu
