// Replay layer (DESIGN.md §18): write → read → replay reproduces the
// identical frame sequence and inter-arrival gaps (the pcap round-trip
// determinism contract), pacing schedules are pure functions of the
// capture, and replay-at-max drives the model pipeline at least as hard
// as the synthetic generator it was recorded from.
#include <gtest/gtest.h>

#include <cstdio>

#include "apps/dynamic_ipv4.hpp"
#include "cap/capture.hpp"
#include "cap/replay.hpp"
#include "core/model_driver.hpp"
#include "core/testbed.hpp"
#include "gen/traffic.hpp"
#include "route/fib_manager.hpp"
#include "route/rib_gen.hpp"
#include "telemetry/metrics.hpp"

namespace ps::cap {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// Write `count` generator frames into `path` with the synthetic clock
// (frame i stamped i microseconds in) and return the frames.
std::vector<net::FrameBuffer> write_capture(const std::string& path, u64 seed, int count) {
  gen::TrafficGen traffic({.frame_size = 80, .seed = seed});
  std::vector<net::FrameBuffer> frames;
  gen::PcapWriter writer(path, gen::PcapClock::kSynthetic);
  for (int i = 0; i < count; ++i) {
    frames.push_back(traffic.next_frame());
    writer.on_frame(0, frames.back());
  }
  return frames;
}

TEST(Replay, RoundTripPreservesFrameSequenceAndGaps) {
  const auto path = temp_path("roundtrip_replay.pcap");
  const auto originals = write_capture(path, 41, 16);

  PcapReplayer replayer(path);
  ASSERT_TRUE(replayer.ok());
  ASSERT_EQ(replayer.frames_loaded(), 16u);
  for (std::size_t i = 0; i < originals.size(); ++i) {
    EXPECT_EQ(replayer.records()[i].bytes, originals[i]) << i;
    // Synthetic clock: 1 us between consecutive frames, preserved by the
    // recorded-rate schedule exactly.
    EXPECT_EQ(replayer.due_time(i), static_cast<Picos>(i) * kPicosPerMicro) << i;
  }

  // Inject into a port and fetch back: same frames, same order.
  nic::NicPort port(0, pcie::Topology::single_node(), {.ring_size = 64});
  nic::NicPort* ports[] = {&port};
  const auto result = replayer.offer_some(ports, 1000);
  EXPECT_EQ(result.offered, 16u);
  EXPECT_EQ(result.accepted, 16u);
  EXPECT_TRUE(replayer.exhausted());

  std::vector<nic::RxSlot> slots(16);
  ASSERT_EQ(port.rx_peek(0, slots.data(), 16), 16u);
  for (std::size_t i = 0; i < originals.size(); ++i) {
    std::span<const u8> got(slots[i].data, slots[i].length);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), originals[i].begin(), originals[i].end()))
        << i;
  }
  std::remove(path.c_str());
}

TEST(Replay, RecordedRateReproducesIrregularGaps) {
  // Explicit, irregular timestamps: replay's schedule is the capture's
  // gap structure rebased to zero, independent of absolute stamps.
  const auto path = temp_path("gaps.pcap");
  {
    gen::PcapWriter writer(path);
    const std::vector<u8> frame(64, 0xcd);
    writer.write(frame, seconds(5.0));
    writer.write(frame, seconds(5.000007));  // +7 us
    writer.write(frame, seconds(5.001));     // +993 us
  }
  PcapReplayer replayer(path);
  ASSERT_EQ(replayer.frames_loaded(), 3u);
  EXPECT_EQ(replayer.due_time(0), 0);
  EXPECT_EQ(replayer.due_time(1), 7 * kPicosPerMicro);
  EXPECT_EQ(replayer.due_time(2), 1000 * kPicosPerMicro);
  std::remove(path.c_str());
}

TEST(Replay, FixedRateScheduleIsCumulativeSerialization) {
  const auto path = temp_path("fixed.pcap");
  write_capture(path, 42, 4);

  PcapReplayer replayer(path, {.rate = ReplayRate::kFixed, .fixed_gbps = 10.0});
  // 80 B frames -> 104 wire bytes = 832 bits; at 10 Gbit/s each frame
  // serializes in 83.2 ns.
  const double bits = 832.0;
  for (u64 i = 0; i < 4; ++i) {
    const auto expected = static_cast<Picos>(bits * static_cast<double>(i) / 10.0 * 1e3);
    EXPECT_EQ(replayer.due_time(i), expected) << i;
  }
  std::remove(path.c_str());
}

TEST(Replay, MaxRateHasZeroDueTimes) {
  const auto path = temp_path("max.pcap");
  write_capture(path, 43, 5);
  PcapReplayer replayer(path, {.rate = ReplayRate::kMax});
  for (u64 i = 0; i < 5; ++i) EXPECT_EQ(replayer.due_time(i), 0) << i;
  std::remove(path.c_str());
}

TEST(Replay, LoopingAndRewind) {
  const auto path = temp_path("loops.pcap");
  write_capture(path, 44, 8);
  nic::NicPort port(0, pcie::Topology::single_node(), {.ring_size = 64});
  nic::NicPort* ports[] = {&port};

  PcapReplayer replayer(path, {.loop_count = 3});
  u64 emitted = 0;
  while (!replayer.exhausted()) emitted += replayer.offer_some(ports, 5).offered;
  EXPECT_EQ(emitted, 24u);
  EXPECT_EQ(replayer.frames_emitted(), 24u);
  // The virtual clock advanced monotonically across the three passes.
  EXPECT_GT(replayer.clock(), 2 * 7 * kPicosPerMicro);

  replayer.rewind();
  EXPECT_FALSE(replayer.exhausted());
  EXPECT_EQ(replayer.frames_emitted(), 0u);

  PcapReplayer forever(path, {.loop_count = 0});
  for (int i = 0; i < 10; ++i) forever.offer_some(ports, 50);
  EXPECT_FALSE(forever.exhausted());
  std::remove(path.c_str());
}

TEST(Replay, MissingFileIsNotOkAndExhausted) {
  PcapReplayer replayer(temp_path("no-such-capture.pcap"));
  EXPECT_FALSE(replayer.ok());
  EXPECT_TRUE(replayer.exhausted());
  EXPECT_EQ(replayer.mean_wire_bytes(), 0.0);
}

TEST(Replay, RegistersReplayMetric) {
  const auto path = temp_path("replay_metrics.pcap");
  write_capture(path, 45, 4);
  nic::NicPort port(0, pcie::Topology::single_node(), {.ring_size = 64});
  nic::NicPort* ports[] = {&port};

  PcapReplayer replayer(path);
  telemetry::MetricsRegistry registry;
  replayer.register_metrics(registry);
  replayer.offer_some(ports, 1000);
  EXPECT_EQ(registry.snapshot().value("cap.replay.frames"), 4u);
  std::remove(path.c_str());
}

TEST(Replay, MaxRateSaturatesAtLeastAsHighAsSyntheticGenerator) {
  // Record the synthetic generator's stream, then drive the identical
  // model pipeline from the capture at kMax: the replayed workload must
  // sustain at least the generator's rate (same frames, same pipeline).
  constexpr u64 kTarget = 20'000;
  const auto path = temp_path("saturate.pcap");
  const auto rib = route::generate_ipv4_rib({.prefix_count = 1000, .num_next_hops = 4,
                                             .seed = 77});
  route::Ipv4Fib fib;
  for (const auto& p : rib) fib.announce(p);
  fib.commit();

  const gen::TrafficConfig traffic_config{
      .frame_size = 64,
      .seed = 46,
      .ipv4_dst_pool = route::sample_covered_ipv4(rib, 256, 78)};
  {
    gen::TrafficGen recorder(traffic_config);
    gen::PcapWriter writer(path, gen::PcapClock::kSynthetic);
    net::FrameBuffer frame;
    for (int i = 0; i < 2048; ++i) {
      recorder.next_frame_into(frame);
      writer.on_frame(0, frame);
    }
  }

  apps::DynamicIpv4ForwardApp app{fib};
  double synthetic_mpps = 0.0, replay_mpps = 0.0;
  {
    core::Testbed testbed({.topo = pcie::Topology::paper_server(), .use_gpu = true,
                           .ring_size = 4096},
                          core::RouterConfig{.use_gpu = true});
    gen::TrafficGen traffic(traffic_config);
    testbed.connect_sink(&traffic);
    core::ModelDriver driver(testbed, &app, core::RouterConfig{.use_gpu = true});
    synthetic_mpps = driver.run(traffic, kTarget).mpps;
  }
  {
    core::Testbed testbed({.topo = pcie::Topology::paper_server(), .use_gpu = true,
                           .ring_size = 4096},
                          core::RouterConfig{.use_gpu = true});
    gen::TrafficGen sink(traffic_config);
    testbed.connect_sink(&sink);
    PcapReplayer replayer(path, {.rate = ReplayRate::kMax, .loop_count = 0});
    ASSERT_TRUE(replayer.ok());
    core::ModelDriver driver(testbed, &app, core::RouterConfig{.use_gpu = true});
    replay_mpps = driver.run(static_cast<gen::FrameSource&>(replayer), kTarget).mpps;
  }
  EXPECT_GT(synthetic_mpps, 0.0);
  EXPECT_GE(replay_mpps, synthetic_mpps * 0.99)
      << "replay-at-max fell below the synthetic generator: " << replay_mpps << " vs "
      << synthetic_mpps << " Mpps";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ps::cap
