#include "cap/golden.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "apps/dynamic_ipv4.hpp"
#include "apps/dynamic_ipv6.hpp"
#include "apps/ipsec_gateway.hpp"
#include "cap/capture.hpp"
#include "cap/replay.hpp"
#include "common/endian.hpp"
#include "core/model_driver.hpp"
#include "core/router.hpp"
#include "core/testbed.hpp"
#include "crypto/esp.hpp"
#include "gen/traffic.hpp"
#include "route/rib_gen.hpp"

namespace ps::cap {

namespace {

// Corpus seeds are arbitrary but frozen: changing any of them changes the
// committed input captures, which scripts/regen_goldens.sh must then
// regenerate along with the goldens and the checksum manifest.
constexpr u64 kIpv4TrafficSeed = 1800;
constexpr u64 kIpv4RibSeed = 1801;
constexpr u64 kIpv4PoolSeed = 1802;
constexpr u64 kIpv6RibSeed = 1803;
constexpr u64 kIpv6TrafficSeed = 1804;
constexpr u64 kIpv6PoolSeed = 1805;
constexpr u64 kIpsecTrafficSeed = 1806;
constexpr std::size_t kCorpusRibSize = 20'000;
/// Upper bound on a threaded corpus replay; a healthy run takes
/// milliseconds, so hitting it means frames were lost.
constexpr std::chrono::seconds kRouterReplayTimeout{30};

crypto::SecurityAssociation corpus_sa() {
  return crypto::SecurityAssociation::make_test_sa(0x5151, net::Ipv4Addr(172, 16, 0, 1),
                                                   net::Ipv4Addr(172, 16, 0, 2));
}

std::vector<route::Ipv4Prefix> corpus_ipv4_rib() {
  return route::generate_ipv4_rib(
      {.prefix_count = kCorpusRibSize, .num_next_hops = 8, .seed = kIpv4RibSeed});
}

std::vector<route::Ipv6Prefix> corpus_ipv6_rib() {
  return route::generate_ipv6_rib(kCorpusRibSize, 8, kIpv6RibSeed);
}

gen::TrafficGen corpus_traffic(Corpus corpus) {
  switch (corpus) {
    case Corpus::kIpv4Imix: {
      return gen::TrafficGen({.frame_size = 64,
                              .seed = kIpv4TrafficSeed,
                              .flow_count = 64,
                              .size_dist = gen::SizeDist::kImix,
                              .ipv4_dst_pool =
                                  route::sample_covered_ipv4(corpus_ipv4_rib(), 256, kIpv4PoolSeed)});
    }
    case Corpus::kIpv6: {
      return gen::TrafficGen({.kind = gen::TrafficKind::kIpv6Udp,
                              .frame_size = 96,
                              .seed = kIpv6TrafficSeed,
                              .flow_count = 32,
                              .ipv6_dst_pool =
                                  route::sample_covered_ipv6(corpus_ipv6_rib(), 128, kIpv6PoolSeed)});
    }
    case Corpus::kIpsec:
      return gen::TrafficGen({.frame_size = 128, .seed = kIpsecTrafficSeed, .flow_count = 16});
  }
  return gen::TrafficGen();
}

/// Replay the input through the paper-server testbed with `app` on the
/// GPU path (inline SIMT execution) and collect TX.
FrameList run_through(core::Shader& app, const std::string& input_path, Executor executor,
                      u64 expected_frames) {
  const core::RouterConfig config{.use_gpu = true};
  core::Testbed testbed(
      {.topo = pcie::Topology::paper_server(), .use_gpu = true, .ring_size = 4096}, config);
  FrameCollector sink;
  testbed.connect_sink(&sink);

  PcapReplayer replayer(input_path, {.rate = ReplayRate::kMax, .loop_count = 1});
  if (executor == Executor::kModel) {
    core::ModelDriver driver(testbed, &app, config);
    driver.run(static_cast<gen::FrameSource&>(replayer), ~u64{0});  // exits when the capture drains
  } else {
    core::Router router(testbed.engine(), testbed.gpus(), app, config);
    router.start();
    replayer.offer_some(testbed.ports(), ~u64{0});  // the whole capture, back to back
    const auto deadline = std::chrono::steady_clock::now() + kRouterReplayTimeout;
    while (sink.size() < expected_frames && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    router.stop();
  }
  return canonicalize(sink.frames());
}

}  // namespace

const char* corpus_name(Corpus corpus) {
  switch (corpus) {
    case Corpus::kIpv4Imix: return "ipv4_imix";
    case Corpus::kIpv6: return "ipv6";
    case Corpus::kIpsec: return "ipsec";
  }
  return "?";
}

std::string corpus_input_path(const std::string& data_dir, Corpus corpus) {
  return data_dir + "/" + corpus_name(corpus) + "_in.pcap";
}

std::string corpus_golden_path(const std::string& data_dir, Corpus corpus) {
  return data_dir + "/" + corpus_name(corpus) + "_expected.pcap";
}

u64 corpus_frame_count(Corpus corpus) {
  switch (corpus) {
    case Corpus::kIpv4Imix: return 192;  // 16 exact IMIX windows
    case Corpus::kIpv6: return 160;
    case Corpus::kIpsec: return 160;
  }
  return 0;
}

void write_corpus_input(Corpus corpus, const std::string& path) {
  gen::PcapWriter writer(path, gen::PcapClock::kSynthetic);
  auto traffic = corpus_traffic(corpus);
  const u64 count = corpus_frame_count(corpus);
  for (u64 i = 0; i < count; ++i) {
    writer.on_frame(0, traffic.next_frame());
  }
}

FrameList route_corpus(Corpus corpus, const std::string& input_path, Executor executor) {
  const u64 expected = corpus_frame_count(corpus);
  switch (corpus) {
    case Corpus::kIpv4Imix: {
      route::Ipv4Fib fib;
      for (const auto& p : corpus_ipv4_rib()) fib.announce(p);
      fib.commit();
      apps::DynamicIpv4ForwardApp app(fib);
      return run_through(app, input_path, executor, expected);
    }
    case Corpus::kIpv6: {
      route::Ipv6Fib fib;
      for (const auto& p : corpus_ipv6_rib()) fib.announce(p);
      fib.commit();
      apps::DynamicIpv6ForwardApp app(fib);
      return run_through(app, input_path, executor, expected);
    }
    case Corpus::kIpsec: {
      const auto sa = corpus_sa();  // the app keeps a reference to it
      apps::IpsecGatewayApp app(sa);
      return run_through(app, input_path, executor, expected);
    }
  }
  return {};
}

FrameList renumber_esp(const FrameList& frames) {
  constexpr std::size_t kL2 = sizeof(net::EthernetHeader);
  constexpr std::size_t kSeqOffset = kL2 + sizeof(net::Ipv4Header) + 4;
  const crypto::SecurityAssociation sa = corpus_sa();
  FrameList keyed;  // L2 header + decapsulated inner frame, per valid ESP frame
  FrameList out;
  for (const auto& frame : frames) {
    crypto::SecurityAssociation rx = sa;  // fresh anti-replay window per frame
    std::vector<u8> inner;
    bool valid = frame.size() > kSeqOffset + 4 &&
                 crypto::esp_decapsulate(rx, frame, inner) == crypto::EspError::kOk;
    if (valid) {
      const auto ref = crypto::esp_encapsulate(sa, inner, load_be32(frame.data() + kSeqOffset));
      valid = ref.size() == frame.size() &&
              std::equal(frame.begin() + kL2, frame.end(), ref.begin() + kL2);
    }
    if (!valid) {
      out.push_back(frame);
      continue;
    }
    std::vector<u8> key(frame.begin(), frame.begin() + kL2);
    key.insert(key.end(), inner.begin(), inner.end());
    keyed.push_back(std::move(key));
  }
  u32 seq = 1;
  for (const auto& key : canonicalize(std::move(keyed))) {
    auto frame = crypto::esp_encapsulate(sa, {key.data() + kL2, key.size() - kL2}, seq++);
    std::copy(key.begin(), key.begin() + kL2, frame.begin());
    out.push_back(std::move(frame));
  }
  return canonicalize(std::move(out));
}

}  // namespace ps::cap
