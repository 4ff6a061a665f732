// Wire-to-wire benchmark of the threaded core::Router (README.md).
//
//   ps_bench --workload NAME --seconds S [--seed N] [--trace 0|1]
//
// One open-loop generator (this thread) offers tagged frames to the NIC
// ports on a constant-rate schedule; the WireTap sink timestamps every
// transmitted frame against its due time. --trace 0 prints the end-to-end
// metrics, --trace 1 the per-layer ones, both as the last stdout line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Progress and a readable table go to stderr. Exit status 1 when any
// correctness gate fails.
#include <malloc.h>
#include <pthread.h>
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "apps/dynamic_ipv4.hpp"
#include "apps/dynamic_ipv6.hpp"
#include "apps/ipsec_gateway.hpp"
#include "core/model_driver.hpp"
#include "core/router.hpp"
#include "core/testbed.hpp"
#include "gen/traffic.hpp"
#include "histogram.hpp"
#include "mem/huge_buffer.hpp"
#include "route/fib_manager.hpp"
#include "route/rib_gen.hpp"
#include "telemetry/alloc_stats.hpp"
#include "telemetry/exporter.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/tracer.hpp"
#include "timed_shader.hpp"
#include "wire.hpp"

namespace psbench {
namespace {

using namespace std::chrono_literals;
namespace core = ps::core;
namespace route = ps::route;
namespace telemetry = ps::telemetry;

enum class App : u8 { kIpv4, kIpv6, kIpsec };

struct Workload {
  const char* name;
  App app;
  bool gpu;      // CPU+GPU (1 worker + 1 master) or CPU-only (1 worker)
  bool churn;    // a control thread announces/withdraws routes meanwhile
  u64 rate_pps;  // offered load; a multiple of 10 (whole 100 ms windows)
  u32 frame_size;  // 0 = IMIX 7:4:1
  u32 pool_size;   // distinct offered frames (IMIX: a multiple of 12)
};

// README.md says why each workload exists and what it should move.
constexpr std::array<Workload, 4> kWorkloads{{
    {"ipv4_500k", App::kIpv4, true, false, 500'000, 64, 1u << 18},
    {"ipv6_light", App::kIpv6, true, false, 100'000, 78, 1u << 16},
    {"ipsec_imix", App::kIpsec, true, false, 40'000, 0, 12 * 4096},
    {"ipv4_churn", App::kIpv4, false, true, 500'000, 64, 1u << 18},
}};

constexpr u32 kPorts = 4;            // pcie::Topology::single_node(): 2 NICs x 2 ports
constexpr u16 kModelNextHops = 8;    // ports of pcie::Topology::paper_server()
constexpr u64 kWarmupSeconds = 1;
constexpr u64 kChurnOpsPerSecond = 10'000;
constexpr auto kCommitInterval = 1ms;
constexpr u64 kSetupWarmupNs = 1'000'000'000;  // untimed set-ups, at least one
constexpr std::size_t kSetups = 5;  // timed set-ups after those, and again after the traffic
constexpr int kTrimThreshold = 1 << 30;
constexpr unsigned long kTimerSlackNs = 1;
constexpr u32 kTracerCapacity = 1u << 19;
constexpr u64 kModelPackets = 100'000;
constexpr double kMaxLagP50Us = 5.0;
constexpr double kMaxSpansLost = 0.01;
constexpr u64 kMinWindowFrames = 100;  // a window's p99 needs samples beyond it
constexpr u64 kMaxPauseNs = 10'000'000'000;  // then the frame is offered to a full ring

u64 now_ns() { return telemetry::PipelineTracer::now_ns(); }

u64 cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<u64>(ts.tv_sec) * 1'000'000'000ULL + static_cast<u64>(ts.tv_nsec);
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 != 0 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// --- inputs -----------------------------------------------------------------

/// Everything the run offers to the program, made from the seed before any
/// timing starts. The RIBs keep their fixed generator seeds.
struct Inputs {
  std::vector<route::Ipv4Prefix> rib4;
  std::vector<route::Ipv6Prefix> rib6;
  std::vector<route::Ipv4ChurnOp> churn;
  FramePool pool;
  ps::crypto::SecurityAssociation sa;
};

u64 ipv4_key(const route::Ipv4Prefix& p) { return (u64{p.network()} << 8) | p.length; }

/// Fill `pool` with `config`'s frames; the egress port of each comes from
/// `port_of` (FramePool::kAnyPort when not checked).
template <typename PortOf>
void fill_pool(FramePool& pool, const ps::gen::TrafficConfig& config, u32 size, PortOf port_of) {
  ps::gen::TrafficGen gen(config);
  ps::net::FrameBuffer frame;
  for (u32 k = 0; k < size; ++k) {
    gen.next_frame_into(frame);
    pool.append(frame, port_of(frame));
  }
}

std::vector<route::Ipv4Prefix> ipv4_rib(u16 next_hops) {
  return route::generate_ipv4_rib({.num_next_hops = next_hops});
}

std::vector<route::Ipv6Prefix> ipv6_rib(u16 next_hops) {
  return route::generate_ipv6_rib(route::kPaperIpv6PrefixCount, next_hops);
}

/// The traffic of workload `w` over a RIB (destinations drawn from
/// `rib4`/`rib6`, covered so every packet has a route).
ps::gen::TrafficConfig traffic_config(const Workload& w, u64 seed,
                                      std::span<const route::Ipv4Prefix> rib4,
                                      std::span<const route::Ipv6Prefix> rib6) {
  ps::gen::TrafficConfig c;
  c.seed = seed;
  switch (w.app) {
    case App::kIpv4:
      c.frame_size = w.frame_size;
      c.ipv4_dst_pool = route::sample_covered_ipv4(rib4, w.pool_size, seed);
      break;
    case App::kIpv6:
      c.kind = ps::gen::TrafficKind::kIpv6Udp;
      c.frame_size = w.frame_size;
      c.ipv6_dst_pool = route::sample_covered_ipv6(rib6, w.pool_size, seed);
      break;
    case App::kIpsec:
      c.size_dist = ps::gen::SizeDist::kImix;
      break;
  }
  return c;
}

Inputs make_inputs(const Workload& w, u64 seed, u64 seconds) {
  Inputs in;
  in.sa = ps::crypto::SecurityAssociation::make_test_sa(0x1111, ps::net::Ipv4Addr(172, 16, 0, 1),
                                                         ps::net::Ipv4Addr(172, 16, 0, 2));
  switch (w.app) {
    case App::kIpv4: {
      in.rib4 = ipv4_rib(kPorts);
      std::vector<route::Ipv4Prefix> covering = in.rib4;
      ReferenceLpm ref;
      for (const auto& p : in.rib4) ref.insert(u64{p.network()} << 32, p.length, p.next_hop);
      if (w.churn) {
        // Destinations come only from base prefixes the stream never
        // withdraws, so every packet keeps a route while routes change.
        in.churn = route::generate_ipv4_churn(
            in.rib4, kChurnOpsPerSecond * (kWarmupSeconds + seconds + 1), kPorts, seed);
        std::unordered_set<u64> withdrawn;
        for (const auto& op : in.churn) {
          if (!op.announce) withdrawn.insert(ipv4_key(op.prefix));
        }
        std::erase_if(covering, [&](const auto& p) { return withdrawn.contains(ipv4_key(p)); });
      }
      fill_pool(in.pool, traffic_config(w, seed, covering, {}), w.pool_size,
                [&](const ps::net::FrameBuffer& f) -> u16 {
                  if (w.churn) return FramePool::kAnyPort;
                  const u32 dst = ps::load_be32(f.data() + sizeof(ps::net::EthernetHeader) +
                                                offsetof(ps::net::Ipv4Header, dst_be));
                  return ref.lookup(u64{dst} << 32);
                });
      break;
    }
    case App::kIpv6: {
      in.rib6 = ipv6_rib(kPorts);
      ReferenceLpm ref;
      for (const auto& p : in.rib6) ref.insert(p.addr.hi64(), p.length, p.next_hop);
      fill_pool(in.pool, traffic_config(w, seed, {}, in.rib6), w.pool_size,
                [&](const ps::net::FrameBuffer& f) -> u16 {
                  return ref.lookup(ps::load_be64(f.data() + sizeof(ps::net::EthernetHeader) +
                                                  offsetof(ps::net::Ipv6Header, dst_bytes)));
                });
      break;
    }
    case App::kIpsec:
      fill_pool(in.pool, traffic_config(w, seed, {}, {}), w.pool_size,
                [](const ps::net::FrameBuffer&) { return FramePool::kAnyPort; });
      break;
  }
  for (const u16 port : in.pool.expect_port) {
    if (port != FramePool::kAnyPort && port >= kPorts) {
      std::fprintf(stderr, "ps_bench: offered destination without a route (port %u)\n", port);
      std::exit(2);
    }
  }
  return in;
}

// --- the program under test ---------------------------------------------------

/// One set-up of the router. Members are destroyed in reverse order: the
/// router stops before the app, testbed and FIB it uses go away.
struct Rig {
  std::unique_ptr<route::Ipv4Fib> fib4;
  std::unique_ptr<route::Ipv6Fib> fib6;
  std::unique_ptr<core::Testbed> testbed;
  std::unique_ptr<core::Shader> app;
  std::unique_ptr<TimedShader> timed;
  std::unique_ptr<core::Router> router;
};

core::RouterConfig router_config(const Workload& w) {
  core::RouterConfig c;
  c.use_gpu = w.gpu;
  // Concurrent copy and execution, as the paper runs IPsec (section 5.4).
  if (w.app == App::kIpsec) c.num_streams = 2;
  return c;
}

/// FIB build, testbed, router, and Router::start (which binds and uploads
/// the GPU tables) — what setup_s times.
std::unique_ptr<Rig> set_up(const Workload& w, const Inputs& in, WireTap& tap,
                            telemetry::PipelineTracer* tracer,
                            telemetry::MetricsRegistry* registry) {
  auto rig = std::make_unique<Rig>();
  switch (w.app) {
    case App::kIpv4:
      rig->fib4 = std::make_unique<route::Ipv4Fib>();
      for (const auto& p : in.rib4) rig->fib4->announce(p);
      rig->fib4->commit();
      rig->app = std::make_unique<ps::apps::DynamicIpv4ForwardApp>(*rig->fib4);
      break;
    case App::kIpv6:
      rig->fib6 = std::make_unique<route::Ipv6Fib>();
      for (const auto& p : in.rib6) rig->fib6->announce(p);
      rig->fib6->commit();
      rig->app = std::make_unique<ps::apps::DynamicIpv6ForwardApp>(*rig->fib6);
      break;
    case App::kIpsec:
      rig->app = std::make_unique<ps::apps::IpsecGatewayApp>(in.sa);
      break;
  }
  const core::RouterConfig rcfg = router_config(w);
  ps::pcie::Topology topo = ps::pcie::Topology::single_node();
  topo.cores_per_node = w.gpu ? 2 : 1;  // 1 worker (+ 1 master)
  rig->testbed = std::make_unique<core::Testbed>(
      core::TestbedConfig{.topo = topo, .use_gpu = w.gpu, .ring_size = 4096, .gpu_pool_workers = 0},
      rcfg);
  rig->testbed->connect_sink(&tap);
  core::Shader* shader = rig->app.get();
  if (tracer != nullptr) {
    rig->timed = std::make_unique<TimedShader>(*rig->app, *tracer);
    shader = rig->timed.get();
  }
  rig->router =
      std::make_unique<core::Router>(rig->testbed->engine(), rig->testbed->gpus(), *shader, rcfg);
  if (tracer != nullptr) rig->router->set_tracer(tracer);
  if (registry != nullptr) rig->router->set_telemetry(registry);
  rig->router->start();
  return rig;
}

// --- route churn --------------------------------------------------------------

/// The churn workload's control plane: a thread of its own announces and
/// withdraws the stream's routes at kChurnOpsPerSecond and commits every
/// kCommitInterval. While tracing is on it times each call.
class ChurnControl {
 public:
  ChurnControl(route::Ipv4Fib& fib, std::span<const route::Ipv4ChurnOp> ops, u64 t0_ns,
               const telemetry::PipelineTracer* tracer)
      : fib_(fib), ops_(ops), t0_ns_(t0_ns), tracer_(tracer), thread_([this] { run(); }) {}
  ~ChurnControl() { stop(); }
  ChurnControl(const ChurnControl&) = delete;
  ChurnControl& operator=(const ChurnControl&) = delete;

  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }
  clockid_t cpu_clock() {
    clockid_t id{};
    pthread_getcpuclockid(thread_.native_handle(), &id);
    return id;
  }
  /// Operation-time allocations, so the data path's count can exclude them.
  u64 allocations() const { return allocations_.load(std::memory_order_relaxed); }

  // Read after stop().
  Quantiles op_ns;      // one announce or withdraw
  Quantiles commit_ns;  // one commit
  bool exhausted = false;

 private:
  void run() {
    std::size_t next = 0;
    auto tick = std::chrono::steady_clock::time_point(std::chrono::nanoseconds(t0_ns_));
    while (!stop_.load(std::memory_order_relaxed)) {
      tick += kCommitInterval;
      std::this_thread::sleep_until(tick);
      const u64 elapsed = static_cast<u64>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(tick.time_since_epoch()).count()) -
                          t0_ns_;
      const std::size_t due = static_cast<std::size_t>(elapsed * kChurnOpsPerSecond / 1'000'000'000ULL);
      const bool timed = tracer_ != nullptr && tracer_->enabled();
      const u64 allocs0 = telemetry::allocations();
      for (; next < due && next < ops_.size(); ++next) {
        const u64 t = now_ns();
        if (ops_[next].announce) {
          fib_.announce(ops_[next].prefix);
        } else {
          fib_.withdraw(ops_[next].prefix);
        }
        if (timed) op_ns.record(now_ns() - t);
      }
      exhausted = next == ops_.size();
      const u64 t = now_ns();
      fib_.commit();
      if (timed) commit_ns.record(now_ns() - t);
      allocations_.fetch_add(telemetry::allocations() - allocs0, std::memory_order_relaxed);
    }
  }

  route::Ipv4Fib& fib_;
  std::span<const route::Ipv4ChurnOp> ops_;
  const u64 t0_ns_;
  const telemetry::PipelineTracer* tracer_;
  std::atomic<bool> stop_{false};
  std::atomic<u64> allocations_{0};
  std::thread thread_;  // last: started once the members it uses exist
};

// --- traffic ------------------------------------------------------------------

/// Counters read at one instant; deltas between two give a phase's numbers.
struct Marks {
  u64 wall = 0;
  u64 process_cpu = 0;
  u64 generator_cpu = 0;
  u64 control_cpu = 0;
  u64 delivered = 0;
  u64 delivered_wire_bytes = 0;
  u64 allocations = 0;
  u64 tap_allocations = 0;
  u64 control_allocations = 0;
  core::WorkerStats stats;
  u64 nic_rx_drops = 0;
  u64 ring_full_spins = 0;
  u64 gpu_bytes_h2d = 0;
  u64 gpu_bytes_d2h = 0;
  u64 gpu_fallback_chunks = 0;
};

struct Traffic {
  Quantiles lag_measured;  // send - due over the measured window, ns
  Quantiles lag_traced;
  Quantiles ring_depth;  // RX ring occupancy sampled every 1 ms while tracing
  u64 rx_calls = 0;
  u64 rx_ns = 0;
  u64 paused = 0;  // untraced measured frames that waited for a full RX ring
  Marks measure_begin, measure_end, trace_begin, trace_end;
  u64 trace_end_frame = 0;  // first frame offered with tracing off again
};

Marks take_marks(Rig& rig, WireTap& tap, ChurnControl* control,
                 const telemetry::MetricsRegistry* registry) {
  Marks m;
  m.wall = now_ns();
  m.process_cpu = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
  m.generator_cpu = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
  if (control != nullptr) {
    m.control_cpu = cpu_ns(control->cpu_clock());
    m.control_allocations = control->allocations();
  }
  m.delivered = tap.delivered();
  m.delivered_wire_bytes = tap.delivered_wire_bytes();
  m.allocations = telemetry::allocations();
  m.tap_allocations = tap.own_allocations();
  m.stats = rig.router->total_stats();
  for (const auto* port : rig.testbed->ports()) m.nic_rx_drops += port->rx_totals().drops;
  if (registry != nullptr) {
    const auto snap = registry->snapshot();
    for (int w = 0; w < rig.router->num_workers(); ++w) {
      m.ring_full_spins += snap.value("ring." + std::to_string(w) + ".full_spins");
    }
  }
  for (const auto* gpu : rig.testbed->gpus()) {
    m.gpu_bytes_h2d += gpu->bytes_h2d();
    m.gpu_bytes_d2h += gpu->bytes_d2h();
  }
  if (!rig.testbed->gpus().empty()) {
    m.gpu_fallback_chunks = rig.router->gpu_health(0).cpu_fallback_chunks;
  }
  return m;
}

u32 rx_ring_depth(core::Testbed& testbed) {
  u32 depth = 0;
  for (const auto* port : testbed.ports()) {
    for (u16 q = 0; q < port->config().num_rx_queues; ++q) depth += port->rx_available(q);
  }
  return depth;
}

/// True while an RX queue of `port` is full, so the next frame could be
/// dropped there.
bool rx_full(const ps::nic::NicPort& port) {
  for (u16 q = 0; q < port.config().num_rx_queues; ++q) {
    if (port.rx_available(q) >= port.config().ring_size) return true;
  }
  return false;
}

/// The open-loop generator: offer frame i at t0 + i / rate, round-robin
/// over the ports, spinning (never sleeping) until each is due. The link
/// is lossless, as with Ethernet flow control: while the port's RX ring is
/// full the frame waits (for at most kMaxPauseNs), so a stall of the
/// router or the host shows as latency of the frames it delays, not as
/// frames lost. Tracing runs from `trace_first` until the end, or until
/// the tracer is close to full: its spans are drained once, after the run,
/// because draining mid-run would stall this thread.
Traffic offer_traffic(const Workload& w, const Schedule& sched, const FramePool& pool, Rig& rig,
                      WireTap& tap, ChurnControl* control, telemetry::PipelineTracer* tracer,
                      const telemetry::MetricsRegistry* registry, u64 trace_first) {
  Traffic t;
  const auto ports = rig.testbed->ports();
  const u32 tag_offset = w.app == App::kIpv6 ? kTagOffsetV6 : kTagOffsetV4;
  std::array<u8, ps::mem::kDataCellSize> scratch{};
  bool traced = false;
  u64 next_sample = sched.t0_ns;
  const u64 span_limit = tracer != nullptr ? tracer->capacity() - tracer->capacity() / 16 : 0;

  for (u64 i = 0; i < sched.total; ++i) {
    const u64 due = sched.due_ns(i);
    u64 now = now_ns();
    while (now < due) {
      cpu_relax();
      now = now_ns();
    }
    if (i == sched.first_measured) t.measure_begin = take_marks(rig, tap, control, registry);
    if (i == trace_first) {
      t.trace_begin = take_marks(rig, tap, control, registry);
      tracer->set_enabled(true);
      traced = true;
    }

    const std::span<const u8> src = pool.frame(i);
    std::memcpy(scratch.data(), src.data(), src.size());
    ps::store_be32(scratch.data() + tag_offset, static_cast<u32>(i));
    if (w.app == App::kIpv6) {
      // The tag changed UDP payload bytes: IPv6 makes the checksum mandatory.
      auto& ip = *reinterpret_cast<ps::net::Ipv6Header*>(scratch.data() +
                                                          sizeof(ps::net::EthernetHeader));
      ps::net::udp6_fill_checksum(
          ip, {scratch.data() + sizeof(ps::net::EthernetHeader) + sizeof(ps::net::Ipv6Header),
               ip.payload_length()});
    }
    tap.set_offered(i + 1);
    ps::nic::NicPort& port = *ports[i % ports.size()];
    if (rx_full(port)) {
      if (i >= sched.first_measured && i < trace_first) ++t.paused;
      const u64 give_up = now_ns() + kMaxPauseNs;
      while (rx_full(port) && now_ns() < give_up) cpu_relax();
    }
    if (traced) {
      const u64 t_rx = now_ns();
      port.receive_frame({scratch.data(), src.size()});
      t.rx_ns += now_ns() - t_rx;
      ++t.rx_calls;
    } else {
      port.receive_frame({scratch.data(), src.size()});
    }

    if (i >= sched.first_measured) t.lag_measured.record(now - due);
    if (traced) {
      t.lag_traced.record(now - due);
      if (now >= next_sample) {
        t.ring_depth.record(rx_ring_depth(*rig.testbed));
        next_sample = now + 1'000'000;
        if (tracer->spans_started() >= span_limit) {
          tracer->set_enabled(false);
          traced = false;
          t.trace_end = take_marks(rig, tap, control, registry);
          t.trace_end_frame = i + 1;
        }
      }
    }
  }
  t.measure_end = take_marks(rig, tap, control, registry);
  if (traced) {
    tracer->set_enabled(false);
    t.trace_end = t.measure_end;
    t.trace_end_frame = sched.total;
  }
  return t;
}

/// Wait until the RX rings are empty and every fetched packet has left
/// the pipeline. The offered stream has ended, so this thread may sleep.
bool wait_drained(Rig& rig) {
  const u64 deadline = now_ns() + 10'000'000'000ULL;
  while (now_ns() < deadline) {
    const core::WorkerStats s = rig.router->total_stats();
    if (rx_ring_depth(*rig.testbed) == 0 &&
        s.packets_in == s.packets_out + s.dropped() + s.slow_path) {
      return true;
    }
    std::this_thread::sleep_for(1ms);
  }
  return false;
}

// --- the model clock ------------------------------------------------------------

struct ModelOut {
  double mpps = 0.0;
  std::vector<std::pair<const char*, double>> ps_per_pkt;
};

/// core::ModelDriver on the paper's server for the same app and traffic
/// (the RIB has 8 next hops there; churn is not priced).
ModelOut run_model(const Workload& w, u64 seed, const ps::crypto::SecurityAssociation& sa) {
  const core::RouterConfig rcfg = router_config(w);
  core::Testbed testbed({.topo = ps::pcie::Topology::paper_server(), .use_gpu = w.gpu,
                         .ring_size = 1024},
                        rcfg);
  std::vector<route::Ipv4Prefix> rib4;
  std::vector<route::Ipv6Prefix> rib6;
  route::Ipv4Fib fib4;
  route::Ipv6Fib fib6;
  std::unique_ptr<core::Shader> app;
  switch (w.app) {
    case App::kIpv4:
      rib4 = ipv4_rib(kModelNextHops);
      for (const auto& p : rib4) fib4.announce(p);
      fib4.commit();
      app = std::make_unique<ps::apps::DynamicIpv4ForwardApp>(fib4);
      break;
    case App::kIpv6:
      rib6 = ipv6_rib(kModelNextHops);
      for (const auto& p : rib6) fib6.announce(p);
      fib6.commit();
      app = std::make_unique<ps::apps::DynamicIpv6ForwardApp>(fib6);
      break;
    case App::kIpsec:
      app = std::make_unique<ps::apps::IpsecGatewayApp>(sa);
      break;
  }
  ps::gen::TrafficGen traffic(traffic_config(w, seed, rib4, rib6));
  testbed.connect_sink(&traffic);
  core::ModelDriver driver(testbed, app.get(), rcfg);
  const core::ModelResult result = driver.run(traffic, kModelPackets);

  using ps::perf::ResourceKind;
  constexpr std::array<std::pair<const char*, ResourceKind>, 7> kKinds{{
      {"cpu", ResourceKind::kCpuCore},
      {"ioh_d2h", ResourceKind::kIohD2h},
      {"ioh_h2d", ResourceKind::kIohH2d},
      {"gpu_exec", ResourceKind::kGpuExec},
      {"gpu_copy", ResourceKind::kGpuCopy},
      {"port_rx", ResourceKind::kPortRx},
      {"port_tx", ResourceKind::kPortTx},
  }};
  ModelOut out;
  out.mpps = result.mpps;
  for (const auto& [name, kind] : kKinds) {
    ps::Picos busy = 0;
    for (const auto& [id, picos] : driver.ledger().entries()) {
      if (id.kind == kind) busy += picos;
    }
    out.ps_per_pkt.emplace_back(name, ratio(static_cast<double>(busy),
                                            static_cast<double>(result.forwarded)));
  }
  return out;
}

// --- one run ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Options {
  const Workload* workload = nullptr;
  u64 seed = 1;
  u64 seconds = 0;  // required: run.sh passes run_seconds from BENCHMARK.json
  bool trace = false;
};

void usage() {
  std::fprintf(stderr,
               "usage: ps_bench --workload NAME --seconds S [--seed N] [--trace 0|1]\n"
               "workloads:");
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
}

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      for (const auto& w : kWorkloads) {
        if (std::string_view(w.name) == value) o.workload = &w;
      }
      if (o.workload == nullptr) return std::nullopt;
      continue;
    }
    const unsigned long long n = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0') return std::nullopt;
    if (arg == "--seed") {
      o.seed = n;
    } else if (arg == "--seconds" && n >= 1 && n <= 60) {
      o.seconds = n;
    } else if (arg == "--trace" && n <= 1) {
      o.trace = n == 1;
    } else {
      return std::nullopt;
    }
  }
  if (o.workload == nullptr || o.seconds == 0) return std::nullopt;
  return o;
}

/// Collects gate failures; any one makes the run incorrect.
struct Gates {
  std::vector<std::string> failed;
  void require(bool ok, const std::string& what) {
    if (!ok) failed.push_back(what);
  }
};

void print_table(const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::fprintf(stderr, "  %-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
}

void print_result(const Gates& gates, u64 attempted, u64 failed,
                  const std::vector<Metric>& metrics) {
  print_table(metrics);
  for (const auto& g : gates.failed) std::fprintf(stderr, "GATE FAILED: %s\n", g.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              gates.failed.empty() ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run(const Options& opt) {
  const Workload& w = *opt.workload;
  std::fprintf(stderr, "ps_bench: %s seed=%llu seconds=%llu trace=%d\n", w.name,
               static_cast<unsigned long long>(opt.seed),
               static_cast<unsigned long long>(opt.seconds), opt.trace ? 1 : 0);
  // Before the inputs and the router allocate, so every buffer is placed
  // by the same rules (see setup_s below).
  if (mallopt(M_MMAP_MAX, 0) == 0 || mallopt(M_TRIM_THRESHOLD, kTrimThreshold) == 0) {
    std::fprintf(stderr, "ps_bench: mallopt failed\n");
    return 2;
  }
  const Inputs in = make_inputs(w, opt.seed, opt.seconds);

  Schedule sched;
  sched.rate_pps = w.rate_pps;
  sched.per_window = w.rate_pps / 10;
  sched.windows = static_cast<u32>(opt.seconds * 10);
  sched.first_measured = kWarmupSeconds * w.rate_pps;
  sched.total = sched.first_measured + sched.windows * sched.per_window;
  // --trace 1 measures the first half of the window untraced (for the
  // tracing overhead and the allocation count) and traces the second.
  const u32 first_traced_window = opt.trace ? sched.windows / 2 : sched.windows;
  const u64 trace_first = sched.first_measured + first_traced_window * sched.per_window;

  const Check check = w.app == App::kIpsec ? Check::kEsp
                      : w.app == App::kIpv6 ? Check::kIpv6Route
                      : w.churn             ? Check::kIpv4Ttl
                                            : Check::kIpv4Route;
  WireTap tap(in.pool, check, sched, &in.sa);

  std::unique_ptr<telemetry::PipelineTracer> tracer;
  std::unique_ptr<telemetry::MetricsRegistry> registry;
  if (opt.trace) {
    tracer = std::make_unique<telemetry::PipelineTracer>(kTracerCapacity);
    registry = std::make_unique<telemetry::MetricsRegistry>();
    tap.set_tracer(tracer.get());
  }

  // The router's threads inherit this thread's timer slack. With the
  // default 50 us an idle worker's 20 us nap ends anywhere up to 70 us
  // later, wherever the kernel coalesces it with other timers, and
  // lat_p50_us moved by a quarter between runs (README.md).
  prctl(PR_SET_TIMERSLACK, kTimerSlackNs);

  // setup_s: the median of kSetups set-ups after kSetupWarmupNs of untimed
  // ones (a single set-up when tracing), the last of which carries the
  // traffic, and kSetups more after the traffic. The host's contention
  // held one set-up speed for seconds and changed it from one process to
  // the next by up to a third, so the two groups, about run_seconds
  // apart, sample it twice (README.md).
  // The first set-up in a process page-faults in fresh memory, and with
  // glibc's defaults each later one kept a little more of it (the mmap
  // threshold rises whenever a large block is freed), so set-up times
  // moved with the host's memory pressure. With no mmapped blocks and no
  // trimming, set-ups after the first reuse the heap the process already
  // holds. The IPsec set-up still speeds up over its first ten to twenty
  // set-ups (11 ms to 4-5 ms) without a page fault; the warm-up outlasts
  // that. So setup_s times the set-up's own work on a warm process
  // (README.md).
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  const u64 warm_until = now_ns() + kSetupWarmupNs;
  do {
    rig.reset();
    rig = set_up(w, in, tap, tracer.get(), registry.get());
  } while (!opt.trace && now_ns() < warm_until);
  const auto timed_set_ups = [&] {
    for (std::size_t k = 0; k < kSetups; ++k) {
      rig.reset();
      const u64 t = now_ns();
      rig = set_up(w, in, tap, tracer.get(), registry.get());
      setup_s.push_back(static_cast<double>(now_ns() - t) / 1e9);
    }
  };
  if (!opt.trace) timed_set_ups();

  sched.t0_ns = now_ns();
  std::unique_ptr<ChurnControl> control;
  if (w.churn) {
    control = std::make_unique<ChurnControl>(*rig->fib4, in.churn, sched.t0_ns, tracer.get());
  }
  Traffic traffic =
      offer_traffic(w, sched, in.pool, *rig, tap, control.get(), tracer.get(), registry.get(),
                    trace_first);
  if (control) control->stop();
  const bool drained = wait_drained(*rig);
  rig->router->stop();

  Gates gates;
  const core::ConservationAudit audit = rig->router->audit();
  const core::WorkerStats stats = rig->router->total_stats();
  gates.require(drained, "router did not drain within 10 s");
  gates.require(audit.balanced(), "Router::audit() unbalanced after stop()");
  gates.require(tap.delivered() == stats.packets_out, "sink frames != router tx");
  gates.require(stats.dropped() == 0 && stats.slow_path == 0,
                "router dropped or slow-pathed a valid, routable frame");
  gates.require(tap.checked() > 0 && tap.check_failures() == 0,
                std::to_string(tap.check_failures()) + " of " + std::to_string(tap.checked()) +
                    " checked frames wrong");
  gates.require(tap.duplicates() == 0, std::to_string(tap.duplicates()) + " duplicate tags");
  gates.require(tap.unknown() == 0, std::to_string(tap.unknown()) + " unknown tags");
  const double lag_p50_us = traffic.lag_measured.quantile(0.5) / 1e3;
  gates.require(lag_p50_us < kMaxLagP50Us,
                "generator lag p50 " + std::to_string(lag_p50_us) + " us");
  if (control) gates.require(!control->exhausted, "churn stream ran out");

  // Sink windows: the untraced ones (all of them, or the first half with
  // --trace 1) and the traced ones.
  const u64 last_traced_window =
      opt.trace ? (traffic.trace_end_frame - sched.first_measured) / sched.per_window : 0;
  Quantiles untraced_lat, traced_lat;
  std::vector<double> window_p99;  // untraced windows only
  u64 frames = 0, untraced_frames = 0, traced_frames = 0, traced_lat_ns = 0;
  for (u32 i = 0; i < sched.windows; ++i) {
    const WireTap::Window& win = tap.window(i);
    const u64 n = win.frames.load();
    frames += n;
    if (i < first_traced_window) {
      untraced_lat.add(win.latency);
      untraced_frames += n;
      if (n >= kMinWindowFrames) {
        Quantiles q;
        q.add(win.latency);
        window_p99.push_back(q.quantile(0.99));
      }
    } else if (i < last_traced_window) {
      traced_lat.add(win.latency);
      traced_frames += n;
      traced_lat_ns += win.latency_ns.load();
    }
  }
  const u64 offered = sched.windows * sched.per_window;
  gates.require(frames > 0, "nothing delivered in the measured window");
  // A frame lost on the way counts as failed, as do wrong outputs.
  const u64 failed = offered - frames + tap.check_failures() + tap.duplicates() + tap.unknown();

  // Rates, latency and CPU cost of the untraced part of the window.
  const Marks& a = traffic.measure_begin;
  const Marks& b = opt.trace ? traffic.trace_begin : traffic.measure_end;
  const double window_s = static_cast<double>(b.wall - a.wall) / 1e9;
  const double delivered = static_cast<double>(b.delivered - a.delivered);
  const double router_cpu = static_cast<double>(b.process_cpu - a.process_cpu) -
                            static_cast<double>(b.generator_cpu - a.generator_cpu) -
                            static_cast<double>(b.control_cpu - a.control_cpu);
  const double untraced_offered = static_cast<double>(first_traced_window * sched.per_window);
  // Declared per-layer: on a shared host they moved by more than a tenth
  // between runs (README.md). An untraced run shows them on stderr.
  const std::vector<Metric> untraced = {
      {"lat_p50_us", untraced_lat.quantile(0.5) / 1e3, "us"},
      {"lat_p99_us", median(window_p99) / 1e3, "us"},
      {"router_cpu_ns_per_pkt", ratio(router_cpu, delivered), "ns"},
      {"loss_frac", 1.0 - ratio(static_cast<double>(untraced_frames), untraced_offered), "fraction"},
      {"nic.rx_pauses", static_cast<double>(traffic.paused), "count"},
  };
  if (!opt.trace) {
    timed_set_ups();
    print_table(untraced);
    print_result(gates, offered, failed,
                 {{"setup_s", median(setup_s), "s"},
                  {"goodput_mpps", delivered / window_s / 1e6, "Mpps"},
                  {"goodput_gbps",
                   static_cast<double>(b.delivered_wire_bytes - a.delivered_wire_bytes) * 8.0 /
                       window_s / 1e9,
                   "Gbps"}});
    return gates.failed.empty() ? 0 : 1;
  }

  // --- per-layer metrics (--trace 1) -----------------------------------------
  std::vector<telemetry::TraceSpan> spans;
  spans.reserve(tracer->spans_started());
  tracer->drain(spans);
  const double spans_lost =
      1.0 - ratio(static_cast<double>(spans.size()), static_cast<double>(tracer->spans_started()));
  gates.require(spans_lost < kMaxSpansLost,
                "tracer lost " + std::to_string(spans_lost * 100) + "% of spans");
  std::vector<telemetry::TraceSpan> gpu_spans;
  for (const auto& s : spans) {
    if (!s.cpu_path) gpu_spans.push_back(s);
  }
  const telemetry::StageBreakdown all_bd = telemetry::compute_stage_breakdown(spans);
  const telemetry::StageBreakdown gpu_bd = telemetry::compute_stage_breakdown(gpu_spans);
  const auto stage_us = [](const telemetry::StageBreakdown& bd, telemetry::Stage s) {
    return bd.mean_us[static_cast<std::size_t>(s)];
  };
  using telemetry::Stage;

  const TimedShader& app = *rig->timed;
  const auto per_call_us = [](const CallTiming& c) {
    return ratio(static_cast<double>(c.ns.load()), static_cast<double>(c.calls.load())) / 1e3;
  };
  const auto per_packet_ns = [](const CallTiming& c) {
    return ratio(static_cast<double>(c.ns.load()), static_cast<double>(c.packets.load()));
  };

  const Marks& tb = traffic.trace_begin;
  const Marks& end = traffic.trace_end;
  const double to_master = stage_us(gpu_bd, Stage::kMasterDequeue);
  const double scatter = w.gpu ? stage_us(gpu_bd, Stage::kScatter) : stage_us(all_bd, Stage::kScatter);
  const double wire_to_wire_us =
      ratio(static_cast<double>(traced_lat_ns), static_cast<double>(traced_frames)) / 1e3;
  const u64 d_chunks = end.stats.chunks - tb.stats.chunks;
  const u64 d_in = end.stats.packets_in - tb.stats.packets_in;
  const u64 d_cpu = end.stats.cpu_processed - tb.stats.cpu_processed;
  const u64 d_gpu = end.stats.gpu_processed - tb.stats.gpu_processed;
  const double shaded = static_cast<double>(app.shade_t.packets.load());

  // Allocations over the untraced half, without the tap's and the control
  // plane's own.
  const Marks& ma = traffic.measure_begin;
  const double data_path_allocs =
      static_cast<double>(tb.allocations - ma.allocations) -
      static_cast<double>(tb.tap_allocations - ma.tap_allocations) -
      static_cast<double>(tb.control_allocations - ma.control_allocations);

  std::vector<Metric> metrics = untraced;
  metrics.insert(metrics.end(), {
      {"nic.rx_ns", ratio(static_cast<double>(traffic.rx_ns), static_cast<double>(traffic.rx_calls)),
       "ns"},
      {"nic.rx_ring_drops", static_cast<double>(end.nic_rx_drops - tb.nic_rx_drops), "count"},
      {"nic.rx_ring_depth_p99", traffic.ring_depth.quantile(0.99), "count"},
      {"gen.lag_p99_us", traffic.lag_traced.quantile(0.99) / 1e3, "us"},
      {"core.span_us", all_bd.total_mean_us, "us"},
      {"core.pre_rx_us", wire_to_wire_us - all_bd.total_mean_us, "us"},
      {"core.to_master_us", to_master, "us"},
      {"core.handoff_wait_us", w.gpu ? to_master - per_call_us(app.pre_shade_t) : 0.0, "us"},
      {"core.gather_us", stage_us(gpu_bd, Stage::kGather), "us"},
      {"core.scatter_us", scatter, "us"},
      {"core.scatter_wait_us",
       scatter - per_call_us(w.gpu ? app.post_shade_t : app.process_cpu_t), "us"},
      {"core.tx_doorbell_us", stage_us(all_bd, Stage::kTxDoorbell), "us"},
      {"core.pkts_per_chunk", ratio(static_cast<double>(d_in), static_cast<double>(d_chunks)),
       "count"},
      {"core.cpu_path_frac", ratio(static_cast<double>(d_cpu), static_cast<double>(d_cpu + d_gpu)),
       "fraction"},
      {"core.bp_reduced_batches",
       static_cast<double>(end.stats.bp_reduced_batches - tb.stats.bp_reduced_batches), "count"},
      {"core.bp_diverted_chunks",
       static_cast<double>(end.stats.bp_diverted_chunks - tb.stats.bp_diverted_chunks), "count"},
      {"core.ring_full_spins", static_cast<double>(end.ring_full_spins - tb.ring_full_spins),
       "count"},
      {"apps.pre_shade_ns_per_pkt", per_packet_ns(app.pre_shade_t), "ns"},
      {"apps.shade_us_per_batch", per_call_us(app.shade_t), "us"},
      {"apps.shade_pkts_per_batch",
       ratio(shaded, static_cast<double>(app.shade_t.calls.load())), "count"},
      {"apps.post_shade_ns_per_pkt", per_packet_ns(app.post_shade_t), "ns"},
      {"apps.process_cpu_ns_per_pkt", per_packet_ns(app.process_cpu_t), "ns"},
      {"apps.shade_cpu_calls", static_cast<double>(app.shade_cpu_t.calls.load()), "count"},
      {"gpu.h2d_us", stage_us(gpu_bd, Stage::kH2d), "us"},
      {"gpu.kernel_us", stage_us(gpu_bd, Stage::kKernel), "us"},
      {"gpu.d2h_us", stage_us(gpu_bd, Stage::kD2h), "us"},
      {"gpu.h2d_bytes_per_pkt",
       ratio(static_cast<double>(end.gpu_bytes_h2d - tb.gpu_bytes_h2d), shaded), "B"},
      {"gpu.d2h_bytes_per_pkt",
       ratio(static_cast<double>(end.gpu_bytes_d2h - tb.gpu_bytes_d2h), shaded), "B"},
      {"gpu.cpu_fallback_chunks",
       static_cast<double>(end.gpu_fallback_chunks - tb.gpu_fallback_chunks), "count"},
      {"route.announce_ns_p99", control ? control->op_ns.quantile(0.99) : 0.0, "ns"},
      {"route.commit_us_p50", control ? control->commit_ns.quantile(0.5) / 1e3 : 0.0, "us"},
      {"route.commit_us_p99", control ? control->commit_ns.quantile(0.99) / 1e3 : 0.0, "us"},
      {"route.commits", control ? static_cast<double>(control->commit_ns.total()) : 0.0, "count"},
      {"mem.allocs_per_pkt",
       ratio(data_path_allocs, static_cast<double>(tb.delivered - ma.delivered)), "count"},
  });
  rig.reset();  // free the router's memory before the model builds its own
  const ModelOut model = run_model(w, opt.seed, in.sa);
  metrics.push_back({"model_mpps", model.mpps, "Mpps"});
  for (const auto& [kind, value] : model.ps_per_pkt) {
    metrics.push_back({std::string("model.") + kind + "_ps_per_pkt", value, "ps"});
  }
  metrics.push_back({"e2e.samples", static_cast<double>(traced_frames), "count"});
  metrics.push_back({"e2e.lat_p999_us", traced_lat.quantile(0.999) / 1e3, "us"});
  metrics.push_back(
      {"bench.sink_ns",
       ratio(static_cast<double>(tap.timed_ns()), static_cast<double>(tap.timed_frames())), "ns"});
  metrics.push_back({"bench.spans_lost", spans_lost, "fraction"});
  metrics.push_back({"bench.trace_overhead",
                     ratio(traced_lat.quantile(0.5), untraced_lat.quantile(0.5)), "ratio"});
  print_result(gates, offered, failed, metrics);
  return gates.failed.empty() ? 0 : 1;
}

}  // namespace
}  // namespace psbench

int main(int argc, char** argv) {
  const auto opt = psbench::parse(argc, argv);
  if (!opt) {
    psbench::usage();
    return 2;
  }
  return psbench::run(*opt);
}
