// Steady-state throughput model executor (DESIGN.md §4).
//
// Drives the per-chunk pipeline (core::Pipeline, the same stage code the
// threaded core::Router runs) — generator → NIC DMA → io-engine → admit →
// pre-shade → gather → shade (GPU) → scatter → post-shade → TX —
// deterministically on one host thread, every stage charging its modeled
// resource. The sustainable rate is work / busiest-resource-time: the
// model clock behind every Figure 5/6/11 number. The Router is the wall
// clock (fig12, benchmark/ps_bench); what stays here is only what the
// model clock needs — charge scopes, minimal forwarding, the RX-only and
// TX-only modes, and a no-retry CPU re-shade when a batch fails.
#pragma once

#include <optional>
#include <string>

#include "core/pipeline.hpp"
#include "core/shader.hpp"
#include "core/testbed.hpp"
#include "gen/source.hpp"
#include "gen/traffic.hpp"
#include "integrity/integrity.hpp"

namespace ps::core {

struct ModelResult {
  u64 offered = 0;     // frames handed to the NICs
  u64 accepted = 0;    // frames that fit in RX rings
  u64 forwarded = 0;   // frames transmitted
  u64 dropped = 0;
  u64 slow_path = 0;

  double input_gbps = 0.0;   // offered-side wire throughput at the bottleneck
  double output_gbps = 0.0;  // transmitted wire throughput
  double mpps = 0.0;         // forwarded packet rate
  std::string bottleneck;
};

class ModelDriver {
 public:
  /// `shader` == nullptr runs minimal forwarding (RX + TX, no lookup):
  /// the Figure 5 / Figure 6 "forwarding" workload. Minimal forwarding
  /// echoes each packet to a fixed peer port (0<->1, 2<->3, ...), or to a
  /// port on the other node when `node_crossing` is set.
  ModelDriver(Testbed& testbed, Shader* shader, RouterConfig config);

  /// Drive ~`target_packets` through the pipeline and report model-clock
  /// throughput.
  ModelResult run(gen::TrafficGen& traffic, u64 target_packets);

  /// Same, fed by any FrameSource (e.g. cap::PcapReplayer). A finite
  /// source ends the run early: when it stops producing, everything
  /// already in the rings has been drained and the result covers exactly
  /// the frames the source emitted. Not valid with IoMode::kTxOnly (TX
  /// synthesis needs the generator itself).
  ModelResult run(gen::FrameSource& source, u64 target_packets);

  /// Minimal-forwarding behaviour flags.
  void set_node_crossing(bool v) { node_crossing_ = v; }
  /// Restrict the run to the first `n` worker cores (0 = all); used by the
  /// single-core Figure 5 sweep.
  void set_active_workers(int n) { active_workers_ = n; }
  /// RX-only (drop after fetch) and TX-only (synthesize at TX) modes for
  /// Figure 6's RX/TX series.
  enum class IoMode { kForward, kRxOnly, kTxOnly };
  void set_io_mode(IoMode mode) { io_mode_ = mode; }

  /// Resource charges accumulated by the last run() (for ablation benches
  /// that inspect per-resource busy time directly).
  const perf::CostLedger& ledger() const { return ledger_; }

  /// Attach the data-plane integrity layer for overhead ablation: the
  /// pipeline's boundary checks (RX admission, gather, scatter, pre-TX)
  /// and sampled shadow verification then charge their CPU cost to the
  /// ambient ledger so benches can price them. Null = off (the default);
  /// the checker must outlive the driver.
  void set_integrity(integrity::IntegrityChecker* checker) {
    pipeline_ = Pipeline(shader_, checker);
  }

 private:
  /// Shared pipeline loop: `txonly_traffic` is non-null only for the
  /// TrafficGen overload (TX-only mode synthesizes frames directly).
  ModelResult run_impl(gen::FrameSource& source, gen::TrafficGen* txonly_traffic,
                       u64 target_packets);

  struct WorkerCtx {
    int core = 0;
    int node = 0;
    iengine::IoHandle* handle = nullptr;
  };

  void forward_minimal(iengine::PacketChunk& chunk) const;

  Testbed& testbed_;
  Shader* shader_;
  RouterConfig config_;
  Pipeline pipeline_;
  /// One for the whole run: the model's masters shade in turn on one thread.
  ShadowState shadow_;
  perf::CostLedger ledger_;
  std::vector<WorkerCtx> workers_;
  std::vector<std::vector<JobPtr>> node_pending_;  // gathered jobs per node
  bool node_crossing_ = false;
  int active_workers_ = 0;
  IoMode io_mode_ = IoMode::kForward;
};

}  // namespace ps::core
