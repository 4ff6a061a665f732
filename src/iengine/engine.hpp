// User-level packet I/O engine (sections 4 and 5.2).
//
// Design points carried over from the paper:
//  - batched RX/TX with one "system call" per chunk, amortizing the
//    per-packet mode-switch cost (Figure 5);
//  - packets are copied from huge-buffer cells into the chunk's contiguous
//    user buffer with offset/length arrays (section 4.3);
//  - explicit per-(NIC, RX queue) virtual interfaces owned by exactly one
//    thread — no shared per-NIC queue, no locks (Figure 8(b));
//  - round-robin fetching over a thread's virtual interfaces for fairness.
//
// The paper's engine also blocks on an RX interrupt when its queues run
// dry (section 5.2). This one never blocks: a receive on dry queues
// returns 0, and the router's idle worker naps on its WakeSignal instead
// (DESIGN.md section 2).
//
// CPU costs of the kernel path are charged per calibration so the model
// reproduces Figures 5 and 6.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "common/atomic_shim.hpp"

#include "iengine/chunk.hpp"
#include "nic/nic.hpp"
#include "pcie/topology.hpp"

namespace ps::iengine {

struct EngineConfig {
  /// Charge the §4.5 NUMA-blind penalty when a thread drains a queue whose
  /// NIC lives on another node (used by bench_ablation_numa).
  bool numa_aware = true;
  /// Models the §4.4 pathologies when false (shared counters, unaligned
  /// per-queue data) by charging the extra per-packet cycles.
  bool multiqueue_fixes = true;
};

/// A (port, RX queue) pair — the unit a virtual interface binds.
struct QueueRef {
  int port = 0;
  u16 queue = 0;
};

class PacketIoEngine;

/// Per-thread handle: the set of virtual interfaces one core owns. Create
/// via PacketIoEngine::attach().
class IoHandle {
 public:
  int core() const { return core_; }
  const std::vector<QueueRef>& queues() const { return queues_; }

  /// Fetch up to the batch cap from this handle's queues, round-robin,
  /// starting from where the last call left off. Returns packets fetched
  /// (0 when everything is dry). Non-blocking. Ports whose carrier is out
  /// (nic link state) are skipped until the link recovers.
  u32 recv_chunk(PacketChunk& chunk);

  /// Overload-control variant: fetch at most `batch_cap` packets in this
  /// call and at most `per_queue_cap` of them from any one virtual
  /// interface. Workers under backpressure shrink `batch_cap` (shedding
  /// then happens at the NIC RX ring — the cheapest drop point) and use
  /// `per_queue_cap` as a weighted admission quota so one hot port cannot
  /// starve the others out of the shrunk batch.
  u32 recv_chunk(PacketChunk& chunk, u32 batch_cap, u32 per_queue_cap);

  /// Transmit the chunk's forwarded packets to their out_ports on this
  /// handle's TX queue. A full TX ring is retried with a bounded spin
  /// (charged to the perf ledger); packets still rejected after the budget
  /// are marked kDrop/kRingFull in the chunk — never silently lost.
  /// Returns packets actually sent. Equivalent to stage_chunk_tx() +
  /// flush_tx() — one doorbell per port this chunk touched.
  u32 send_chunk(PacketChunk& chunk);

  /// Doorbell-batched transmit, part 1: queue the chunk's forwarded
  /// packets on their TX rings exactly as send_chunk does (same retry,
  /// same kRingFull drops, same per-packet charges) but *stage* the
  /// per-(port, tx_queue) doorbell instead of ringing it. The caller
  /// amortizes doorbells across a whole scatter batch by staging many
  /// chunks and then calling flush_tx() once. Frames staged here are not
  /// guaranteed on the wire until flush_tx() returns.
  u32 stage_chunk_tx(PacketChunk& chunk);

  /// Doorbell-batched transmit, part 2: ring one doorbell (the
  /// per-batch TX charge) for every distinct port touched since the last
  /// flush. Returns the number of doorbells rung. Idempotent when nothing
  /// is staged.
  u32 flush_tx();

  /// Transmit one standalone frame (e.g. a slow-path ICMP reply) on this
  /// handle's TX queue of `port`. Returns false on invalid port or
  /// TX reject.
  bool send_frame(int port, std::span<const u8> frame);

  /// Total packets this handle dropped at send time (TX reject / bad port).
  /// Written only by the owning worker (relaxed); readable from any thread.
  u64 tx_drops() const { return tx_drops_.load(std::memory_order_relaxed); }

 private:
  friend class PacketIoEngine;

  IoHandle(PacketIoEngine* engine, int core, u16 tx_queue, std::vector<QueueRef> queues);

  u32 recv_from_queue(const QueueRef& ref, PacketChunk& chunk, u32 max_take);

  PacketIoEngine* engine_;
  int core_;
  u16 tx_queue_;  // this core's private TX queue index on every port
  std::vector<QueueRef> queues_;
  std::size_t rr_cursor_ = 0;
  // RX descriptor scratch reused across recv_from_queue calls (grow-only,
  // no synchronization: the io_token keeps a handle single-consumer).
  std::vector<nic::RxSlot> rx_scratch_;
  // Staged TX doorbells: ports touched by stage_chunk_tx since the last
  // flush_tx. Owner-thread only (same io_token discipline as rx_scratch_);
  // sized once at construction so staging never allocates.
  std::vector<u8> tx_port_touched_;
  std::vector<i16> tx_touched_list_;

  // mc: engine.tx_drops -- relaxed backpressure-reject counter
  ps::atomic<u64> tx_drops_{0};
};

class PacketIoEngine {
 public:
  /// `ports` outlive the engine. TX queue `i` on every port is reserved
  /// for core `i`; ports must be configured with enough TX queues.
  PacketIoEngine(const pcie::Topology& topo, std::vector<nic::NicPort*> ports,
                 EngineConfig config = {});

  PacketIoEngine(const PacketIoEngine&) = delete;
  PacketIoEngine& operator=(const PacketIoEngine&) = delete;

  /// Bind a set of RX queues to a core. Each (port, queue) pair must be
  /// attached at most once — virtual interfaces are exclusive by design.
  IoHandle* attach(int core, std::vector<QueueRef> queues);

  const pcie::Topology& topology() const { return topo_; }
  nic::NicPort* port(int id) const { return ports_.at(static_cast<std::size_t>(id)); }
  std::size_t num_ports() const { return ports_.size(); }
  const EngineConfig& config() const { return config_; }

 private:
  friend class IoHandle;

  pcie::Topology topo_;
  std::vector<nic::NicPort*> ports_;
  EngineConfig config_;
  std::vector<std::unique_ptr<IoHandle>> handles_;
  // (port, queue) -> owning handle: attach() asserts each is bound once.
  std::vector<std::vector<IoHandle*>> queue_owner_;
};

}  // namespace ps::iengine
