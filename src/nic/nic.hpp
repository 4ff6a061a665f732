// Functional model of one 10 GbE port of an Intel 82599 (X520-DA2) NIC:
// multi-queue RX/TX descriptor rings backed by huge packet buffers, RSS
// steering, per-queue statistics, and DMA cost charging against the
// machine's IOH channels. The model raises no interrupts: the io-engine
// polls its rings.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "common/atomic_shim.hpp"
#include "common/cacheline.hpp"
#include "common/types.hpp"
#include "fault/fault_injector.hpp"
#include "mem/huge_buffer.hpp"
#include "nic/rss.hpp"
#include "nic/wire.hpp"
#include "pcie/topology.hpp"
#include "perf/ledger.hpp"

namespace ps::nic {

struct NicConfig {
  u16 num_rx_queues = 1;
  u16 num_tx_queues = 1;
  u32 ring_size = 512;  // descriptors (= huge-buffer cells) per queue
  /// Section 4.4: per-queue, cache-line-aligned statistics (the fix) vs
  /// one shared per-NIC counter block (the pathology the bench ablates).
  bool per_queue_stats = true;
};

/// POD snapshot of one queue's counters.
struct QueueStats {
  u64 packets = 0;
  u64 bytes = 0;
  u64 drops = 0;  // ring-full drops (RX) or backpressure rejects (TX)
};

/// Live per-queue counter block. Single-writer relaxed atomics (the same
/// discipline as the router's worker counters): the owning path increments
/// with relaxed RMWs, and any thread — stats queries, telemetry probes —
/// may snapshot concurrently without a data race.
struct AtomicQueueStats {
  // mc: nic.queue_stats -- single-writer relaxed per-queue counters
  ps::atomic<u64> packets{0};
  // mc: nic.queue_stats
  ps::atomic<u64> bytes{0};
  // mc: nic.queue_stats
  ps::atomic<u64> drops{0};

  QueueStats snapshot() const {
    return {packets.load(std::memory_order_relaxed), bytes.load(std::memory_order_relaxed),
            drops.load(std::memory_order_relaxed)};
  }
};

/// Reference to one received packet still resident in a huge-buffer cell.
struct RxSlot {
  u32 cell = 0;
  const u8* data = nullptr;
  u16 length = 0;
  u32 rss_hash = 0;
  u32 crc = 0;  // NIC's CRC32C over the wire bytes (integrity stamp)
  bool checksum_ok = true;
};

class NicPort {
 public:
  NicPort(int port_id, const pcie::Topology& topo, const NicConfig& config);

  int port_id() const { return port_id_; }
  int numa_node() const { return node_; }
  const NicConfig& config() const { return config_; }
  net::MacAddr mac() const { return net::MacAddr::for_port(static_cast<u32>(port_id_)); }

  /// Ledger receiving this port's DMA / wire charges (may be null).
  void set_ledger(perf::CostLedger* ledger) { ledger_ = ledger; }

  /// NUMA-blind mode (section 4.5 ablation): a fraction of packet DMA
  /// targets the remote node's memory, traversing both IOHs at reduced
  /// efficiency. Default off — NUMA-aware placement never crosses.
  void set_numa_blind(bool blind) { numa_blind_ = blind; }

  /// Peer receiving transmitted frames (may be null = drop after counting).
  void set_wire_sink(WireSink* sink) { wire_sink_ = sink; }

  /// Current TX peer (null when defaulted) — lets a capture tap interpose
  /// itself between the port and the existing sink (cap::PortTap).
  WireSink* wire_sink() const { return wire_sink_; }

  /// RX-side wire tap (may be null = off): sees every frame that arrives
  /// on the wire, *before* ring-full or carrier drops — the semantics of a
  /// passive optical tap, which observes the wire, not the driver. Used by
  /// ps::cap to record live captures (DESIGN.md §18).
  void set_rx_tap(WireSink* tap) { rx_tap_ = tap; }

  /// Route this port's fault-injection checks through `injector` (null
  /// disables). Registered points: "nic.rx_ring_full" (RX ring-full burst),
  /// "nic.rx_corrupt" (frame corrupted on DMA, flagged in the descriptor),
  /// "nic.tx_reject" (TX-ring backpressure), "mem.cell_exhausted"
  /// (huge-buffer cell unavailable), "mem.bitflip" (*silent* bit flip in
  /// the huge-buffer cell after DMA: descriptor status stays ok, only the
  /// integrity layer's wire-CRC check can see it), "nic.link_down.<port>"
  /// (per-frame link fault, both directions), and "nic.link_flap.<port>"
  /// (carrier loss: the link-state latch below goes down for the window).
  /// The injector must outlive the port.
  void set_fault_injector(fault::FaultInjector* injector);

  // --- link state (carrier) ------------------------------------------------

  /// Carrier latch driven by the "nic.link_flap.<port>" fault window: an
  /// in-window wire/TX event takes the link down, the first one past the
  /// window restores it. The io-engine stops polling a down port's RX
  /// queues (the driver honours loss of carrier) and resumes when it
  /// comes back.
  bool link_up() const { return link_up_.load(std::memory_order_acquire); }
  /// Up->down transitions observed.
  u64 link_flaps() const { return link_flaps_.load(std::memory_order_relaxed); }
  /// Frames lost on the wire (RX) or rejected at TX while the carrier was
  /// out. Also counted in the affected queue's drops.
  u64 carrier_lost_frames() const {
    return carrier_lost_frames_.load(std::memory_order_relaxed);
  }

  /// Program the RSS indirection table to spread over RX queues
  /// [first, first+n); defaults to all queues.
  void configure_rss(u16 first_queue, u16 num_queues);

  // --- wire side (called by the traffic source / peer port) --------------

  /// Frame arrives from the wire: parse for RSS, steer to an RX queue,
  /// DMA into its huge buffer. Returns false when the ring is full (drop).
  bool receive_frame(std::span<const u8> frame);

  // --- driver side (called by the io-engine) ------------------------------

  /// Number of filled, unconsumed RX descriptors in a queue.
  u32 rx_available(u16 queue) const;

  /// Fetch up to `max` received packets without consuming them.
  u32 rx_peek(u16 queue, RxSlot* out, u32 max) const;

  /// Consume (recycle) the oldest `count` RX descriptors of a queue.
  void rx_release(u16 queue, u32 count);

  /// Transmit one frame on a TX queue: DMA from host memory and put it on
  /// the wire. Returns false on TX-ring backpressure.
  bool transmit(u16 queue, std::span<const u8> frame);

  // --- statistics ----------------------------------------------------------

  QueueStats rx_queue_stats(u16 queue) const { return rx_stats_[queue]->snapshot(); }

  /// Per-port totals, accumulated from per-queue counters on demand — the
  /// cheap-statistics design of section 4.4 (cost paid only on the rare
  /// ifconfig/ethtool-style query, not per packet).
  QueueStats rx_totals() const;
  QueueStats tx_totals() const;

 private:
  struct RxQueueState {
    std::unique_ptr<mem::HugePacketBuffer> buffer;
    // SPSC across threads: the wire side produces (head), the one owning
    // core consumes (tail) — the same single-writer discipline that lets
    // the real engine go lock-free (section 4.4).
    // mc: nic.ring.head -- wire-side producer index; release publish
    ps::atomic<u32> head{0};  // next cell hardware fills
    // mc: nic.ring.tail -- owning-core consumer index; release return
    ps::atomic<u32> tail{0};  // next cell software consumes

    u32 count() const {
      return head.load(std::memory_order_acquire) - tail.load(std::memory_order_acquire);
    }
  };

  struct TxQueueState {
    std::unique_ptr<mem::HugePacketBuffer> buffer;
    u32 next_cell = 0;
  };

  void charge_rx_dma(u32 frame_bytes);
  void charge_tx_dma(u32 frame_bytes);
  void charge_dma(perf::ResourceKind channel, Picos occupancy);
  /// Evaluate the per-port link-flap point and update the carrier latch.
  /// Returns true while the carrier is out for this event.
  bool link_fault_active();

  int port_id_;
  int node_;
  int ioh_;
  bool dual_ioh_;
  NicConfig config_;
  RssIndirectionTable rss_table_;

  std::vector<RxQueueState> rx_queues_;
  std::vector<TxQueueState> tx_queues_;
  // Cache-line isolation of per-queue statistics is the §4.4 false-sharing
  // fix. With per_queue_stats=false the counters are packed back to back
  // (adjacent queues share cache lines), the layout the ablation measures.
  std::vector<CacheAligned<AtomicQueueStats>> rx_stats_aligned_;
  std::vector<CacheAligned<AtomicQueueStats>> tx_stats_aligned_;
  std::vector<AtomicQueueStats> rx_stats_packed_;
  std::vector<AtomicQueueStats> tx_stats_packed_;
  std::vector<AtomicQueueStats*> rx_stats_;
  std::vector<AtomicQueueStats*> tx_stats_;

  perf::CostLedger* ledger_ = nullptr;
  fault::FaultInjector* injector_ = nullptr;
  std::string link_down_point_;  // "nic.link_down.<port>", precomputed
  std::string link_flap_point_;  // "nic.link_flap.<port>", precomputed
  // mc: nic.link -- carrier latch + flap counters (relaxed telemetry)
  ps::atomic<bool> link_up_{true};
  // mc: nic.link
  ps::atomic<u64> link_flaps_{0};
  // mc: nic.link
  ps::atomic<u64> carrier_lost_frames_{0};
  bool numa_blind_ = false;
  WireSink* wire_sink_ = nullptr;
  WireSink* rx_tap_ = nullptr;
  NullWire default_sink_;
};

}  // namespace ps::nic
