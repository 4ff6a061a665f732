#include "iengine/engine.hpp"

#include <cassert>
#include <thread>

#include "common/cacheline.hpp"
#include "perf/calibration.hpp"
#include "perf/ledger.hpp"

namespace ps::iengine {
namespace {

// Cycles burned by an empty poll of a virtual interface (ring-tail read).
constexpr double kEmptyPollCycles = 40.0;

// Bounded TX backpressure handling: a full ring is re-polled up to this
// many times with a doubling spin-wait before the packet is dropped.
constexpr u32 kTxRetryLimit = 4;
constexpr double kTxRetrySpinCyclesBase = 64.0;

double copy_cycles(u32 frame_bytes) {
  return static_cast<double>(cache_lines(frame_bytes)) * perf::kCopyCyclesPerCacheLine;
}

}  // namespace

IoHandle::IoHandle(PacketIoEngine* engine, int core, u16 tx_queue, std::vector<QueueRef> queues)
    : engine_(engine), core_(core), tx_queue_(tx_queue), queues_(std::move(queues)) {
  rx_scratch_.resize(PacketChunk::kDefaultMaxPackets);
  tx_port_touched_.assign(engine_->num_ports(), 0);
  tx_touched_list_.reserve(engine_->num_ports());
}

u32 IoHandle::recv_from_queue(const QueueRef& ref, PacketChunk& chunk, u32 max_take) {
  nic::NicPort* port = engine_->port(ref.port);
  if (!port->link_up()) return 0;  // carrier out: the driver stops polling
  const u32 room = std::min(chunk.max_packets() - chunk.count(), max_take);
  if (room == 0) return 0;

  // Reused descriptor scratch: sized once per handle (grow-only); the
  // io_token keeps each handle single-consumer, so no synchronization is
  // needed and the receive loop stays allocation-free.
  // pslint: allow(steady-state-growth) grow-only, reaches the largest
  // configured chunk after the first oversized burst and never shrinks
  if (rx_scratch_.size() < room) rx_scratch_.resize(room);
  nic::RxSlot* slots = rx_scratch_.data();
  const u32 n = port->rx_peek(ref.queue, slots, room);
  if (n == 0) {
    perf::charge_cpu_cycles(kEmptyPollCycles);
    return 0;
  }

  const bool remote_nic =
      engine_->topology().node_of_core(core_) != port->numa_node();

  for (u32 i = 0; i < n; ++i) {
    const auto& slot = slots[i];
    chunk.append({slot.data, slot.length}, slot.rss_hash, slot.crc);
    if (!slot.checksum_ok) {
      // NIC flagged the frame corrupted on the wire/DMA; keep it in the
      // chunk so the drop is accounted, but never forward it.
      chunk.set_drop(chunk.count() - 1, DropReason::kCorrupted);
    }

    double cycles = perf::kRxCyclesPerPacket + copy_cycles(slot.length);
    if (remote_nic && engine_->config().numa_aware) {
      // NUMA-aware configurations never create this binding; treat it as a
      // setup error rather than silently paying remote-access costs.
      assert(false && "numa-aware engine must not drain remote queues");
    }
    if (remote_nic) cycles += perf::kNumaBlindExtraCyclesPerPacket;
    if (!engine_->config().multiqueue_fixes) {
      cycles *= 1.0 + perf::kFalseSharingExtraCyclesPerPacket8Cores +
                perf::kSharedCounterExtraCyclesPerPacket8Cores;
    }
    perf::charge_cpu_cycles(cycles);
  }

  port->rx_release(ref.queue, n);
  if (chunk.in_port < 0) {
    chunk.in_port = ref.port;
    chunk.in_queue = ref.queue;
  }
  return n;
}

u32 IoHandle::recv_chunk(PacketChunk& chunk) {
  return recv_chunk(chunk, chunk.max_packets(), chunk.max_packets());
}

u32 IoHandle::recv_chunk(PacketChunk& chunk, u32 batch_cap, u32 per_queue_cap) {
  chunk.clear();
  if (queues_.empty() || batch_cap == 0 || per_queue_cap == 0) return 0;
  batch_cap = std::min(batch_cap, chunk.max_packets());

  // One engine call per chunk: the amortized "system call" (section 5.2).
  perf::charge_cpu_cycles(perf::kRxCyclesPerBatch);

  // Round-robin over this thread's virtual interfaces for fairness,
  // resuming after the queue the previous call stopped at. Under
  // backpressure the per-queue quota keeps the shrunk batch fair.
  u32 total = 0;
  for (std::size_t visited = 0; visited < queues_.size(); ++visited) {
    const QueueRef& ref = queues_[rr_cursor_];
    rr_cursor_ = (rr_cursor_ + 1) % queues_.size();
    total += recv_from_queue(ref, chunk, std::min(per_queue_cap, batch_cap - total));
    if (total >= batch_cap || chunk.count() == chunk.max_packets()) break;
  }
  return total;
}

u32 IoHandle::send_chunk(PacketChunk& chunk) {
  const u32 sent = stage_chunk_tx(chunk);
  flush_tx();
  return sent;
}

u32 IoHandle::stage_chunk_tx(PacketChunk& chunk) {
  if (chunk.empty()) return 0;

  u32 sent = 0;
  for (u32 i = 0; i < chunk.count(); ++i) {
    if (chunk.verdict(i) != PacketVerdict::kForward) continue;
    const i16 out = chunk.out_port(i);
    if (out < 0 || static_cast<std::size_t>(out) >= engine_->num_ports()) {
      chunk.set_drop(i, DropReason::kRingFull);
      tx_drops_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    double cycles = perf::kTxCyclesPerPacket + copy_cycles(chunk.length(i));
    if (!engine_->config().multiqueue_fixes) {
      cycles *= 1.0 + perf::kFalseSharingExtraCyclesPerPacket8Cores +
                perf::kSharedCounterExtraCyclesPerPacket8Cores;
    }
    perf::charge_cpu_cycles(cycles);

    bool ok = engine_->port(out)->transmit(tx_queue_, chunk.packet(i));
    for (u32 attempt = 0; !ok && attempt < kTxRetryLimit; ++attempt) {
      // Spin a little and re-poll the ring; the wait is real work the core
      // cannot overlap, so it lands on the ledger.
      perf::charge_cpu_cycles(kTxRetrySpinCyclesBase * static_cast<double>(1u << attempt));
      std::this_thread::yield();
      ok = engine_->port(out)->transmit(tx_queue_, chunk.packet(i));
    }
    if (ok) {
      ++sent;
      if (tx_port_touched_[static_cast<std::size_t>(out)] == 0) {
        tx_port_touched_[static_cast<std::size_t>(out)] = 1;
        tx_touched_list_.push_back(out);
      }
    } else {
      chunk.set_drop(i, DropReason::kRingFull);
      tx_drops_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return sent;
}

u32 IoHandle::flush_tx() {
  const u32 doorbells = static_cast<u32>(tx_touched_list_.size());
  for (const i16 port : tx_touched_list_) {
    // One "system call" per (port, tx_queue) per batch — the §5.2
    // amortization extended across every chunk staged since the last
    // flush, instead of paid per chunk.
    perf::charge_cpu_cycles(perf::kTxCyclesPerBatch);
    tx_port_touched_[static_cast<std::size_t>(port)] = 0;
  }
  tx_touched_list_.clear();
  return doorbells;
}

bool IoHandle::send_frame(int port, std::span<const u8> frame) {
  if (port < 0 || static_cast<std::size_t>(port) >= engine_->num_ports()) return false;
  perf::charge_cpu_cycles(perf::kTxCyclesPerPacket +
                          copy_cycles(static_cast<u32>(frame.size())));
  return engine_->port(port)->transmit(tx_queue_, frame);
}

PacketIoEngine::PacketIoEngine(const pcie::Topology& topo, std::vector<nic::NicPort*> ports,
                               EngineConfig config)
    : topo_(topo), ports_(std::move(ports)), config_(config) {
  queue_owner_.resize(ports_.size());
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    queue_owner_[p].resize(ports_[p]->config().num_rx_queues, nullptr);
  }
}

IoHandle* PacketIoEngine::attach(int core, std::vector<QueueRef> queues) {
  for (const auto& ref : queues) {
    (void)ref;  // assertions compile out in release builds
    assert(ref.port >= 0 && static_cast<std::size_t>(ref.port) < ports_.size());
    assert(ref.queue < ports_[static_cast<std::size_t>(ref.port)]->config().num_rx_queues);
    assert(queue_owner_[static_cast<std::size_t>(ref.port)][ref.queue] == nullptr &&
           "virtual interfaces are exclusive to one thread");
  }
  // Core index doubles as the TX queue index: each core gets a private TX
  // queue on every port, so transmission is also contention-free.
  auto handle = std::unique_ptr<IoHandle>(
      new IoHandle(this, core, static_cast<u16>(core), std::move(queues)));
  for (const auto& ref : handle->queues()) {
    queue_owner_[static_cast<std::size_t>(ref.port)][ref.queue] = handle.get();
  }
  handles_.push_back(std::move(handle));
  return handles_.back().get();
}

}  // namespace ps::iengine
