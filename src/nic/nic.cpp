#include "nic/nic.hpp"

#include <cassert>
#include <cstring>

#include "integrity/crc32c.hpp"
#include "net/packet.hpp"
#include "perf/model.hpp"

namespace ps::nic {

NicPort::NicPort(int port_id, const pcie::Topology& topo, const NicConfig& config)
    : port_id_(port_id),
      node_(topo.node_of_port(port_id)),
      ioh_(topo.ioh_of_port(port_id)),
      dual_ioh_(topo.dual_ioh),
      config_(config) {
  assert(config.num_rx_queues > 0 && config.num_tx_queues > 0);
  // The count constructor default-constructs in place (RxQueueState holds
  // atomics and is not movable).
  rx_queues_ = std::vector<RxQueueState>(config.num_rx_queues);
  for (auto& q : rx_queues_) {
    q.buffer = std::make_unique<mem::HugePacketBuffer>(config.ring_size, node_);
  }
  tx_queues_ = std::vector<TxQueueState>(config.num_tx_queues);
  for (auto& q : tx_queues_) {
    q.buffer = std::make_unique<mem::HugePacketBuffer>(config.ring_size, node_);
  }

  if (config.per_queue_stats) {
    rx_stats_aligned_ = std::vector<CacheAligned<AtomicQueueStats>>(config.num_rx_queues);
    tx_stats_aligned_ = std::vector<CacheAligned<AtomicQueueStats>>(config.num_tx_queues);
    for (auto& s : rx_stats_aligned_) rx_stats_.push_back(&s.value);
    for (auto& s : tx_stats_aligned_) tx_stats_.push_back(&s.value);
  } else {
    // Pathological layout (§4.4 ablation): counters packed back to back so
    // adjacent queues' statistics share cache lines. Count-constructed in
    // place: AtomicQueueStats is not movable.
    rx_stats_packed_ = std::vector<AtomicQueueStats>(config.num_rx_queues);
    tx_stats_packed_ = std::vector<AtomicQueueStats>(config.num_tx_queues);
    for (auto& s : rx_stats_packed_) rx_stats_.push_back(&s);
    for (auto& s : tx_stats_packed_) tx_stats_.push_back(&s);
  }

  rss_table_.distribute(0, config.num_rx_queues);
}

void NicPort::set_fault_injector(fault::FaultInjector* injector) {
  injector_ = injector;
  link_down_point_ = "nic.link_down." + std::to_string(port_id_);
  link_flap_point_ =
      std::string(fault::Point::kLinkFlap) + "." + std::to_string(port_id_);
  if (injector_ != nullptr) {
    injector_->register_point("nic.rx_ring_full");
    injector_->register_point("nic.rx_corrupt");
    injector_->register_point("nic.tx_reject");
    injector_->register_point("mem.cell_exhausted");
    injector_->register_point(fault::Point::kMemBitflip);
    injector_->register_point(link_down_point_);
    injector_->register_point(link_flap_point_);
  }
}

bool NicPort::link_fault_active() {
  if (injector_ == nullptr) return false;
  if (injector_->should_fire(link_flap_point_)) {
    if (link_up_.exchange(false, std::memory_order_acq_rel)) {
      ++link_flaps_;  // loss of carrier (up -> down edge)
    }
    ++carrier_lost_frames_;
    return true;
  }
  // First event past the fault window: carrier restored.
  if (!link_up_.load(std::memory_order_relaxed)) {
    link_up_.store(true, std::memory_order_release);
  }
  return false;
}

void NicPort::configure_rss(u16 first_queue, u16 num_queues) {
  assert(first_queue + num_queues <= config_.num_rx_queues);
  rss_table_.distribute(first_queue, num_queues);
}

void NicPort::charge_dma(perf::ResourceKind channel, Picos occupancy) {
  if (!numa_blind_) {
    ledger_->charge({channel, static_cast<u16>(ioh_)}, occupancy);
    return;
  }
  // NUMA-blind placement (section 4.5): kNumaBlindRemoteFraction of DMA
  // targets the remote node, traversing both IOHs at reduced efficiency.
  const double f = perf::kNumaBlindRemoteFraction;
  const auto remote_cost =
      static_cast<Picos>(static_cast<double>(occupancy) * f * perf::kRemoteDmaCostFactor);
  const auto local_cost =
      static_cast<Picos>(static_cast<double>(occupancy) * (1.0 - f)) + remote_cost;
  ledger_->charge({channel, static_cast<u16>(ioh_)}, local_cost);
  ledger_->charge({channel, static_cast<u16>(ioh_ ^ 1)}, remote_cost);
}

void NicPort::charge_rx_dma(u32 frame_bytes) {
  if (ledger_ == nullptr) return;
  charge_dma(perf::ResourceKind::kIohD2h,
             perf::nic_dma_occupancy(frame_bytes, perf::Direction::kDeviceToHost, dual_ioh_));
  ledger_->charge({perf::ResourceKind::kPortRx, static_cast<u16>(port_id_)},
                  perf::port_wire_time(frame_bytes));
}

void NicPort::charge_tx_dma(u32 frame_bytes) {
  if (ledger_ == nullptr) return;
  charge_dma(perf::ResourceKind::kIohH2d,
             perf::nic_dma_occupancy(frame_bytes, perf::Direction::kHostToDevice, dual_ioh_));
  ledger_->charge({perf::ResourceKind::kPortTx, static_cast<u16>(port_id_)},
                  perf::port_wire_time(frame_bytes));
}

bool NicPort::receive_frame(std::span<const u8> frame) {
  if (frame.empty() || frame.size() > mem::kDataCellSize) return false;

  // Passive tap first: a wire tap observes arrivals before any NIC-side
  // drop decision (ring-full, carrier, fault injection).
  if (rx_tap_ != nullptr) rx_tap_->on_frame(port_id_, frame);

  // Hardware-side parse: RSS fields + IPv4 checksum verification (the
  // 82599 marks bad-checksum packets in the descriptor status).
  net::PacketView view;
  const net::ParseStatus parsed =
      net::parse_packet(const_cast<u8*>(frame.data()), static_cast<u32>(frame.size()), view);
  const u32 hash = parsed == net::ParseStatus::kOk ? rss_hash(view) : 0;
  const bool checksum_ok = parsed != net::ParseStatus::kBadChecksum;

  const u16 queue = rss_table_.queue_for_hash(hash);
  auto& q = rx_queues_[queue];
  auto& stats = *rx_stats_[queue];

  if (link_fault_active()) {
    // Carrier out: the frame is lost on the wire. Counted in the steering
    // queue's drops so chaos tests can account for every injected loss.
    stats.drops.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (injector_ != nullptr && injector_->should_fire(link_down_point_)) {
    // Link flap: the frame is lost on the wire; count it so chaos tests
    // can account for every injected loss.
    stats.drops.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const bool injected_ring_full =
      injector_ != nullptr && (injector_->should_fire("nic.rx_ring_full") ||
                               injector_->should_fire("mem.cell_exhausted"));
  if (injected_ring_full || q.count() >= config_.ring_size) {
    stats.drops.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  const u32 head = q.head.load(std::memory_order_relaxed);
  const u32 cell = head % config_.ring_size;
  auto dst = q.buffer->cell_data(cell);
  std::memcpy(dst.data(), frame.data(), frame.size());
  auto& meta = q.buffer->metadata(cell);
  meta.length = static_cast<u16>(frame.size());
  meta.rss_hash = hash;
  meta.status = checksum_ok ? 1 : 0;
  // Wire-side integrity stamp: the NIC computes a CRC32C over the bytes it
  // saw on the wire and deposits it next to the descriptor. Hardware work —
  // no CPU cycles are charged — and computed from `frame` (pre-DMA bytes),
  // so anything that mangles the cell afterwards is detectable.
  q.buffer->set_cell_crc(cell, integrity::crc32c(frame));
  if (injector_ != nullptr && injector_->should_fire("nic.rx_corrupt")) {
    // Bit flip during DMA; the hardware checksum engine catches it and
    // clears the descriptor's checksum-ok status bit.
    dst.data()[frame.size() - 1] ^= 0xff;
    meta.status = 0;
  }
  if (injector_ != nullptr && injector_->should_fire(fault::Point::kMemBitflip)) {
    // *Silent* corruption: a bit flips in the huge-buffer cell after DMA
    // completed (cosmic ray, bad DIMM). The descriptor status stays ok —
    // nothing hardware-side will ever flag this packet. Only the wire-CRC
    // re-check at RX admission can catch it.
    dst.data()[frame.size() / 2] ^= 0x01;
  }

  q.head.store(head + 1, std::memory_order_release);

  stats.packets.fetch_add(1, std::memory_order_relaxed);
  stats.bytes.fetch_add(frame.size(), std::memory_order_relaxed);
  charge_rx_dma(static_cast<u32>(frame.size()));
  return true;
}

u32 NicPort::rx_available(u16 queue) const { return rx_queues_[queue].count(); }

u32 NicPort::rx_peek(u16 queue, RxSlot* out, u32 max) const {
  const auto& q = rx_queues_[queue];
  const u32 tail = q.tail.load(std::memory_order_relaxed);
  const u32 n = std::min(max, q.count());
  for (u32 i = 0; i < n; ++i) {
    const u32 cell = (tail + i) % config_.ring_size;
    const auto& meta = q.buffer->metadata(cell);
    out[i] = RxSlot{
        .cell = cell,
        .data = q.buffer->cell_data(cell).data(),
        .length = meta.length,
        .rss_hash = meta.rss_hash,
        .crc = q.buffer->cell_crc(cell),
        .checksum_ok = meta.status != 0,
    };
  }
  return n;
}

void NicPort::rx_release(u16 queue, u32 count) {
  auto& q = rx_queues_[queue];
  assert(count <= q.count());
  q.tail.fetch_add(count, std::memory_order_release);
}

bool NicPort::transmit(u16 queue, std::span<const u8> frame) {
  if (frame.empty() || frame.size() > mem::kDataCellSize) return false;
  auto& q = tx_queues_[queue];
  auto& stats = *tx_stats_[queue];

  if (link_fault_active()) {
    // Carrier out: transmission is impossible until the link recovers.
    stats.drops.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (injector_ != nullptr && (injector_->should_fire("nic.tx_reject") ||
                               injector_->should_fire(link_down_point_))) {
    // Injected TX backpressure / downed link: reject, caller may retry.
    stats.drops.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  // Stage the frame in the TX huge buffer (the DMA source), then put it on
  // the wire. The sim drains synchronously, so the ring never backs up;
  // the cell copy is kept because the application's buffer may be reused
  // immediately after transmit() returns.
  const u32 cell = q.next_cell % config_.ring_size;
  auto dst = q.buffer->cell_data(cell);
  std::memcpy(dst.data(), frame.data(), frame.size());
  q.buffer->metadata(cell).length = static_cast<u16>(frame.size());
  ++q.next_cell;

  stats.packets.fetch_add(1, std::memory_order_relaxed);
  stats.bytes.fetch_add(frame.size(), std::memory_order_relaxed);
  charge_tx_dma(static_cast<u32>(frame.size()));

  WireSink* sink = wire_sink_ != nullptr ? wire_sink_ : &default_sink_;
  sink->on_frame(port_id_, {dst.data(), frame.size()});
  return true;
}

QueueStats NicPort::rx_totals() const {
  QueueStats total;
  for (u16 i = 0; i < config_.num_rx_queues; ++i) {
    const QueueStats s = rx_stats_[i]->snapshot();
    total.packets += s.packets;
    total.bytes += s.bytes;
    total.drops += s.drops;
  }
  return total;
}

QueueStats NicPort::tx_totals() const {
  QueueStats total;
  for (u16 i = 0; i < config_.num_tx_queues; ++i) {
    const QueueStats s = tx_stats_[i]->snapshot();
    total.packets += s.packets;
    total.bytes += s.bytes;
    total.drops += s.drops;
  }
  return total;
}

}  // namespace ps::nic
