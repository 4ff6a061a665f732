// The steps the forwarding apps share (section 6.2): classification that
// splits slow-path and malformed packets out of a chunk before fast-path
// processing, the batched GPU lookup, and the scatter of next hops back
// to the packets.
#pragma once

#include <algorithm>

#include "core/shader.hpp"
#include "iengine/chunk.hpp"
#include "net/packet.hpp"
#include "perf/calibration.hpp"
#include "perf/ledger.hpp"
#include "route/ipv4_table.hpp"

namespace ps::apps {

enum class FastPathClass : u8 {
  kEligible,   // goes to the lookup fast path
  kDropped,    // malformed / bad checksum / TTL expired at the wire
  kSlowPath,   // hand to the host stack (non-matching ethertype etc.)
};

/// Parse and classify packet `i` of the chunk for an application expecting
/// `want` at L3; sets the chunk verdict for non-eligible packets and fills
/// `view` for eligible ones.
inline FastPathClass classify_l3(iengine::PacketChunk& chunk, u32 i, net::EtherType want,
                                 net::PacketView& view) {
  // Already condemned upstream (e.g. NIC-flagged corruption): keep the
  // verdict and reason, don't resurrect the packet.
  if (chunk.verdict(i) == iengine::PacketVerdict::kDrop) return FastPathClass::kDropped;
  const auto frame = chunk.packet(i);
  const auto status = net::parse_packet(frame.data(), static_cast<u32>(frame.size()), view);

  if (status == net::ParseStatus::kUnsupported) {
    chunk.set_verdict(i, iengine::PacketVerdict::kSlowPath);
    return FastPathClass::kSlowPath;
  }
  if (status != net::ParseStatus::kOk) {
    chunk.set_drop(i, iengine::DropReason::kParseError);
    return FastPathClass::kDropped;
  }
  if (view.ether_type != want) {
    chunk.set_verdict(i, iengine::PacketVerdict::kSlowPath);
    return FastPathClass::kSlowPath;
  }

  // TTL / hop-limit check: expired packets go to the host stack, which
  // would emit the ICMP Time Exceeded.
  if (want == net::EtherType::kIpv4 && view.ipv4().ttl <= 1) {
    chunk.set_verdict(i, iengine::PacketVerdict::kSlowPath);
    return FastPathClass::kSlowPath;
  }
  if (want == net::EtherType::kIpv6 && view.ipv6().hop_limit <= 1) {
    chunk.set_verdict(i, iengine::PacketVerdict::kSlowPath);
    return FastPathClass::kSlowPath;
  }
  return FastPathClass::kEligible;
}

/// Destination-address accessors for gathered GPU input. Frames here are
/// untagged Ethernet (the generator produces none with VLANs), so the L3
/// header sits at a fixed offset.
inline u32 chunk_view_dst(const iengine::PacketChunk& chunk, u32 i) {
  const auto frame = chunk.packet(i);
  return load_be32(frame.data() + sizeof(net::EthernetHeader) + offsetof(net::Ipv4Header, dst_be));
}

inline const u8* chunk_view_dst6(const iengine::PacketChunk& chunk, u32 i) {
  const auto frame = chunk.packet(i);
  return frame.data() + sizeof(net::EthernetHeader) + offsetof(net::Ipv6Header, dst_bytes);
}

/// Apply one lookup result to packet `i`: forward it to next hop `nh`, or
/// drop it on a route miss.
inline void apply_next_hop(iengine::PacketChunk& chunk, u32 i, route::NextHop nh) {
  if (nh == route::kNoRoute) {
    chunk.set_drop(i, iengine::DropReason::kNoRoute);
  } else {
    chunk.set_out_port(i, static_cast<i16>(nh));
  }
}

/// Packets gathered on the stack per lookup_batch call in process_cpu.
inline constexpr u32 kCpuBatchBlock = 256;

/// The batched CPU-only path of the forwarding apps' process_cpu.
/// `eligible(i)` classifies packet i, rewrites it when it takes the fast
/// path and charges its per-packet cost. Each eligible packet's key
/// (`kKeyWords` words) is written by `fill(key, i)` into a stack block of
/// kCpuBatchBlock keys, `lookup(keys, next_hops, n)` resolves a block of n
/// keys and charges its cost, and the next hops are applied.
template <typename Key, std::size_t kKeyWords, typename Eligible, typename Fill, typename Lookup>
void process_lookups(iengine::PacketChunk& chunk, const Eligible& eligible, const Fill& fill,
                     const Lookup& lookup) {
  Key keys[kKeyWords * kCpuBatchBlock] = {};
  u32 idx[kCpuBatchBlock] = {};
  route::NextHop nhs[kCpuBatchBlock] = {};
  u32 m = 0;
  const auto flush = [&] {
    lookup(keys, nhs, m);
    for (u32 k = 0; k < m; ++k) apply_next_hop(chunk, idx[k], nhs[k]);
    m = 0;
  };
  for (u32 i = 0; i < chunk.count(); ++i) {
    if (!eligible(i)) continue;
    fill(keys + kKeyWords * m, i);
    idx[m] = i;
    if (++m == kCpuBatchBlock) flush();
  }
  flush();
}

/// The post-shader: scatter the u16 next hops in gpu_output back to the
/// packets they were gathered from.
inline void scatter_next_hops(core::ShaderJob& job) {
  const auto* next_hops = reinterpret_cast<const u16*>(job.gpu_output.data());
  for (u32 k = 0; k < job.gpu_items; ++k) {
    perf::charge_cpu_cycles(perf::kPostShadingCyclesPerPacket);
    apply_next_hop(job.chunk, job.gpu_index[k], next_hops[k]);
  }
}

/// Shade a batch of lookup jobs, as the IPv4, IPv6 and OpenFlow apps do.
/// Each job's gathered keys (`key_bytes` per item) are staged into `input`
/// at the job's item offset, `make_kernel(offset, items)` resolves items
/// [offset, offset + items) into `output` (`result_bytes` per item), and
/// each job copies its slice of results back into gpu_output. On one
/// stream, every input copy is pipelined ahead of one launch over the
/// whole batch (gather/scatter, Figure 10(b)); with several, each job runs
/// copy -> kernel -> copy on its own stream so transfers overlap other
/// jobs' kernels (Figure 10(c)).
template <typename MakeKernel>
core::ShadeOutcome shade_lookups(core::GpuContext& gpu, std::span<core::ShaderJob* const> jobs,
                                 Picos submit_time, gpu::DeviceBuffer& input,
                                 std::size_t key_bytes, const gpu::DeviceBuffer& output,
                                 std::size_t result_bytes, const MakeKernel& make_kernel) {
  const bool streamed = gpu.streams.size() > 1;
  Picos done = submit_time;
  u32 offset = 0;
  // A group is the jobs that share one stream and one launch.
  for (std::size_t first = 0; first < jobs.size();) {
    const std::size_t last = streamed ? first + 1 : jobs.size();
    const gpu::StreamId stream = gpu.stream_for(streamed ? first : 0);
    const u32 base = offset;
    for (std::size_t j = first; j < last; ++j) {
      core::ShaderJob& job = *jobs[j];
      if (job.gpu_items == 0) continue;
      const auto h2d = gpu.device->memcpy_h2d(input, std::size_t{offset} * key_bytes,
                                              job.gpu_input, stream, submit_time);
      if (!h2d.ok()) return {h2d.status, h2d.end};
      offset += job.gpu_items;
    }
    if (offset > base) {
      const auto k = gpu.device->launch(make_kernel(base, offset - base), stream, submit_time);
      if (!k.ok()) return {k.status, k.end};
    }
    u32 out_offset = base;
    for (std::size_t j = first; j < last; ++j) {
      core::ShaderJob& job = *jobs[j];
      if (job.gpu_items == 0) continue;
      job.gpu_output.resize(job.gpu_items * result_bytes);
      const auto d2h = gpu.device->memcpy_d2h(job.gpu_output, output,
                                              std::size_t{out_offset} * result_bytes, stream,
                                              submit_time);
      if (!d2h.ok()) return {d2h.status, d2h.end};
      done = std::max(done, d2h.end);
      out_offset += job.gpu_items;
    }
    first = last;
  }
  return {gpu::GpuStatus::kOk, done};
}

}  // namespace ps::apps
