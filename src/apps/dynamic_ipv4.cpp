#include "apps/dynamic_ipv4.hpp"

#include <cassert>

#include "apps/forwarding.hpp"
#include "net/checksum.hpp"
#include "perf/calibration.hpp"
#include "perf/ledger.hpp"

namespace ps::apps {

namespace {

/// Classify packet `i` and, when it takes the fast path, decrement its TTL.
bool classify_and_rewrite(iengine::PacketChunk& chunk, u32 i) {
  net::PacketView view;
  if (classify_l3(chunk, i, net::EtherType::kIpv4, view) != FastPathClass::kEligible) {
    return false;
  }
  net::ipv4_decrement_ttl(view.ipv4());
  return true;
}

}  // namespace

DynamicIpv4ForwardApp::DynamicIpv4ForwardApp(route::Ipv4Fib& fib)
    : fib_(fib), tables_(fib, kMaxBatchItems, sizeof(u32)) {}

void DynamicIpv4ForwardApp::DeviceTable::upload(TableUpload& up, const route::Ipv4Table& table) {
  if (!tbl24.valid()) {
    tbl24 = up.device.alloc((1u << 24) * sizeof(u16));
    tbl_long = up.device.alloc(static_cast<std::size_t>(kMaxOverflowChunks) *
                               route::Ipv4Table::kChunk * sizeof(u16));
  }
  assert(table.tbl_long().size() / route::Ipv4Table::kChunk <= kMaxOverflowChunks);
  up.copy(tbl24, table.tbl24()).copy(tbl_long, table.tbl_long());
}

void DynamicIpv4ForwardApp::pre_shade(core::ShaderJob& job) {
  auto& chunk = job.chunk;
  job.gpu_input.reserve(chunk.count() * sizeof(u32));
  for (u32 i = 0; i < chunk.count(); ++i) {
    perf::charge_cpu_cycles(perf::kPreShadingCyclesPerPacket);
    if (!classify_and_rewrite(chunk, i)) continue;
    const u32 dst = chunk_view_dst(chunk, i);
    const auto* bytes = reinterpret_cast<const u8*>(&dst);
    job.gpu_input.insert(job.gpu_input.end(), bytes, bytes + sizeof(u32));
    job.gpu_index.push_back(i);
  }
  job.gpu_items = static_cast<u32>(job.gpu_index.size());
}

core::ShadeOutcome DynamicIpv4ForwardApp::shade(core::GpuContext& gpu,
                                                std::span<core::ShaderJob* const> jobs,
                                                Picos submit_time) {
  const auto make_kernel = [](DeviceTables::Device& d, u32 offset, u32 items) {
    return gpu::KernelLaunch{
        .threads = items,
        .body =
            [d = &d, offset](gpu::ThreadCtx& ctx) {
              const u32 item = offset + ctx.thread_id();
              d->output.as<u16>()[item] = route::Ipv4Table::lookup_in_arrays(
                  d->copy.tbl24.as<const u16>(), d->copy.tbl_long.as<const u16>(),
                  d->input.as<const u32>()[item]);
            },
        // One table probe for ~97% of packets, two for prefixes >/24.
        .cost = {.instructions = perf::kGpuIpv4LookupInstr, .mem_accesses = 1.05},
    };
  };
  return tables_.shade(gpu, jobs, submit_time, make_kernel);
}

void DynamicIpv4ForwardApp::shade_cpu(core::ShaderJob& job) {
  // Same computation as the kernel, host tables, no header rewrites. The
  // gathered input is already a dense key array, so the whole job goes
  // through one batched lookup. Lock-free: pin an epoch and read the
  // published generation directly.
  const auto table = fib_.read();
  job.gpu_output.resize(job.gpu_items * sizeof(u16));
  perf::charge_cpu_cycles(job.gpu_items * perf::kCpuIpv4LookupBatchCycles);
  table->lookup_batch(reinterpret_cast<const u32*>(job.gpu_input.data()),
                      reinterpret_cast<u16*>(job.gpu_output.data()), job.gpu_items);
}

void DynamicIpv4ForwardApp::post_shade(core::ShaderJob& job) { scatter_next_hops(job); }

void DynamicIpv4ForwardApp::process_cpu(iengine::PacketChunk& chunk) {
  // One epoch pin per chunk: routes may change between chunks, never
  // within one, and the pin is dropped at chunk end so reclamation of
  // older generations is never blocked for long.
  const auto table = fib_.read();
  if (!batched_lookup_) {
    for (u32 i = 0; i < chunk.count(); ++i) {
      perf::charge_cpu_cycles(perf::kCpuIpv4LookupCycles);
      if (!classify_and_rewrite(chunk, i)) continue;
      apply_next_hop(chunk, i, table->lookup(net::Ipv4Addr(chunk_view_dst(chunk, i))));
    }
    return;
  }
  process_lookups<u32, 1>(
      chunk,
      [&](u32 i) {
        perf::charge_cpu_cycles(perf::kCpuIpv4LookupBatchCycles);
        return classify_and_rewrite(chunk, i);
      },
      [&](u32* key, u32 i) { *key = chunk_view_dst(chunk, i); },
      [&](const u32* keys, route::NextHop* nhs, u32 n) { table->lookup_batch(keys, nhs, n); });
}

}  // namespace ps::apps
