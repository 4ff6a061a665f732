#include "apps/dynamic_ipv6.hpp"

#include "apps/forwarding.hpp"
#include "perf/calibration.hpp"
#include "perf/ledger.hpp"

namespace ps::apps {

namespace {

/// Classify packet `i` and, when it takes the fast path, decrement its hop
/// limit (no checksum in the IPv6 header).
bool classify_and_rewrite(iengine::PacketChunk& chunk, u32 i) {
  net::PacketView view;
  if (classify_l3(chunk, i, net::EtherType::kIpv6, view) != FastPathClass::kEligible) {
    return false;
  }
  view.ipv6().hop_limit -= 1;
  return true;
}

}  // namespace

DynamicIpv6ForwardApp::DynamicIpv6ForwardApp(route::Ipv6Fib& fib) : fib_(fib) {}

void DynamicIpv6ForwardApp::upload(GpuState& st, int slot, const route::Ipv6Table& table) {
  auto& copy = st.copies[slot];
  const auto slots = table.slots();
  const std::size_t needed =
      std::max<std::size_t>(slots.size_bytes(), sizeof(route::Ipv6Table::Slot));
  if (needed > copy.slot_capacity_bytes) {
    // Grow with headroom so routine FIB churn does not reallocate.
    copy.slot_capacity_bytes = needed + needed / 2;
    copy.slots = st.device->alloc(copy.slot_capacity_bytes);
  }
  if (!slots.empty()) {
    st.device->memcpy_h2d(copy.slots, 0,
                          {reinterpret_cast<const u8*>(slots.data()), slots.size_bytes()});
  }

  const auto offsets = table.level_offsets();
  if (!copy.offsets.valid()) copy.offsets = st.device->alloc(offsets.size_bytes());
  st.device->memcpy_h2d(copy.offsets, 0,
                        {reinterpret_cast<const u8*>(offsets.data()), offsets.size_bytes()});
  const auto masks = table.level_masks();
  if (!copy.masks.valid()) copy.masks = st.device->alloc(masks.size_bytes());
  st.device->memcpy_h2d(copy.masks, 0,
                        {reinterpret_cast<const u8*>(masks.data()), masks.size_bytes()});
  copy.default_nh = table.default_route();
}

void DynamicIpv6ForwardApp::bind_gpu(gpu::GpuDevice& device) {
  if (gpu_state_.contains(device.gpu_id())) return;
  auto st = std::make_unique<GpuState>();
  st->device = &device;
  st->input = device.alloc(kMaxBatchItems * 16);
  st->output = device.alloc(kMaxBatchItems * sizeof(u16));

  const auto snapshot = fib_.snapshot();
  upload(*st, 0, *snapshot);
  st->generation = fib_.generation();
  st->active.store(0, std::memory_order_release);
  gpu_state_.emplace(device.gpu_id(), std::move(st));
}

int DynamicIpv6ForwardApp::sync() {
  const u64 generation = fib_.generation();
  const auto snapshot = fib_.snapshot();
  int refreshed = 0;
  for (auto& [id, st] : gpu_state_) {
    if (st->generation == generation) continue;
    const int standby = 1 - st->active.load(std::memory_order_acquire);
    upload(*st, standby, *snapshot);
    st->active.store(standby, std::memory_order_release);
    st->generation = generation;
    ++refreshed;
  }
  return refreshed;
}

void DynamicIpv6ForwardApp::pre_shade(core::ShaderJob& job) {
  auto& chunk = job.chunk;
  job.gpu_input.reserve(chunk.count() * 16);
  for (u32 i = 0; i < chunk.count(); ++i) {
    perf::charge_cpu_cycles(perf::kPreShadingCyclesPerPacket);
    if (!classify_and_rewrite(chunk, i)) continue;
    // Gather hi/lo words in host order, the layout the kernel consumes.
    const u8* dst = chunk_view_dst6(chunk, i);
    const u64 hi = load_be64(dst);
    const u64 lo = load_be64(dst + 8);
    const auto* hb = reinterpret_cast<const u8*>(&hi);
    const auto* lb = reinterpret_cast<const u8*>(&lo);
    job.gpu_input.insert(job.gpu_input.end(), hb, hb + 8);
    job.gpu_input.insert(job.gpu_input.end(), lb, lb + 8);
    job.gpu_index.push_back(i);
  }
  job.gpu_items = static_cast<u32>(job.gpu_index.size());
}

core::ShadeOutcome DynamicIpv6ForwardApp::shade(core::GpuContext& gpu,
                                                std::span<core::ShaderJob* const> jobs,
                                                Picos submit_time) {
  auto& st = *gpu_state_.at(gpu.device->gpu_id());
  const int slot = st.active.load(std::memory_order_acquire);
  const auto make_kernel = [st = &st, slot](u32 offset, u32 items) {
    return gpu::KernelLaunch{
        .threads = items,
        .body =
            [st, slot, offset](gpu::ThreadCtx& ctx) {
              const u32 item = offset + ctx.thread_id();
              const TableCopy& copy = st->copies[slot];
              const u64* key = st->input.as<const u64>() + std::size_t{item} * 2;
              st->output.as<u16>()[item] = route::Ipv6Table::lookup_in_arrays(
                  copy.slots.as<const route::Ipv6Table::Slot>(), copy.offsets.as<const u32>(),
                  copy.masks.as<const u32>(), key[0], key[1], copy.default_nh);
            },
        // Seven dependent hash probes per lookup, each a random device-
        // memory access (section 6.2.2); a probe touches a 24 B slot that
        // straddles GDDR5 segments, so ~1.5 segments of bandwidth per probe.
        // Seven holds because every benchmarked RIB is /16../64; only a
        // table holding a /127 or /128 makes a search take an eighth step.
        .cost = {.instructions = 7 * perf::kGpuIpv6LookupInstrPerProbe,
                 .mem_accesses = 7.0,
                 .bytes_per_access = 48},
    };
  };
  return shade_lookups(gpu, jobs, submit_time, st.input, 16, st.output, sizeof(u16),
                       make_kernel);
}

void DynamicIpv6ForwardApp::shade_cpu(core::ShaderJob& job) {
  // Lock-free read: epoch pin + published-generation load, no mutex. The
  // gathered input is already the interleaved (hi, lo) layout the batch
  // API consumes; one interleaved walk resolves the whole job.
  const auto table = fib_.read();
  const auto* in = reinterpret_cast<const u64*>(job.gpu_input.data());
  job.gpu_output.resize(job.gpu_items * sizeof(u16));
  auto* out = reinterpret_cast<u16*>(job.gpu_output.data());
  u64 probes = 0;
  table->lookup_batch(in, out, job.gpu_items, &probes);
  perf::charge_cpu_cycles(static_cast<double>(probes) *
                          perf::kCpuIpv6LookupBatchCyclesPerProbe);
}

void DynamicIpv6ForwardApp::post_shade(core::ShaderJob& job) { scatter_next_hops(job); }

void DynamicIpv6ForwardApp::process_cpu(iengine::PacketChunk& chunk) {
  // One epoch pin per chunk; dropped at chunk end so reclamation flows.
  // Eligible destinations are gathered as interleaved hi/lo words, and the
  // batch API accumulates the probe count each block is charged for.
  const auto table = fib_.read();
  process_lookups<u64, 2>(
      chunk,
      [&](u32 i) {
        if (classify_and_rewrite(chunk, i)) return true;
        perf::charge_cpu_cycles(perf::kCpuIpv6LookupBatchCyclesPerProbe);
        return false;
      },
      [&](u64* key, u32 i) {
        const u8* dst = chunk_view_dst6(chunk, i);
        key[0] = load_be64(dst);
        key[1] = load_be64(dst + 8);
      },
      [&](const u64* keys, route::NextHop* nhs, u32 n) {
        u64 probes = 0;
        table->lookup_batch(keys, nhs, n, &probes);
        perf::charge_cpu_cycles(static_cast<double>(probes) *
                                perf::kCpuIpv6LookupBatchCyclesPerProbe);
      });
}

}  // namespace ps::apps
