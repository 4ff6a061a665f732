#include "apps/openflow_app.hpp"

#include <cstring>

#include "apps/forwarding.hpp"
#include "perf/calibration.hpp"
#include "perf/ledger.hpp"

namespace ps::apps {

namespace {

/// Flood fan-out cap: a flooded packet is duplicated to at most this many
/// ports (the testbed has eight).
constexpr int kMaxPorts = 8;

}  // namespace

OpenFlowApp::OpenFlowApp(openflow::OpenFlowSwitch& sw) : switch_(sw) {}

u32 OpenFlowApp::encode_result(MatchSource source, u32 index) {
  return (static_cast<u32>(source) << 28) | (index & 0x0fffffff);
}

gpu::GpuResult OpenFlowApp::upload_tables(GpuState& st, TableUpload up) const {
  const auto slots = switch_.exact().slots();
  std::vector<GpuExactSlot> exact(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    exact[i].key = slots[i].key;
    exact[i].occupied = slots[i].occupied;
  }
  st.exact_mask = static_cast<u32>(slots.size() - 1);
  st.exact = up.device.alloc(exact.size() * sizeof(GpuExactSlot));

  const auto entries = switch_.wildcard().entries();
  std::vector<GpuWildcardEntry> wild(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    wild[i].key = entries[i].match.key;
    wild[i].wildcards = entries[i].match.wildcards;
    wild[i].nw_src_bits = entries[i].match.nw_src_bits;
    wild[i].nw_dst_bits = entries[i].match.nw_dst_bits;
    wild[i].priority = entries[i].match.priority;
  }
  st.wildcard_count = static_cast<u32>(wild.size());
  st.wildcard = up.device.alloc(std::max<std::size_t>(wild.size() * sizeof(GpuWildcardEntry),
                                                      sizeof(GpuWildcardEntry)));
  st.loaded = up.copy(st.exact, exact).copy(st.wildcard, wild).result.ok();
  return up.result;
}

void OpenFlowApp::bind_gpu(gpu::GpuDevice& device) {
  if (gpu_state_.contains(device.gpu_id())) return;
  GpuState st;
  st.input = device.alloc(kMaxBatchItems * sizeof(openflow::FlowKey));
  st.output = device.alloc(kMaxBatchItems * sizeof(u32));
  upload_tables(st, {device});
  gpu_state_.emplace(device.gpu_id(), std::move(st));
}

perf::KernelCost OpenFlowApp::kernel_cost() const {
  const double wildcards = static_cast<double>(switch_.wildcard().size());
  return {
      .instructions = perf::kGpuFlowHashInstr + perf::kGpuExactLookupInstr +
                      wildcards * perf::kGpuWildcardInstrPerEntry,
      // One random probe into the exact table plus a sequential sweep of
      // the wildcard array. All threads of a warp scan the same entries in
      // lockstep, so each entry is fetched once per warp and broadcast —
      // the per-thread bandwidth share is 1/32 of the entry bytes.
      .mem_accesses =
          1.0 + wildcards * (sizeof(GpuWildcardEntry) / 32.0) / perf::kGpuWarpSize,
  };
}

void OpenFlowApp::pre_shade(core::ShaderJob& job) {
  auto& chunk = job.chunk;
  job.gpu_input.reserve(chunk.count() * sizeof(openflow::FlowKey));
  for (u32 i = 0; i < chunk.count(); ++i) {
    perf::charge_cpu_cycles(perf::kCpuFlowKeyExtractCycles);
    if (chunk.verdict(i) == iengine::PacketVerdict::kDrop) continue;
    net::PacketView view;
    const auto frame = chunk.packet(i);
    if (net::parse_packet(frame.data(), static_cast<u32>(frame.size()), view) !=
        net::ParseStatus::kOk) {
      chunk.set_drop(i, iengine::DropReason::kParseError);
      continue;
    }
    const auto key = openflow::extract_flow_key(view, static_cast<u16>(chunk.in_port));
    const auto* bytes = reinterpret_cast<const u8*>(&key);
    job.gpu_input.insert(job.gpu_input.end(), bytes, bytes + sizeof(key));
    job.gpu_index.push_back(i);
  }
  job.gpu_items = static_cast<u32>(job.gpu_index.size());
}

core::ShadeOutcome OpenFlowApp::shade(core::GpuContext& gpu,
                                      std::span<core::ShaderJob* const> jobs,
                                      Picos submit_time) {
  auto& st = gpu_state_.at(gpu.device->gpu_id());
  if (!st.loaded) {
    const auto up = upload_tables(st, {*gpu.device, gpu.stream_for(0), submit_time});
    if (!up.ok()) return {up.status, up.end};
    submit_time = up.end;
  }

  // The wildcard scan diverges only when packets match different entries;
  // with priority-ordered early exit most warps run the full loop in
  // lockstep, so the static cost model applies.
  const auto make_kernel = [&](u32 offset, u32 items) {
    return gpu::KernelLaunch{
        .threads = items,
        .body =
            [st = &st, offset](gpu::ThreadCtx& ctx) {
              const u32 item = offset + ctx.thread_id();
              const openflow::FlowKey& key = st->input.as<const openflow::FlowKey>()[item];
              const auto* exact = st->exact.as<const GpuExactSlot>();
              u32* out = st->output.as<u32>() + item;

              // Exact match first (hash offloaded here, as in the paper).
              u32 index = openflow::flow_key_hash(key) & st->exact_mask;
              while (exact[index].occupied != 0) {
                if (exact[index].key == key) break;
                index = (index + 1) & st->exact_mask;
              }
              if (exact[index].occupied != 0) {
                *out = encode_result(MatchSource::kExact, index);
                ctx.record_path(0);
                return;
              }

              // Wildcard linear search, priority order.
              const auto* wild = st->wildcard.as<const GpuWildcardEntry>();
              for (u32 w = 0; w < st->wildcard_count; ++w) {
                const openflow::WildcardMatch match{wild[w].key, wild[w].wildcards,
                                                    wild[w].nw_src_bits, wild[w].nw_dst_bits,
                                                    wild[w].priority};
                if (match.matches(key)) {
                  *out = encode_result(MatchSource::kWildcard, w);
                  ctx.record_path(1);
                  return;
                }
              }
              *out = encode_result(MatchSource::kMiss, 0);
              ctx.record_path(2);
            },
        .cost = kernel_cost(),
    };
  };
  return shade_lookups(gpu, jobs, submit_time, st.input, sizeof(openflow::FlowKey), st.output,
                       sizeof(u32), make_kernel);
}

void OpenFlowApp::shade_cpu(core::ShaderJob& job) {
  // Host-side replay of the classification kernel over the gathered keys.
  const auto* in = reinterpret_cast<const openflow::FlowKey*>(job.gpu_input.data());
  job.gpu_output.resize(job.gpu_items * sizeof(u32));
  auto* out = reinterpret_cast<u32*>(job.gpu_output.data());
  const auto slots = switch_.exact().slots();
  const u32 exact_mask = static_cast<u32>(slots.size() - 1);
  const auto entries = switch_.wildcard().entries();
  for (u32 k = 0; k < job.gpu_items; ++k) {
    const openflow::FlowKey& key = in[k];
    perf::charge_cpu_cycles(perf::kCpuFlowHashCycles + perf::kCpuExactLookupCycles);
    u32 index = openflow::flow_key_hash(key) & exact_mask;
    while (slots[index].occupied && !(slots[index].key == key)) {
      index = (index + 1) & exact_mask;
    }
    if (slots[index].occupied) {
      out[k] = encode_result(MatchSource::kExact, index);
      continue;
    }
    u32 result = encode_result(MatchSource::kMiss, 0);
    for (u32 w = 0; w < entries.size(); ++w) {
      perf::charge_cpu_cycles(perf::kCpuWildcardCyclesPerEntry);
      if (entries[w].match.matches(key)) {
        result = encode_result(MatchSource::kWildcard, w);
        break;
      }
    }
    out[k] = result;
  }
}

void OpenFlowApp::apply_action(iengine::PacketChunk& chunk, u32 i, openflow::Action action) {
  // L2 rewrites (OFPAT_SET_DL_*) apply before output, so flood clones
  // inherit the rewritten header.
  if (action.set_dl_src || action.set_dl_dst) {
    auto frame = chunk.packet(i);
    auto& eth = *reinterpret_cast<net::EthernetHeader*>(frame.data());
    if (action.set_dl_src) eth.set_src(action.dl_src);
    if (action.set_dl_dst) eth.set_dst(action.dl_dst);
    perf::charge_cpu_cycles(12.0);
  }
  switch (action.type) {
    case openflow::ActionType::kOutput:
      chunk.set_out_port(i, static_cast<i16>(action.port));
      break;
    case openflow::ActionType::kFlood: {
      // Duplicate to every port except ingress; the original goes to the
      // first, clones (appended to the chunk) to the rest.
      bool first = true;
      for (int p = 0; p < kMaxPorts; ++p) {
        if (p == chunk.in_port) continue;
        if (first) {
          chunk.set_out_port(i, static_cast<i16>(p));
          first = false;
          continue;
        }
        const u32 before = chunk.count();
        if (!chunk.append(chunk.packet(i), chunk.rss_hash(i))) break;
        chunk.set_verdict(before, iengine::PacketVerdict::kForward);
        chunk.set_out_port(before, static_cast<i16>(p));
      }
      break;
    }
    case openflow::ActionType::kDrop:
      chunk.set_drop(i, iengine::DropReason::kNoRoute);  // flow-table drop policy
      break;
    case openflow::ActionType::kController:
      chunk.set_verdict(i, iengine::PacketVerdict::kSlowPath);
      break;
  }
}

void OpenFlowApp::post_shade(core::ShaderJob& job) {
  auto& chunk = job.chunk;
  const auto* results = reinterpret_cast<const u32*>(job.gpu_output.data());
  for (u32 k = 0; k < job.gpu_items; ++k) {
    perf::charge_cpu_cycles(perf::kPostShadingCyclesPerPacket);
    const u32 i = job.gpu_index[k];
    const u32 encoded = results[k];
    const auto source = static_cast<MatchSource>(encoded >> 28);
    const u32 index = encoded & 0x0fffffff;
    switch (source) {
      case MatchSource::kExact:
        apply_action(chunk, i, switch_.exact().slots()[index].action);
        break;
      case MatchSource::kWildcard:
        apply_action(chunk, i, switch_.wildcard().entries()[index].action);
        break;
      case MatchSource::kMiss:
        apply_action(chunk, i, switch_.default_action());
        break;
    }
  }
  // apply_action rewrites MAC headers and may append flood clones; the
  // worker must re-stamp before the kTx verification.
  if (job.gpu_items > 0) job.frames_dirty = true;
}

void OpenFlowApp::process_cpu(iengine::PacketChunk& chunk) {
  // Snapshot the count: flood actions append clones to the chunk, and the
  // clones must not be classified again.
  const u32 original_count = chunk.count();
  for (u32 i = 0; i < original_count; ++i) {
    perf::charge_cpu_cycles(perf::kCpuFlowKeyExtractCycles);
    if (chunk.verdict(i) == iengine::PacketVerdict::kDrop) continue;
    net::PacketView view;
    const auto frame = chunk.packet(i);
    if (net::parse_packet(frame.data(), static_cast<u32>(frame.size()), view) !=
        net::ParseStatus::kOk) {
      chunk.set_drop(i, iengine::DropReason::kParseError);
      continue;
    }
    const auto key = openflow::extract_flow_key(view, static_cast<u16>(chunk.in_port));

    perf::charge_cpu_cycles(perf::kCpuFlowHashCycles + perf::kCpuExactLookupCycles);
    int scanned = 0;
    const auto action =
        switch_.classify(key, static_cast<u32>(frame.size()), &scanned);
    perf::charge_cpu_cycles(scanned * perf::kCpuWildcardCyclesPerEntry);
    apply_action(chunk, i, action);
  }
}

}  // namespace ps::apps
