#include "apps/ipsec_gateway.hpp"

#include <cassert>
#include <cstring>

#include "common/cacheline.hpp"
#include "perf/calibration.hpp"
#include "perf/ledger.hpp"

namespace ps::apps {

namespace {

constexpr u32 kAuthPrefix = 16;  // ESP header (8) + IV (8) precede the ciphertext
constexpr u32 kIcvSize = crypto::kHmacSha1_96Size;

/// Per-packet record the pre-shader emits (also consumed host-side by
/// the post-shader).
struct PacketDesc {
  u32 blob_off = 0;     // into the blob region: [esp hdr | iv | plaintext]
  u32 cipher_len = 0;   // bytes under AES (blob bytes after the 16 B auth prefix)
  u32 first_block = 0;  // index of this packet's first AES block
};
struct BlockRef {
  u32 desc = 0;   // PacketDesc index
  u32 block = 0;  // AES block index within the packet
};

/// Where a job's gathered input sits in gpu_input, as pre_shade writes it:
/// [PacketDesc per tunneled packet | BlockRef per AES block | blob]. The
/// counts come from the job (gpu_index, gpu_items). The blob holds each
/// packet's HMAC coverage, [ESP header | IV | plaintext], and AES applies
/// past its 16 B prefix.
struct GpuInput {
  explicit GpuInput(const core::ShaderJob& job)
      : n_packets(static_cast<u32>(job.gpu_index.size())),
        n_blocks(job.gpu_items),
        blocks_off(n_packets * sizeof(PacketDesc)),
        blob_off(blocks_off + n_blocks * sizeof(BlockRef)) {}

  u32 n_packets;
  u32 n_blocks;
  std::size_t blocks_off;
  std::size_t blob_off;
};

PacketDesc desc_at(const core::ShaderJob& job, u32 k) {
  PacketDesc desc;
  std::memcpy(&desc, job.gpu_input.data() + k * sizeof(PacketDesc), sizeof desc);
  return desc;
}

/// After encapsulate(), the packets that carry a tunnel frame.
bool tunneled(const iengine::PacketChunk& chunk, u32 i) {
  return chunk.verdict(i) == iengine::PacketVerdict::kForward;
}

u32 sha1_blocks_for(u32 auth_len) {
  // HMAC = inner hash over (64 B ipad + message, padded) + outer hash over
  // (64 B opad + 20 B digest) = 2 blocks.
  return (64 + auth_len + 9 + 63) / 64 + 2;
}

u32 aes_blocks_for(u32 cipher_len) { return (cipher_len + 15) / 16; }

double byte_copy_cycles(u64 bytes) {
  return static_cast<double>(cache_lines(bytes)) * perf::kCopyCyclesPerCacheLine;
}

}  // namespace

IpsecGatewayApp::IpsecGatewayApp(const crypto::SecurityAssociation& sa) : sa_(sa) {}

gpu::GpuResult IpsecGatewayApp::upload_keys(GpuState& st, TableUpload up) const {
  // Key material, static per SA (section 6): AES schedule, CTR nonce, HMAC key.
  std::vector<u8> keys;
  const auto schedule = sa_.cipher.round_keys();
  keys.insert(keys.end(), schedule.begin(), schedule.end());
  keys.insert(keys.end(), sa_.nonce.begin(), sa_.nonce.end());
  keys.insert(keys.end(), sa_.auth_key.begin(), sa_.auth_key.end());
  st.keys = up.device.alloc(keys.size());
  st.keys_loaded = up.copy(st.keys, keys).result.ok();
  return up.result;
}

void IpsecGatewayApp::bind_gpu(gpu::GpuDevice& device) {
  if (gpu_state_.contains(device.gpu_id())) return;
  GpuState st;
  st.descs = device.alloc(kMaxBatchPackets * sizeof(PacketDesc));
  st.blocks = device.alloc(kMaxBatchBlocks * sizeof(BlockRef));
  st.blob = device.alloc(static_cast<std::size_t>(kMaxBatchBlocks) * 16 +
                         kMaxBatchPackets * kAuthPrefix);
  st.icv = device.alloc(kMaxBatchPackets * crypto::kHmacSha1_96Size);
  st.blob_segs.reserve(iengine::PacketChunk::kDefaultMaxPackets);
  st.icv_segs.reserve(iengine::PacketChunk::kDefaultMaxPackets);
  upload_keys(st, {device});
  gpu_state_.emplace(device.gpu_id(), std::move(st));
}

void IpsecGatewayApp::encapsulate(iengine::PacketChunk& chunk) {
  // Packets condemned upstream (e.g. NIC-flagged corruption) keep their
  // verdict and reason and are never encrypted. A frame that is not IPv4,
  // or whose tunnel frame would not fit a cell, goes to the slow path
  // untouched. The rest leave on the ingress port's partner.
  u32 sequenced = 0;
  for (u32 i = 0; i < chunk.count(); ++i) {
    if (chunk.verdict(i) == iengine::PacketVerdict::kDrop) continue;
    ++sequenced;
    const u32 size = crypto::esp_tunnel_size(chunk.packet(i));
    if (size == 0 || size > mem::kDataCellSize) {
      chunk.set_verdict(i, iengine::PacketVerdict::kSlowPath);
      continue;
    }
    chunk.set_verdict(i, iengine::PacketVerdict::kForward);
    chunk.set_out_port(i, static_cast<i16>(chunk.in_port ^ 1));
  }

  // Every packet not dropped takes a sequence number, in packet order.
  // grow() visits the packets back to front, so count down from the end.
  u32 seq = next_seq_.fetch_add(sequenced, std::memory_order_relaxed) + sequenced;
  [[maybe_unused]] const bool grown = chunk.grow(
      [&chunk](u32 i) {
        const u32 length = chunk.length(i);
        return tunneled(chunk, i) ? crypto::esp_output_frame_size(length) : length;
      },
      [&](u32 i, u32 old_length) {
        if (chunk.verdict(i) == iengine::PacketVerdict::kDrop) return;
        --seq;
        if (!tunneled(chunk, i)) return;
        const auto frame = chunk.packet(i);
        crypto::esp_build_unencrypted(sa_, frame.first(old_length), seq, frame);
      });
  assert(grown);  // every tunnel frame fits its cell
}

void IpsecGatewayApp::pre_shade(core::ShaderJob& job) {
  auto& chunk = job.chunk;
  for (u32 i = 0; i < chunk.count(); ++i) {
    perf::charge_cpu_cycles(perf::kCpuIpsecPerPacketCycles + perf::kPreShadingCyclesPerPacket);
  }
  encapsulate(chunk);

  // Size the gathered input, then write it straight into gpu_input.
  u32 n_blocks = 0;
  std::size_t blob_len = 0;
  for (u32 i = 0; i < chunk.count(); ++i) {
    if (!tunneled(chunk, i)) continue;
    const u32 cipher_len = crypto::esp_layout(chunk.length(i)).cipher_len;
    job.gpu_index.push_back(i);
    n_blocks += aes_blocks_for(cipher_len);
    blob_len += kAuthPrefix + cipher_len;
  }
  job.gpu_items = n_blocks;
  const GpuInput in(job);
  job.gpu_input.resize(in.blob_off + blob_len);
  u8* blocks = job.gpu_input.data() + in.blocks_off;
  u8* blob = job.gpu_input.data() + in.blob_off;

  u32 blob_off = 0;
  u32 first_block = 0;
  for (u32 k = 0; k < in.n_packets; ++k) {
    const u32 slot = job.gpu_index[k];
    const auto frame = chunk.packet(slot);
    const auto layout = crypto::esp_layout(static_cast<u32>(frame.size()));
    const u32 auth_len = kAuthPrefix + layout.cipher_len;
    const u32 nb = aes_blocks_for(layout.cipher_len);
    const PacketDesc desc{blob_off, layout.cipher_len, first_block};
    std::memcpy(job.gpu_input.data() + k * sizeof(PacketDesc), &desc, sizeof desc);
    for (u32 b = 0; b < nb; ++b) {
      const BlockRef ref{k, b};
      std::memcpy(blocks + (first_block + b) * sizeof(BlockRef), &ref, sizeof ref);
    }
    std::memcpy(blob + blob_off, frame.data() + layout.esp_offset, auth_len);
    perf::charge_cpu_cycles(byte_copy_cycles(auth_len));

    // In-place scatter plan: shade() D2H-writes ciphertext and ICV straight
    // into the frame instead of bouncing through gpu_output. out_off
    // addresses the canonical [ciphertext blob | ICV array] layout
    // shade_cpu produces, which keeps the in-place result byte-comparable
    // to a CPU re-shade. Spans go in gpu_index order (shadow verification
    // relies on that ordering to count bad packets).
    job.scatter_plan.push_back(
        {slot, layout.payload_offset, blob_off + kAuthPrefix, layout.cipher_len});
    job.scatter_plan.push_back(
        {slot, layout.icv_offset, static_cast<u32>(blob_len) + k * kIcvSize, kIcvSize});
    blob_off += auth_len;
    first_block += nb;
  }
}

gpu::GpuStatus IpsecGatewayApp::shade_one_job(core::GpuContext& gpu, core::ShaderJob& job,
                                              gpu::StreamId stream, Picos submit_time,
                                              Picos& done) {
  const GpuInput in(job);
  if (in.n_packets == 0) return gpu::GpuStatus::kOk;
  assert(in.n_packets <= kMaxBatchPackets && in.n_blocks <= kMaxBatchBlocks);
  auto& st = gpu_state_.at(gpu.device->gpu_id());
  const std::span<const u8> input = job.gpu_input;

  // Gathered copies of the three regions (one logical transfer each).
  // Re-uploading the plaintext blob also makes a retried job idempotent:
  // the in-place AES below always starts from fresh plaintext.
  const auto c1 =
      gpu.device->memcpy_h2d(st.descs, 0, input.first(in.blocks_off), stream, submit_time);
  if (!c1.ok()) return c1.status;
  const auto c2 = gpu.device->memcpy_h2d(
      st.blocks, 0, input.subspan(in.blocks_off, in.blob_off - in.blocks_off), stream,
      submit_time);
  if (!c2.ok()) return c2.status;
  const auto c3 =
      gpu.device->memcpy_h2d(st.blob, 0, input.subspan(in.blob_off), stream, submit_time);
  if (!c3.ok()) return c3.status;

  // Kernel 1 — AES-128-CTR, one thread per 16 B block (finest grain).
  const gpu::KernelLaunch aes{
      .threads = in.n_blocks,
      .body =
          [st = &st](gpu::ThreadCtx& ctx) {
            const BlockRef ref = st->blocks.as<const BlockRef>()[ctx.thread_id()];
            const PacketDesc d = st->descs.as<const PacketDesc>()[ref.desc];
            u8* packet = st->blob.data() + d.blob_off;  // [ESP hdr | IV | payload]
            const u32 remain = d.cipher_len - ref.block * 16;
            crypto::aes_ctr_crypt_block(st->keys.data(), st->keys.data() + 176, packet + 8,
                                        ref.block, packet + kAuthPrefix + ref.block * 16,
                                        remain < 16 ? remain : 16);
          },
      .cost = {.instructions = perf::kGpuAesInstrPerBlock, .mem_accesses = 1.0},
  };
  const auto aes_result = gpu.device->launch(aes, stream, submit_time);
  if (!aes_result.ok()) return aes_result.status;

  // Kernel 2 — HMAC-SHA1 over [ESP hdr | IV | ciphertext], one thread per
  // packet (SHA-1's block chain is sequential).
  double total_sha_blocks = 0;
  u64 total_auth_bytes = 0;
  for (u32 p = 0; p < in.n_packets; ++p) {
    const u32 auth_len = kAuthPrefix + desc_at(job, p).cipher_len;
    total_sha_blocks += sha1_blocks_for(auth_len);
    total_auth_bytes += auth_len;
  }
  const gpu::KernelLaunch hmac{
      .threads = in.n_packets,
      .body =
          [st = &st](gpu::ThreadCtx& ctx) {
            const PacketDesc d = st->descs.as<const PacketDesc>()[ctx.thread_id()];
            const auto tag =
                crypto::hmac_sha1_96({st->keys.data() + 180, crypto::kSha1DigestSize},
                                     {st->blob.data() + d.blob_off, kAuthPrefix + d.cipher_len});
            std::memcpy(st->icv.data() + ctx.thread_id() * kIcvSize, tag.data(), tag.size());
          },
      .cost = {.instructions =
                   total_sha_blocks / in.n_packets * perf::kGpuSha1InstrPerBlock,
               .mem_accesses = static_cast<double>(total_auth_bytes) / in.n_packets / 32.0},
  };
  const auto hmac_result = gpu.device->launch(hmac, stream, submit_time);
  if (!hmac_result.ok()) return hmac_result.status;

  // Results back: the scatter plan's DMA descriptor lists land ciphertext
  // and ICV directly at each packet's frame offsets (zero-copy:
  // post_shade's per-packet bounce copies disappear), still one D2H per
  // device source buffer.
  const std::size_t blob_len = input.size() - in.blob_off;
  st.blob_segs.clear();
  st.icv_segs.clear();
  for (const auto& span : job.scatter_plan) {
    auto frame = job.chunk.packet(span.packet);
    assert(span.frame_off + span.len <= frame.size());
    std::span<u8> dst{frame.data() + span.frame_off, span.len};
    // Canonical-layout offsets map onto the device buffers directly:
    // [0, blob_len) is st.blob, the ICV array tail is st.icv.
    if (span.out_off < blob_len) {
      st.blob_segs.push_back({dst, span.out_off});
    } else {
      st.icv_segs.push_back({dst, span.out_off - blob_len});
    }
  }
  const auto t1 = gpu.device->memcpy_d2h_scatter(st.blob_segs, st.blob, stream, submit_time);
  if (!t1.ok()) return t1.status;
  const auto t2 = gpu.device->memcpy_d2h_scatter(st.icv_segs, st.icv, stream, submit_time);
  if (!t2.ok()) return t2.status;
  done = std::max({done, t1.end, t2.end});
  // Every span landed: only now may post_shade skip its copy-out. A failed
  // attempt above leaves this false, so the CPU fallback's copy path
  // overwrites any partially-scattered garbage.
  job.applied_in_place = true;
  return gpu::GpuStatus::kOk;
}

core::ShadeOutcome IpsecGatewayApp::shade(core::GpuContext& gpu,
                                          std::span<core::ShaderJob* const> jobs,
                                          Picos submit_time) {
  auto& state = gpu_state_.at(gpu.device->gpu_id());
  if (!state.keys_loaded) {
    const auto up = upload_keys(state, {*gpu.device, gpu.stream_for(0), submit_time});
    if (!up.ok()) return {up.status, up.end};
    submit_time = up.end;
  }
  Picos done = submit_time;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto st = shade_one_job(gpu, *jobs[j], gpu.stream_for(j), submit_time, done);
    if (st != gpu::GpuStatus::kOk) return {st, done};
  }
  return {gpu::GpuStatus::kOk, done};
}

void IpsecGatewayApp::shade_cpu(core::ShaderJob& job) {
  const GpuInput in(job);
  // Same output layout as the GPU path: [ciphertext blob | ICV array].
  const std::size_t blob_len = job.gpu_input.size() - in.blob_off;
  job.gpu_output.resize(blob_len + in.n_packets * kIcvSize);
  u8* blob = job.gpu_output.data();
  std::memcpy(blob, job.gpu_input.data() + in.blob_off, blob_len);
  u8* icv = job.gpu_output.data() + blob_len;

  const auto schedule = sa_.cipher.round_keys();
  for (u32 p = 0; p < in.n_packets; ++p) {
    const PacketDesc d = desc_at(job, p);
    const u8* iv = blob + d.blob_off + 8;
    const u32 nb = aes_blocks_for(d.cipher_len);
    for (u32 b = 0; b < nb; ++b) {
      u8* data = blob + d.blob_off + kAuthPrefix + b * 16;
      const u32 remain = d.cipher_len - b * 16;
      crypto::aes_ctr_crypt_block(schedule.data(), sa_.nonce.data(), iv, b, data,
                                  remain < 16 ? remain : 16);
    }
    const auto tag =
        crypto::hmac_sha1_96({sa_.auth_key.data(), crypto::kSha1DigestSize},
                             {blob + d.blob_off, kAuthPrefix + d.cipher_len});
    std::memcpy(icv + p * kIcvSize, tag.data(), tag.size());
    perf::charge_cpu_cycles(nb * perf::kCpuAesCyclesPerBlock +
                            sha1_blocks_for(kAuthPrefix + d.cipher_len) *
                                perf::kCpuSha1CyclesPerBlock);
  }
}

void IpsecGatewayApp::post_shade(core::ShaderJob& job) {
  const GpuInput in(job);
  if (job.applied_in_place) {
    // Zero-copy scatter already landed ciphertext + ICV in the frames (and
    // the master re-stamped the mutated chunk); only the per-packet
    // post-shading bookkeeping remains.
    for (u32 k = 0; k < in.n_packets; ++k) {
      perf::charge_cpu_cycles(perf::kPostShadingCyclesPerPacket);
    }
    return;
  }

  const u8* out_blob = job.gpu_output.data();
  const u8* out_icv = out_blob + (job.gpu_input.size() - in.blob_off);
  for (u32 k = 0; k < in.n_packets; ++k) {
    perf::charge_cpu_cycles(perf::kPostShadingCyclesPerPacket);
    const PacketDesc d = desc_at(job, k);
    const auto frame = job.chunk.packet(job.gpu_index[k]);
    const auto layout = crypto::esp_layout(static_cast<u32>(frame.size()));
    // Write ciphertext (skip the ESP header + IV prefix, already in frame)
    // and the ICV into the encapsulated frame.
    std::memcpy(frame.data() + layout.payload_offset, out_blob + d.blob_off + kAuthPrefix,
                d.cipher_len);
    std::memcpy(frame.data() + layout.icv_offset, out_icv + k * kIcvSize, kIcvSize);
    perf::charge_cpu_cycles(byte_copy_cycles(d.cipher_len + kIcvSize));
  }
  // The copy path rewrote frame bytes after the master's stamp; the worker
  // re-stamps the chunk before the kTx verification.
  if (in.n_packets > 0) job.frames_dirty = true;
}

void IpsecGatewayApp::process_cpu(iengine::PacketChunk& chunk) {
  encapsulate(chunk);
  for (u32 i = 0; i < chunk.count(); ++i) {
    if (chunk.verdict(i) == iengine::PacketVerdict::kDrop) continue;
    if (!tunneled(chunk, i)) {
      perf::charge_cpu_cycles(perf::kCpuIpsecPerPacketCycles);
      continue;
    }
    const auto frame = chunk.packet(i);
    crypto::esp_seal(sa_, frame);
    const u32 cipher_len = crypto::esp_layout(static_cast<u32>(frame.size())).cipher_len;
    perf::charge_cpu_cycles(
        perf::kCpuIpsecPerPacketCycles +
        aes_blocks_for(cipher_len) * perf::kCpuAesCyclesPerBlock +
        sha1_blocks_for(kAuthPrefix + cipher_len) * perf::kCpuSha1CyclesPerBlock);
  }
}

}  // namespace ps::apps
