#include "core/pipeline.hpp"

#include <algorithm>
#include <cstring>

namespace ps::core {

using integrity::Stage;

void Pipeline::drop_flagged(iengine::PacketChunk& chunk) {
  u32 dropped = 0;
  for (u32 i = 0; i < chunk.count(); ++i) {
    if (!chunk.integrity_bad(i)) continue;
    if (chunk.verdict(i) == iengine::PacketVerdict::kDrop) continue;
    chunk.set_drop(i, iengine::DropReason::kIntegrityFail);
    ++dropped;
  }
  if (dropped != 0) integrity_->count_quarantined(dropped);
}

void Pipeline::admit(iengine::PacketChunk& chunk) {
  if (integrity_ != nullptr && integrity_->verify_chunk(chunk, Stage::kRx) != 0) {
    drop_flagged(chunk);
  }
}

void Pipeline::run_cpu(iengine::PacketChunk& chunk) {
  shader_->process_cpu(chunk);
  chunk.set_stamped(false);
}

void Pipeline::pre(ShaderJob& job) {
  shader_->pre_shade(job);
  if (integrity_ != nullptr) integrity_->stamp_chunk(job.chunk);
}

void Pipeline::gather_verify(std::span<ShaderJob* const> batch) {
  if (integrity_ == nullptr) return;
  for (ShaderJob* job : batch) integrity_->verify_chunk(job->chunk, Stage::kGather);
}

u64 Pipeline::shadow_check(ShadowState& state, ShaderJob& job) {
  u64 bad_items = 0;
  if (job.applied_in_place) {
    // The device's results live in the frames, not gpu_output. Recompute
    // the canonical layout on the CPU from the untouched gathered input and
    // compare span by span (out_off addresses the same bytes there); a
    // mismatched span is repaired in place, so the CPU truth ships.
    integrity_->count_shadow_batch();
    shader_->shade_cpu(job);
    i64 last_bad_packet = -1;  // the plan is packet-ordered
    for (const auto& span : job.scatter_plan) {
      u8* frame_bytes = job.chunk.packet(span.packet).data() + span.frame_off;
      const u8* truth = job.gpu_output.data() + span.out_off;
      if (std::memcmp(frame_bytes, truth, span.len) == 0) continue;
      std::memcpy(frame_bytes, truth, span.len);
      if (static_cast<i64>(span.packet) != last_bad_packet) {
        ++bad_items;
        last_bad_packet = static_cast<i64>(span.packet);
      }
    }
    return bad_items;
  }
  if (job.gpu_output.empty()) return 0;  // composed jobs verify via sub-chunk byte checks
  integrity_->count_shadow_batch();
  // Stash the device's results and recompute them on the CPU (differential
  // tests pin the two byte-identical). shade_cpu writes gpu_output, so
  // after a mismatch the job already carries the CPU ground truth.
  state.scratch.assign(job.gpu_output.begin(), job.gpu_output.end());
  shader_->shade_cpu(job);
  if (state.scratch == job.gpu_output) return 0;
  const std::size_t items = std::max<u32>(job.gpu_items, 1);
  const std::size_t stride = job.gpu_output.size() / items;
  if (stride == 0 || job.gpu_output.size() % items != 0) return 1;  // localize to the batch
  for (std::size_t i = 0; i < items; ++i) {
    if (std::memcmp(state.scratch.data() + i * stride, job.gpu_output.data() + i * stride,
                    stride) != 0) {
      ++bad_items;
    }
  }
  return bad_items;
}

bool Pipeline::shadow_verify(ShadowState& state, std::span<ShaderJob* const> batch) {
  if (integrity_ == nullptr) return false;
  const u64 seq = state.seq++;
  const bool escalated = state.escalated_remaining > 0;
  if (escalated && --state.escalated_remaining == 0) {
    state.strikes = 0;  // the window expired without tripping: strikes age out
  }
  if (!integrity_->should_shadow_verify(seq, escalated)) return false;

  bool any_mismatch = false;
  for (ShaderJob* job : batch) {
    const u64 bad_items = shadow_check(state, *job);
    if (bad_items == 0) continue;
    any_mismatch = true;
    integrity_->count_shadow_mismatch(bad_items);
    integrity_->count_reshaded_batch();
    job->shaded_on_cpu = true;  // the CPU result ships instead
  }
  if (!any_mismatch) return false;

  state.escalated_remaining = integrity_->config().shadow_escalate_batches;
  if (++state.strikes < integrity_->config().shadow_trip_threshold) return false;
  state.strikes = 0;
  integrity_->count_device_suspect();
  return true;
}

void Pipeline::restamp_in_place(std::span<ShaderJob* const> batch) {
  if (integrity_ == nullptr) return;
  for (ShaderJob* job : batch) {
    if (!job->scatter_plan.empty() && job->chunk.stamped()) integrity_->stamp_chunk(job->chunk);
  }
}

void Pipeline::apply(ShaderJob& job) {
  if (integrity_ != nullptr && integrity_->verify_chunk(job.chunk, Stage::kScatter) != 0 &&
      !job.shaded_on_cpu) {
    // Bytes changed between the master's stamp and here. One CPU re-shade
    // recomputes the results from the gathered inputs; the flagged packets
    // stay bad and are dropped below, once post_shade has assigned verdicts
    // (it would overwrite an earlier drop). An in-place device result is no
    // longer trusted either: post_shade applies the CPU truth over it.
    shader_->shade_cpu(job);
    integrity_->count_reshaded_batch();
    job.shaded_on_cpu = true;
    job.applied_in_place = false;
  }
  shader_->post_shade(job);
  if (integrity_ != nullptr && job.chunk.stamped()) {
    drop_flagged(job.chunk);
    if (job.frames_dirty) integrity_->stamp_chunk(job.chunk);
  }
}

void Pipeline::pre_tx(iengine::PacketChunk& chunk) {
  if (integrity_ != nullptr && chunk.stamped()) {
    integrity_->verify_chunk(chunk, Stage::kTx);
    drop_flagged(chunk);
  }
}

}  // namespace ps::core
