// Thread liveness heartbeat (overload-control / supervision layer).
//
// Every supervised thread (worker, master) owns one Heartbeat and ticks
// it at the top of its loop; a supervisor thread samples the counters and
// declares a thread stalled when the beat counter stops advancing for
// longer than the configured window.
//
// Heartbeats are embedded as CacheAligned<Heartbeat> so the per-thread
// counters never share a cache line (the §4.4 false-sharing discipline
// applies to supervision state too: a heartbeat is written every loop
// iteration).
#pragma once

#include <atomic>

#include "common/atomic_shim.hpp"
#include "common/types.hpp"

namespace ps {

struct Heartbeat {
  // mc: heartbeat.beats -- release tick; supervisor acquires (quarantine edge)
  ps::atomic<u64> beats{0};  // loop-alive ticks

  /// Release order so everything the thread did before the beat (queue
  /// writes, ring handoffs) is visible to a supervisor that acquires it —
  /// the quarantine handshake relies on this edge.
  void beat() { beats.fetch_add(1, std::memory_order_release); }

  u64 beats_now() const { return beats.load(std::memory_order_acquire); }
};

}  // namespace ps
