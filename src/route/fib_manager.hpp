// Control-plane FIB management (section 7, "integration with a control
// plane"): a Zebra/Quagga-style RIB feeding the data path's forwarding
// tables without disturbing it.
//
// The paper names the two candidate mechanisms — incremental update or
// double buffering — and this module implements both, composed: route
// changes accumulate in a flat RIB (route/rib.hpp) and as pre-resolved
// ops; commit writes a standby buffer and publishes it as an immutable FIB
// *generation* through a single atomic pointer. The data path never takes
// a lock: readers pin an epoch (ps::epoch), load the generation, and look
// up; a retired generation is destroyed only after every pinned epoch has
// advanced past its retirement, then its buffer is recycled for a future
// commit.
//
// Announces are batched the way the paper batches packets: announce()
// validates and queues its op, and the queued announces *settle* into the
// RIB together, in order, the next time anything reads the RIB (withdraw,
// route_count, commit). A settle sizes the RIB once for all of them and
// prefetches each home slot a few ops ahead, so a bulk load neither doubles
// the RIB on the way nor waits on one cache miss per route. Every return
// value and every table is what inserting at announce time would give.
// Commit settles under mu_: about 9 ms for the 282,797-route load, a few
// microseconds for a churn batch.
//
// How a commit writes the buffer: onto a published table that holds no
// routes (an initial load), it builds the table from the RIB in one pass
// and journals nothing. Otherwise it first brings the buffer up to the
// published generation, by replaying the op journal when the journal
// reaches back to the buffer's generation and by copying the published
// table when it does not, then applies the batch *incrementally*
// (touching only the TBL24/TBLlong regions the ops cover). Tables with no
// incremental apply (Ipv6Table) rebuild from the RIB on every commit.
// A build or a copy that needs a fresh buffer constructs it as the build
// (Table(span)) or as the copy, so no fill precedes either.
//
// Commit is transactional. A batch either publishes completely or leaves
// the published generation untouched: only a fully written buffer moves
// the atomic pointer. A fault mid-batch (see the control.fib_update.*
// points) poisons the standby buffer — it is discarded, the batch is
// re-queued in order, and the next commit retries against a fresh buffer.
// The RIB itself is never rolled back; once the queued announces settle it
// reflects everything announced and withdrawn, and pending ops carry the
// deltas that still separate it from the published table.
#pragma once

#include <cassert>
#include <chrono>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/atomic_shim.hpp"
#include "common/epoch.hpp"
#include "common/thread_annotations.hpp"
#include "fault/fault_injector.hpp"
#include "route/ipv4_table.hpp"
#include "route/ipv6_table.hpp"
#include "route/rib.hpp"
#include "telemetry/metrics.hpp"

namespace ps::route {

/// How a try_commit() attempt ended.
enum class CommitStatus {
  kClean,       // nothing pending; no new generation
  kCommitted,   // batch fully applied and published
  kRolledBack,  // fault hit; published generation untouched, batch re-queued
};

struct CommitResult {
  CommitStatus status = CommitStatus::kClean;
  u64 generation = 0;       // published generation after the attempt
  std::size_t ops = 0;      // batch size the attempt covered
  std::size_t slots_written = 0;  // table slots touched (incremental only)
};

/// Generation-published FIB. Table must provide build(span<const Prefix>),
/// a constructor from that span, and prefix_count(); when it additionally provides
/// apply_resolved(span<const ResolvedIpv4Op>) (Ipv4Table does), a commit
/// onto a table that holds routes is incremental and only a commit onto an
/// empty one builds; otherwise each commit is a from-scratch build, still
/// epoch-published (Ipv6Table today). KeyFn maps a prefix to its exact
/// (network, length) RIB key, hashed by std::hash and mixed.
template <typename Table, typename Prefix, typename KeyFn>
class FibManager {
 public:
  static constexpr bool kIncremental =
      requires(Table& t, std::span<const ResolvedIpv4Op> ops) { t.apply_resolved(ops); };

  /// Lock-free data-path handle: an epoch pin plus the generation it
  /// protects. Hold for one batch/chunk, then drop — a pin held forever
  /// blocks reclamation of every later generation.
  class ReadGuard {
   public:
    ReadGuard(epoch::Guard guard, const Table* table)
        : guard_(std::move(guard)), table_(table) {}
    const Table* operator->() const { return table_; }
    const Table& operator*() const { return *table_; }
    const Table* get() const { return table_; }

   private:
    epoch::Guard guard_;
    const Table* table_;
  };

  FibManager() : pool_(std::make_shared<BufferPool>()) {
    auto first = wrap(std::make_unique<Generation>(), pool_);
    current_.store(&first->table, std::memory_order_release);
    MutexLock lock(mu_);
    active_ = std::move(first);
  }

  ~FibManager() {
    // Drain retired generations before the pool dies with us. No reader
    // may still be pinned (the data path must be stopped first).
    domain_.reclaim();
  }

  /// Announce (add or replace) a route. Takes effect at the next commit.
  /// Returns false, and queues nothing, when the length exceeds the
  /// family's maximum or the next hop is above kNoRoute. The op is queued
  /// only; it reaches the RIB at the next settle.
  bool announce(const Prefix& prefix) {
    if (prefix.length > Prefix::kMaxLength || prefix.next_hop > kNoRoute) return false;
    MutexLock lock(mu_);
    PendingOp op;
    op.prefix = prefix;
    op.announce = true;
    pending_.push_back(op);
    return true;
  }

  /// Withdraw a route. Takes effect at the next commit. Returns false when
  /// the route was not present. The queued announces settle first, then the
  /// op is resolved against the RIB *now* (parent route for the freed
  /// range), so applying it later needs no RIB.
  bool withdraw(const Prefix& prefix) {
    if (prefix.length > Prefix::kMaxLength) return false;
    MutexLock lock(mu_);
    settle();
    const std::optional<Prefix> removed = rib_.erase(prefix);
    if (!removed) return false;
    PendingOp op;
    op.prefix = *removed;
    op.announce = false;
    if constexpr (kIncremental) {
      for (int l = static_cast<int>(op.prefix.length) - 1; l >= 0; --l) {
        Prefix cover = op.prefix;
        cover.length = static_cast<u8>(l);
        if (const Prefix* parent = rib_.find(cover)) {
          op.parent_nh = parent->next_hop;
          op.parent_depth = parent->length;
          break;
        }
      }
    }
    pending_.push_back(op);
    ++settled_;
    return true;
  }

  /// Routes in the RIB, queued announces included (they settle first).
  std::size_t route_count() {
    MutexLock lock(mu_);
    settle();
    return rib_.size();
  }

  /// Ops announced/withdrawn but not yet published (re-queued rollbacks
  /// included).
  std::size_t pending_updates() const {
    MutexLock lock(mu_);
    return pending_.size();
  }

  /// Apply and publish everything pending. Runs on the control-plane
  /// thread; the data path is never blocked. Returns the published
  /// generation (unchanged if nothing was pending).
  u64 commit() { return try_commit(nullptr).generation; }

  /// Fault-aware commit: one batch attempt. With an injector, the
  /// control.fib_update.alloc_fail and .crash_mid_batch points can force a
  /// rollback — the published generation is untouched and the batch is
  /// re-queued in order for the next attempt (the updater's retry loop).
  CommitResult try_commit(fault::FaultInjector* injector) {
    MutexLock writer(commit_mu_);
    CommitResult result;
    result.generation = generation_.load(std::memory_order_acquire);
    {
      MutexLock lock(mu_);
      if (pending_.empty()) return result;
      result.ops = pending_.size();
    }

    // Deterministic allocation failure: fires before any buffer is
    // acquired or mutated, so rollback is trivially "do nothing".
    if (injector != nullptr && injector->should_fire(fault::Point::kFibUpdateAllocFail)) {
      result.status = CommitStatus::kRolledBack;
      note_rollback(result.ops);
      return result;
    }

    const auto t0 = std::chrono::steady_clock::now();
    std::unique_ptr<Generation> builder = take_pooled();

    // Drain the batch and, in the same critical section, capture what the
    // builder needs. For a build that is the RIB, which at this instant is
    // exactly published state + batch. Otherwise it is how the builder
    // catches up with the published generation: the journal suffix after
    // its own generation, or, when the journal no longer reaches back that
    // far, the published table itself.
    std::vector<PendingOp> batch;
    std::vector<PendingOp> replay;
    std::vector<Prefix> full_rib;
    std::shared_ptr<const Generation> published;
    bool bulk = true;
    {
      MutexLock lock(mu_);
      settle();
      batch = std::move(pending_);
      pending_.clear();
      settled_ = 0;
      result.ops = batch.size();
      if constexpr (kIncremental) {
        bulk = active_->table.prefix_count() == 0;
        if (!bulk) {
          if (builder != nullptr && journal_reaches(builder->gen)) {
            for (const auto& b : journal_) {
              if (b.gen > builder->gen) replay.insert(replay.end(), b.ops.begin(), b.ops.end());
            }
          } else {
            published = active_;
          }
        }
      }
      if (bulk) full_rib = rib_.routes();
    }

    // Write the standby buffer outside every lock: announces keep flowing,
    // lookups never notice. The published table never changes once
    // published, and only this committer replaces it, so it is copied
    // unlocked.
    bool crashed = false;
    if (bulk) {
      if (builder == nullptr) {
        // A fresh buffer is constructed by the build, which writes every
        // entry once, with no pass that first fills it with empty entries.
        builder = std::make_unique<Generation>(Generation{Table(full_rib)});
      } else {
        builder->table.build(full_rib);
      }
      crashed = injector != nullptr &&
                injector->should_fire(fault::Point::kFibUpdateCrashMidBatch);
    } else if constexpr (kIncremental) {
      if (published == nullptr) {
        std::size_t caught_up = 0;  // report batch work, not catch-up work
        apply_ops(builder->table, replay, nullptr, &caught_up, &crashed);
      } else if (builder == nullptr) {
        // A fresh buffer is constructed as the copy, with no pass that
        // first fills it with empty entries.
        builder = std::make_unique<Generation>(Generation{published->table});
      } else {
        builder->table = published->table;
      }
      published.reset();
      apply_ops(builder->table, batch, injector, &result.slots_written, &crashed);
    }

    if (crashed) {
      // The buffer is part-mutated and unusable; drop it (not pooled) and
      // put the batch back at the head so op order is preserved. The batch
      // is settled; what was queued since settles later, behind it.
      builder.reset();
      MutexLock lock(mu_);
      pending_.insert(pending_.begin(), batch.begin(), batch.end());
      settled_ += batch.size();
      result.status = CommitStatus::kRolledBack;
      note_rollback(result.ops);
      return result;
    }

    // Publish: single atomic pointer swap, then retire the old generation
    // into the epoch domain. Readers pinned on the old generation keep it
    // alive; its buffer returns to the pool once the last pin advances.
    const u64 next_gen = result.generation + 1;
    builder->gen = next_gen;
    std::shared_ptr<Generation> fresh = wrap(std::move(builder), pool_);
    std::shared_ptr<Generation> old;
    {
      MutexLock lock(mu_);
      current_.store(&fresh->table, std::memory_order_release);
      old = std::exchange(active_, std::move(fresh));
      generation_.store(next_gen, std::memory_order_release);
      if constexpr (kIncremental) {
        if (bulk) {
          // A build is not journaled, so no older buffer can replay past it.
          journal_.clear();
        } else {
          journal_.push_back({next_gen, std::move(batch)});
          while (journal_.size() > kJournalDepth) journal_.pop_front();
        }
      }
    }
    domain_.retire(std::shared_ptr<const void>(std::move(old)));
    domain_.reclaim();

    result.status = CommitStatus::kCommitted;
    result.generation = next_gen;
    if (applied_ != nullptr) applied_->add(result.ops);
    if (apply_ns_ != nullptr) {
      apply_ns_->record(static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                             std::chrono::steady_clock::now() - t0)
                                             .count()));
    }
    return result;
  }

  /// Data-path read: pin an epoch, load the published generation. No lock,
  /// no reference-count bump — one relaxed store and one fence after the
  /// calling thread's first use.
  ReadGuard read() const {
    epoch::Guard guard = domain_.pin();
    return ReadGuard(std::move(guard), current_.load(std::memory_order_acquire));
  }

  /// Control-plane snapshot (GPU table upload, tests): shared ownership of
  /// the current generation. Costs a ref-count bump under a short lock —
  /// fine per sync(), wrong per packet; the data path uses read().
  std::shared_ptr<const Table> snapshot() const {
    MutexLock lock(mu_);
    return std::shared_ptr<const Table>(active_, &active_->table);
  }

  /// Monotonic table version; bumps on every effective commit.
  u64 generation() const { return generation_.load(std::memory_order_acquire); }

  /// Retired generations not yet reclaimed (readers still pinned on them).
  std::size_t retired_pending() const { return domain_.retired_pending(); }

  /// Export churn telemetry. Call once, for the router's primary FIB: the
  /// names are fixed (doc-synced), so two managers registering would share
  /// slots and break the single-writer discipline.
  void register_metrics(telemetry::MetricsRegistry& registry) {
    applied_ = registry.counter("fib.updates_applied");
    rolled_back_ = registry.counter("fib.updates_rolled_back");
    apply_ns_ = registry.histogram("fib.update_apply_ns");
    registry.register_probe("fib.generation", telemetry::MetricKind::kGauge,
                            [this] { return generation(); });
    registry.register_probe("fib.retired_pending", telemetry::MetricKind::kGauge,
                            [this] { return static_cast<u64>(domain_.retired_pending()); });
  }

 private:
  /// A route change resolved against the RIB: a withdraw when it is
  /// queued, an announce when it settles. Field-compatible with
  /// ResolvedIpv4Op; kept per-Prefix so the same pending queue serves
  /// non-incremental tables.
  struct PendingOp {
    Prefix prefix;
    bool announce = true;
    bool is_new = false;
    NextHop parent_nh = kNoRoute;
    u8 parent_depth = 0;
  };

  /// One table buffer plus the generation whose state it holds.
  struct Generation {
    Table table;
    u64 gen = 0;
  };

  /// Recycled standby buffers. Buffers come back through the epoch
  /// domain's reclamation (custom deleter below), so a pooled buffer is
  /// never still visible to a reader.
  struct BufferPool {
    Mutex mu;
    std::vector<std::unique_ptr<Generation>> free GUARDED_BY(mu);
  };

  struct Batch {
    u64 gen = 0;
    std::vector<PendingOp> ops;
  };

  /// Journal depth = how far behind a pooled buffer may lag and still be
  /// caught up by replay; an older buffer copies the published table. Also
  /// the memory bound on the journal itself (kJournalDepth batches).
  static constexpr std::size_t kJournalDepth = 64;
  /// Buffers kept for reuse; more than the steady-state two (published +
  /// standby) only transiently, e.g. while a reader pins an old generation.
  static constexpr std::size_t kPoolDepth = 2;

  static std::shared_ptr<Generation> wrap(std::unique_ptr<Generation> g,
                                          std::shared_ptr<BufferPool> pool) {
    return std::shared_ptr<Generation>(g.release(), [pool](Generation* raw) {
      std::unique_ptr<Generation> owned(raw);
      MutexLock lock(pool->mu);
      if (pool->free.size() < kPoolDepth) pool->free.push_back(std::move(owned));
    });
  }

  /// A recycled buffer, or nullptr when the pool is empty.
  std::unique_ptr<Generation> take_pooled() {
    MutexLock lock(pool_->mu);
    if (pool_->free.empty()) return nullptr;
    std::unique_ptr<Generation> g = std::move(pool_->free.back());
    pool_->free.pop_back();
    return g;
  }

  /// True when the journal contains every batch in (gen, published].
  bool journal_reaches(u64 gen) const REQUIRES(mu_) {
    if (journal_.empty()) return gen == generation_.load(std::memory_order_acquire);
    return gen + 1 >= journal_.front().gen;
  }

  /// Apply ops in order; with an injector, crash_mid_batch is evaluated
  /// per op so a batch can die anywhere inside — exactly the partial-apply
  /// scenario rollback must survive.
  static void apply_ops(Table& table, const std::vector<PendingOp>& ops,
                        fault::FaultInjector* injector, std::size_t* slots, bool* crashed) {
    if constexpr (kIncremental) {
      for (const auto& op : ops) {
        if (injector != nullptr &&
            injector->should_fire(fault::Point::kFibUpdateCrashMidBatch)) {
          *crashed = true;
          return;
        }
        ResolvedIpv4Op resolved;
        resolved.prefix = op.prefix;
        resolved.announce = op.announce;
        resolved.is_new = op.is_new;
        resolved.parent_nh = op.parent_nh;
        resolved.parent_depth = op.parent_depth;
        *slots += table.apply_resolved(std::span<const ResolvedIpv4Op>(&resolved, 1));
      }
    }
  }

  /// Insert the queued announces, pending_[settled_, end), into the RIB in
  /// order and record which ones add a route. Everything before settled_
  /// is in the RIB already, and only announces queue unsettled: a withdraw
  /// settles what is ahead of it.
  void settle() REQUIRES(mu_) {
    const std::size_t end = pending_.size();
    if (settled_ == end) return;
    rib_.reserve(rib_.size() + (end - settled_));
    // Far enough ahead to hide a miss behind a few inserts, near enough
    // that the line is still cached when its insert comes.
    constexpr std::size_t kPrefetchAhead = 8;
    for (std::size_t i = settled_; i < end; ++i) {
      if (i + kPrefetchAhead < end) rib_.prefetch(pending_[i + kPrefetchAhead].prefix);
      PendingOp& op = pending_[i];
      assert(op.announce);
      op.is_new = rib_.insert_or_assign(op.prefix);
    }
    settled_ = end;
  }

  void note_rollback(std::size_t ops) {
    if (rolled_back_ != nullptr) rolled_back_->add(ops);
  }

  /// Serializes writers (commit vs commit); never touched by readers.
  /// Lock order: commit_mu_ before mu_ before pool_->mu.
  Mutex commit_mu_;
  mutable Mutex mu_;
  /// Owner of the published generation; current_ aliases into it.
  std::shared_ptr<Generation> active_ GUARDED_BY(mu_);
  Rib<Prefix, KeyFn> rib_ GUARDED_BY(mu_);
  std::vector<PendingOp> pending_ GUARDED_BY(mu_);
  /// pending_[0, settled_) are in the RIB; the rest are queued announces.
  std::size_t settled_ GUARDED_BY(mu_) = 0;
  std::deque<Batch> journal_ GUARDED_BY(mu_);

  /// The single atomic pointer readers load. Always points into the
  /// Generation owned by active_; lifetime beyond the swap is the epoch
  /// domain's business.
  // mc: fib.current -- release pointer swap; readers load acquire under pin
  ps::atomic<const Table*> current_{nullptr};
  // mc: fib.generation -- release gen bump paired with current_ swap
  ps::atomic<u64> generation_{0};
  mutable epoch::Domain domain_;
  std::shared_ptr<BufferPool> pool_;

  telemetry::Counter* applied_ = nullptr;
  telemetry::Counter* rolled_back_ = nullptr;
  telemetry::HistogramMetric* apply_ns_ = nullptr;
};

struct Ipv4PrefixKey {
  u64 operator()(const Ipv4Prefix& p) const {
    return (static_cast<u64>(p.network()) << 8) | p.length;
  }
};

/// An IPv6 route's masked address and length: 136 bits, so unlike the
/// IPv4 key it cannot be packed into a u64 without collisions.
struct Ipv6RibKey {
  Key128 network;
  u8 length = 0;
  bool operator==(const Ipv6RibKey&) const = default;
};

struct Ipv6PrefixKey {
  Ipv6RibKey operator()(const Ipv6Prefix& p) const {
    return {mask128(p.addr.hi64(), p.addr.lo64(), p.length), p.length};
  }
};

}  // namespace ps::route

template <>
struct std::hash<ps::route::Ipv6RibKey> {
  std::size_t operator()(const ps::route::Ipv6RibKey& k) const noexcept {
    return ps::route::Key128Hash{}(k.network) * 131 + k.length;
  }
};

namespace ps::route {

using Ipv4Fib = FibManager<Ipv4Table, Ipv4Prefix, Ipv4PrefixKey>;
using Ipv6Fib = FibManager<Ipv6Table, Ipv6Prefix, Ipv6PrefixKey>;

}  // namespace ps::route
