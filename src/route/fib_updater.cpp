#include "route/fib_updater.hpp"

#include <algorithm>

namespace ps::route {

FibUpdater::FibUpdater(Ipv4Fib& fib, FibUpdaterConfig config, fault::FaultInjector* injector)
    : fib_(fib), config_(config), injector_(injector) {}

FibUpdater::~FibUpdater() { stop(); }

void FibUpdater::start() {
  {
    MutexLock lock(mu_);
    if (running_) return;
    running_ = true;
    stop_requested_ = false;
    kicked_ = false;
  }
  thread_ = std::thread([this] { run(); });
}

void FibUpdater::stop() {
  {
    MutexLock lock(mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  MutexLock lock(mu_);
  running_ = false;
}

void FibUpdater::kick() {
  {
    MutexLock lock(mu_);
    kicked_ = true;
  }
  cv_.notify_all();
}

void FibUpdater::drain() {
  // Commit progress is the updater's job; we only wait and re-check. The
  // condvar is notified after every commit attempt.
  MutexLock lock(mu_);
  while ((fib_.pending_updates() > 0 || committing_) && !stop_requested_) {
    cv_.wait_for(mu_, config_.poll_interval);
  }
}

int FibUpdater::attach_supervisor(supervise::Supervisor& supervisor) {
  return supervisor.add_thread(
      "fib-updater", supervise::ThreadKind::kOther, &hb_,
      /*on_stall=*/[this](const supervise::StallEvent&) { kick(); },
      /*on_recover=*/{});
}

bool FibUpdater::wedge_until_kicked() {
  // Deterministic wedge: heartbeat stays silent so the supervisor's
  // stall detector fires; its recovery handler kick()s us back to life.
  MutexLock lock(mu_);
  while (!kicked_ && !stop_requested_) {
    cv_.wait(mu_);
  }
  if (kicked_) {
    kicked_ = false;
    stall_recoveries_.fetch_add(1, std::memory_order_relaxed);
  }
  return !stop_requested_;
}

void FibUpdater::run() {
  auto backoff = config_.backoff_base;
  while (true) {
    hb_.beat();

    if (injector_ != nullptr && injector_->should_fire(fault::Point::kFibUpdateStall)) {
      if (!wedge_until_kicked()) return;
      continue;  // re-beat before the next attempt
    }

    if (fib_.pending_updates() == 0) {
      MutexLock lock(mu_);
      if (stop_requested_) return;
      cv_.wait_for(mu_, config_.poll_interval);
      continue;
    }

    // committing_ covers the publication gap: pending empties the moment
    // try_commit drains the batch, but drain() must not return until the
    // new generation is actually published (or the batch re-queued).
    {
      MutexLock lock(mu_);
      if (stop_requested_) return;
      committing_ = true;
    }
    const CommitResult result = fib_.try_commit(injector_);
    {
      MutexLock lock(mu_);
      committing_ = false;
    }
    if (result.status == CommitStatus::kCommitted) {
      commits_.fetch_add(1, std::memory_order_relaxed);
      backoff = config_.backoff_base;
      cv_.notify_all();  // drain() waiters
      continue;
    }
    if (result.status == CommitStatus::kRolledBack) {
      rollbacks_.fetch_add(1, std::memory_order_relaxed);
      cv_.notify_all();
      // Bounded exponential backoff before retrying the re-queued batch;
      // stop() must still interrupt the wait.
      MutexLock lock(mu_);
      if (stop_requested_) return;
      cv_.wait_for(mu_, backoff);
      backoff = std::min(backoff * 2, std::chrono::microseconds(config_.backoff_cap));
    }
  }
}

}  // namespace ps::route
