// Fixed log-bucket histogram for nanosecond latencies.
//
// Values below 64 get one bucket each; above that every power of two is
// split into 64 equal sub-buckets, so a bucket is at most 1/64 (1.6%) of
// its value wide. 2048 buckets reach ~137 s. Counts are relaxed atomics:
// any thread may record, and a reader that joined the writers sees final
// values. No allocation after construction, because a run records up to
// tens of millions of samples.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>

namespace psbench {

class LogHistogram {
 public:
  static constexpr std::uint32_t kSubBits = 6;
  static constexpr std::uint32_t kSub = 1u << kSubBits;
  static constexpr std::uint32_t kBuckets = 2048;

  static std::uint32_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::uint32_t>(v);
    const std::uint32_t shift = 63u - static_cast<std::uint32_t>(std::countl_zero(v)) - kSubBits;
    const std::uint64_t idx = std::uint64_t{shift} * kSub + (v >> shift);
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(idx, kBuckets - 1));
  }
  static double lower(std::uint32_t idx) {
    const std::uint32_t shift = std::max(idx / kSub, 1u) - 1;
    return static_cast<double>(std::uint64_t{idx - shift * kSub} << shift);
  }
  static double width(std::uint32_t idx) {
    return static_cast<double>(std::uint64_t{1} << (std::max(idx / kSub, 1u) - 1));
  }

  void record(std::uint64_t v) { counts_[index(v)].fetch_add(1, std::memory_order_relaxed); }

  std::uint64_t count(std::uint32_t idx) const {
    return counts_[idx].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint32_t>, kBuckets> counts_{};
};

/// Plain (single-threaded) sum of LogHistogram buckets, for quantiles over
/// several windows or one thread's samples.
class Quantiles {
 public:
  void add(const LogHistogram& h) {
    for (std::uint32_t i = 0; i < LogHistogram::kBuckets; ++i) {
      const std::uint64_t c = h.count(i);
      counts_[i] += c;
      total_ += c;
    }
  }
  void record(std::uint64_t v) {
    ++counts_[LogHistogram::index(v)];
    ++total_;
  }
  std::uint64_t total() const { return total_; }

  /// Value at quantile q in [0, 1], interpolated linearly inside the
  /// bucket that holds the target rank. 0 when empty.
  double quantile(double q) const {
    if (total_ == 0) return 0.0;
    const double rank = q * static_cast<double>(total_ - 1);
    std::uint64_t before = 0;
    for (std::uint32_t i = 0; i < LogHistogram::kBuckets; ++i) {
      const std::uint64_t c = counts_[i];
      if (c == 0) continue;
      if (rank < static_cast<double>(before + c)) {
        const double frac = (rank - static_cast<double>(before) + 0.5) / static_cast<double>(c);
        return LogHistogram::lower(i) + LogHistogram::width(i) * frac;
      }
      before += c;
    }
    return LogHistogram::lower(LogHistogram::kBuckets - 1);
  }

 private:
  std::array<std::uint64_t, LogHistogram::kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

}  // namespace psbench
