// Lightweight statistics helpers used by benches and device models: a
// fixed-bucket latency histogram and the fault/recovery accounting snapshot.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/units.hpp"

namespace snacc {

/// Latency histogram. The default mode is a log-bucketed (HDR-style)
/// histogram: 64 sub-buckets per power of two gives ≤ ~1.6% relative
/// quantization error at a fixed ~30 KiB footprint, so memory stays bounded
/// no matter how long the run is. Percentiles are linearly interpolated
/// within the containing bucket and clamped to the observed [min, max].
///
/// `Mode::kExact` keeps every sample and reproduces exact order statistics
/// (nearest-rank percentiles over the sorted samples) -- opt in for the
/// paper-figure benches, where run lengths are bounded and numbers feed
/// published tables. In both modes the mean is accumulated at add() time in
/// insertion order, so switching modes never changes mean_us().
class LatencyStats {
 public:
  enum class Mode { kBucketed, kExact };

  LatencyStats() = default;
  explicit LatencyStats(Mode mode) : mode_(mode) {}

  void add(TimePs t) {
    ++count_;
    sum_us_ += to_us(t);
    const std::uint64_t v = t.value();
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
    if (mode_ == Mode::kExact) {
      samples_.push_back(t);
      sorted_ = false;
    } else {
      ++buckets_[bucket_index(v)];
    }
  }

  std::uint64_t count() const { return count_; }

  TimePs percentile(double p) {
    if (count_ == 0) return TimePs{};
    // Nearest-rank index, matching the exact-mode formula so both modes
    // agree on *which* sample a percentile names; bucketed mode then
    // interpolates that rank inside its bucket.
    const double idx = p / 100.0 * static_cast<double>(count_ - 1);
    const std::uint64_t rank = static_cast<std::uint64_t>(idx + 0.5);
    if (mode_ == Mode::kExact) {
      sort_if_needed();
      return samples_[static_cast<std::size_t>(rank)];
    }
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::uint64_t n = buckets_[b];
      if (n == 0) continue;
      if (seen + n > rank) {
        const double frac =
            (static_cast<double>(rank - seen) + 0.5) / static_cast<double>(n);
        const double est = static_cast<double>(bucket_low(b)) +
                           frac * static_cast<double>(bucket_width(b));
        const std::uint64_t clamped = std::clamp(
            static_cast<std::uint64_t>(est), min_, max_);
        return TimePs{clamped};
      }
      seen += n;
    }
    return TimePs{max_};
  }

  double mean_us() const {
    return count_ ? sum_us_ / static_cast<double>(count_) : 0.0;
  }

  TimePs min() const { return count_ ? TimePs{min_} : TimePs{}; }
  TimePs max() const { return count_ ? TimePs{max_} : TimePs{}; }

 private:
  // Bucket layout: values below 64 ps map 1:1 (indices 0..63); above that,
  // each power of two splits into 64 equal sub-buckets keyed by the six
  // bits after the leading one. 64-bit values need 58 octaves -> 3776
  // fixed counters.
  static constexpr std::uint64_t kMinorBits = 6;
  static constexpr std::size_t kBuckets = 64 + 58 * 64;

  static std::size_t bucket_index(std::uint64_t v) {
    if (v < 64) return static_cast<std::size_t>(v);
    const int msb = 63 - std::countl_zero(v);
    const int shift = msb - static_cast<int>(kMinorBits);
    const std::uint64_t minor = (v >> shift) & 63;
    const std::uint64_t major = static_cast<std::uint64_t>(msb) - kMinorBits + 1;
    return static_cast<std::size_t>(major * 64 + minor);
  }
  static std::uint64_t bucket_low(std::size_t b) {
    if (b < 64) return b;
    const std::uint64_t major = b / 64;
    const std::uint64_t minor = b % 64;
    const int shift = static_cast<int>(major - 1);
    return (64 + minor) << shift;
  }
  static std::uint64_t bucket_width(std::size_t b) {
    return b < 64 ? 1 : std::uint64_t{1} << (b / 64 - 1);
  }

  void sort_if_needed() {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
  }

  Mode mode_ = Mode::kBucketed;
  std::uint64_t count_ = 0;
  double sum_us_ = 0.0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(kBuckets);
  std::vector<TimePs> samples_;  // exact mode only
  bool sorted_ = true;
};

/// Cross-layer fault/recovery accounting snapshot (docs/FAULTS.md). Each
/// field mirrors one component counter; host::SnaccDevice::fault_stats() and
/// the fault benches assemble and print it. `injected()` vs. the recovery
/// counters is the books-balance check: every injected fault must end up
/// either recovered or quarantined (never silently lost).
struct FaultStats {
  // Injection sites (how many faults each injector fired).
  std::uint64_t nand_read_faults = 0;
  std::uint64_t nand_program_faults = 0;
  std::uint64_t ssd_internal_faults = 0;
  std::uint64_t ssd_crash_faults = 0;
  std::uint64_t iommu_injected_faults = 0;
  std::uint64_t fabric_injected_timeouts = 0;
  // Device-side effects.
  std::uint64_t ssd_error_cqes = 0;
  // Durability tier (docs/DURABILITY.md): power loss and its fallout.
  std::uint64_t ssd_power_cycles = 0;
  std::uint64_t ssd_lost_cache_blocks = 0;
  std::uint64_t ssd_suppressed_cqes = 0;
  // Streamer recovery path.
  std::uint64_t streamer_errors = 0;
  std::uint64_t retries = 0;
  std::uint64_t recovered = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t watchdog_timeouts = 0;
  std::uint64_t stale_completions = 0;

  std::uint64_t injected() const {
    return nand_read_faults + nand_program_faults + ssd_internal_faults +
           ssd_crash_faults + iommu_injected_faults + fabric_injected_timeouts;
  }
};

}  // namespace snacc
