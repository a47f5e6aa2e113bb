// Lock-free fixed-bucket latency histogram (DESIGN.md §12 "Observability
// model").
//
// The metrics registry's per-stage latency quantiles need "what is the p95
// of recent latencies?" answered next to a hot path, so a histogram is a
// fixed array of atomic counters over log-spaced buckets instead of a sample
// window:
//
//   * record() is O(1): extract the value's binary exponent and the top two
//     mantissa bits straight from the double's bit pattern (no log() call),
//     then two relaxed fetch_adds — ≤ ~2× the cost of a bare atomic add
//     (BM_HistogramRecord vs BM_AtomicAddBaseline in bench_micro.cpp).
//   * Buckets are log-spaced: 4 sub-buckets per power of two (~19% relative
//     resolution) from 2^-10 ms (~1 µs) to 2^14 ms (~16.4 s), plus an
//     underflow and an overflow bucket. 98 counters, 784 bytes.
//   * Counts are exact; only the reported *value* is quantized to its
//     bucket. quantile() returns the upper edge of the bucket holding the
//     nearest-rank sample — a ≤19% conservative over-estimate.
//   * Histograms merge bucket-wise (merge()), so per-worker or per-run
//     histograms can be aggregated without losing quantile fidelity.
//
// Quantile semantics — nearest-rank (ceil), pinned by Histogram.* tests:
//
//   rank(q) = clamp(ceil(q · N), 1, N)   (1-based)
//
// so quantile(0.5) over two samples is the *first* (the lower median),
// quantile(1.0) is always the maximum, and a single sample answers every q
// with itself. The floor-rank form this replaces (min(N-1, ⌊q·N⌋)) biased
// small windows low-to-high inconsistently: q=0.5 over 2 samples returned
// the max, and q=0.95 over 10 samples only reached rank 9 by clamping.
//
// Thread-safety: record() and merge() may race freely with each other and
// with quantile()/count() — readers see some interleaving of concurrent
// updates, exactly like any counter snapshot.
#pragma once

#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace eugene::telemetry {

/// Fixed-footprint, wait-free latency histogram over milliseconds.
class LatencyHistogram {
 public:
  /// Sub-buckets per power of two: 2 mantissa bits → 4 → ~19% resolution.
  static constexpr int kSubBits = 2;
  static constexpr int kSubBuckets = 1 << kSubBits;
  /// Covered exponent range, in ms: [2^kMinExp, 2^kMaxExp).
  static constexpr int kMinExp = -10;  ///< 2^-10 ms ≈ 0.98 µs
  static constexpr int kMaxExp = 14;   ///< 2^14 ms ≈ 16.4 s
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets;
  /// Slot 0 is underflow (≤ 0, NaN, or below 2^kMinExp); slot kBuckets+1 is
  /// overflow; slots 1..kBuckets are the log-spaced range.
  static constexpr std::size_t kSlots = kBuckets + 2;

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// O(1), wait-free: bucket index from the double's bit pattern plus two
  /// relaxed fetch_adds.
  void record(double ms) noexcept {
    buckets_[slot_of(ms)].fetch_add(1, std::memory_order_relaxed);
    total_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Samples recorded (including under/overflow).
  std::uint64_t count() const noexcept {
    return total_.load(std::memory_order_relaxed);
  }

  /// Nearest-rank quantile (see the header comment for the exact semantics).
  /// Returns the upper edge of the bucket containing the rank-⌈qN⌉ sample —
  /// within one bucket width (~19%) above the exact order statistic. An
  /// empty histogram returns 0; q is clamped into [0, 1]. Samples in the
  /// overflow bucket answer with the range maximum (2^kMaxExp).
  double quantile(double q) const noexcept {
    std::uint64_t counts[kSlots];
    std::uint64_t n = 0;
    for (std::size_t s = 0; s < kSlots; ++s) {
      counts[s] = buckets_[s].load(std::memory_order_relaxed);
      n += counts[s];
    }
    if (n == 0) return 0.0;
    q = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
    auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(n)));
    if (rank < 1) rank = 1;
    if (rank > n) rank = n;
    std::uint64_t cum = 0;
    for (std::size_t s = 0; s < kSlots; ++s) {
      cum += counts[s];
      if (cum >= rank) return bucket_upper(s);
    }
    return bucket_upper(kSlots - 1);  // unreachable: cum == n >= rank
  }

  /// Bucket-wise aggregation of another histogram's counts.
  void merge(const LatencyHistogram& other) noexcept {
    std::uint64_t added = 0;
    for (std::size_t s = 0; s < kSlots; ++s) {
      const std::uint64_t c = other.buckets_[s].load(std::memory_order_relaxed);
      if (c != 0) buckets_[s].fetch_add(c, std::memory_order_relaxed);
      added += c;
    }
    if (added != 0) total_.fetch_add(added, std::memory_order_relaxed);
  }

  /// Zeroes every bucket (not linearizable against concurrent record()).
  void reset() noexcept {
    for (std::size_t s = 0; s < kSlots; ++s)
      buckets_[s].store(0, std::memory_order_relaxed);
    total_.store(0, std::memory_order_relaxed);
  }

  /// Raw count of one slot (text codec + tests).
  std::uint64_t bucket_count(std::size_t slot) const noexcept {
    return buckets_[slot].load(std::memory_order_relaxed);
  }

  /// Adds `n` samples directly to `slot` — the decode half of the text
  /// round trip (parse_metrics_text rebuilds histograms bucket-by-bucket).
  void add_to_bucket(std::size_t slot, std::uint64_t n) noexcept {
    if (slot >= kSlots) slot = kSlots - 1;
    buckets_[slot].fetch_add(n, std::memory_order_relaxed);
    total_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Slot index for a value: 0 for underflow (≤ 0, NaN, < 2^kMinExp),
  /// kBuckets+1 for overflow (≥ 2^kMaxExp, +inf), else 1-based log bucket.
  static std::size_t slot_of(double ms) noexcept {
    if (!(ms > 0.0)) return 0;  // NaN compares false and lands here too
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(ms);
    const int exp = static_cast<int>((bits >> 52) & 0x7ff) - 1023;
    if (exp < kMinExp) return 0;  // subnormals have raw exponent 0 → here
    if (exp >= kMaxExp) return kBuckets + 1;
    const auto sub = static_cast<std::size_t>(
        (bits >> (52 - kSubBits)) & (kSubBuckets - 1));
    return 1 + static_cast<std::size_t>(exp - kMinExp) * kSubBuckets + sub;
  }

  /// Inclusive lower edge of a slot. Underflow answers 0; overflow answers
  /// the range maximum 2^kMaxExp.
  static double bucket_lower(std::size_t slot) noexcept {
    if (slot == 0) return 0.0;
    if (slot >= kBuckets + 1) return std::ldexp(1.0, kMaxExp);
    const std::size_t i = slot - 1;
    const int octave = kMinExp + static_cast<int>(i / kSubBuckets);
    const auto sub = static_cast<double>(i % kSubBuckets);
    return std::ldexp(1.0 + sub / kSubBuckets, octave);
  }

  /// Exclusive upper edge of a slot. Underflow answers the range minimum
  /// 2^kMinExp; overflow answers the range maximum (it has no upper edge).
  static double bucket_upper(std::size_t slot) noexcept {
    if (slot == 0) return std::ldexp(1.0, kMinExp);
    if (slot >= kBuckets + 1) return std::ldexp(1.0, kMaxExp);
    return bucket_lower(slot + 1);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kSlots]{};
  std::atomic<std::uint64_t> total_{0};
};

}  // namespace eugene::telemetry
