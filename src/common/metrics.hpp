// Metrics registry (DESIGN.md §12 "Observability model"): named counters,
// gauges, and latency histograms with a text snapshot.
//
// Subsystems register instruments by name (get-or-create; returned
// references stay valid for the registry's lifetime — storage is a deque)
// and update them with relaxed atomics, so the hot path never touches the
// registry mutex:
//
//   auto& retries = telemetry::MetricsRegistry::global().counter(
//       "serving.retries");
//   retries.inc();
//
// Registration and snapshotting serialize on one ranked mutex
// (LockRank::kMetrics); nothing nests inside it, and it may be acquired
// while holding any subsystem lock below it.
//
// snapshot_text() emits a line-oriented, machine-parseable dump:
//
//   # eugene-metrics v1
//   counter serving.retries 3
//   gauge serving.brownout.level 1
//   histogram serving.stage_latency_ms.stage0 count 42 p50 1.25 p99 4
//       buckets 17:5,30:37                                [same line]
//
// (one line per instrument; `buckets` lists slot:count pairs for non-empty
// LatencyHistogram slots). parse_metrics_text() is the inverse: it rebuilds
// exact counter/gauge values and exact histogram bucket counts, so the
// format round-trips — Metrics.SnapshotTextRoundTrips pins this, and
// EugeneService::metrics_text() / the examples' --metrics flag surface it.
//
// Naming convention: `<subsystem>.<object>[.<detail>]`, lower-case,
// dot-separated, no spaces (names are whitespace-delimited in the text
// format; counter() et al. reject names with whitespace).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>

#include "common/histogram.hpp"
#include "common/thread_annotations.hpp"

namespace eugene::telemetry {

/// Monotone event count. Relaxed atomic increments; safe from any thread.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (levels, sizes, ratios).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Named instrument table. Instruments are created on first use and live as
/// long as the registry; the same name always answers the same instrument.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry that EugeneService::metrics_text() snapshots.
  /// Never destroyed (leaked intentionally): worker threads and atexit-
  /// ordered statics may bump counters during shutdown.
  static MetricsRegistry& global();

  /// Get-or-create by name. Throws InvalidArgument on names containing
  /// whitespace (they would corrupt the text format).
  Counter& counter(std::string_view name) EUGENE_EXCLUDES(mutex_);
  Gauge& gauge(std::string_view name) EUGENE_EXCLUDES(mutex_);
  LatencyHistogram& histogram(std::string_view name) EUGENE_EXCLUDES(mutex_);

  /// The text snapshot documented in the header comment: deterministic
  /// (instruments sorted by name), machine-parseable, round-trippable via
  /// parse_metrics_text().
  std::string snapshot_text() const EUGENE_EXCLUDES(mutex_);

  /// Zeroes every registered instrument (tests; instruments stay
  /// registered so cached references remain valid).
  void reset() EUGENE_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_{LockRank::kMetrics, "MetricsRegistry::mutex_"};
  // Deques: growth never moves existing instruments, so references handed
  // out by counter()/gauge()/histogram() stay valid forever.
  std::deque<std::pair<std::string, Counter>> counters_
      EUGENE_GUARDED_BY(mutex_);
  std::deque<std::pair<std::string, Gauge>> gauges_ EUGENE_GUARDED_BY(mutex_);
  std::deque<std::pair<std::string, LatencyHistogram>> histograms_
      EUGENE_GUARDED_BY(mutex_);
};

/// Parsed form of snapshot_text() — the round-trip contract.
struct MetricsSnapshot {
  struct Histogram {
    std::uint64_t count = 0;
    double p50 = 0.0;
    double p99 = 0.0;
    /// Non-empty LatencyHistogram slots: slot index → exact count.
    std::map<std::size_t, std::uint64_t> buckets;
  };

  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram> histograms;
};

/// Inverse of MetricsRegistry::snapshot_text(). Throws CorruptionError on
/// anything that is not a well-formed v1 metrics dump (wrong header,
/// unknown line type, malformed numbers or bucket lists).
MetricsSnapshot parse_metrics_text(const std::string& text);

}  // namespace eugene::telemetry
