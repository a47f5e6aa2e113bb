// Telemetry suite (DESIGN.md §12 "Observability model"): the lock-free
// latency histogram's bucket math and nearest-rank quantile semantics, the
// metrics registry's round-trippable text snapshot, the trace recorder's
// ring discipline, and — through the chaos seams and the worker pool — that
// the spans recorded for a request tell its story: every stage result and
// retry names the peer worker that ran it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>

#include "calib/evaluation.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/histogram.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "nn/staged_model.hpp"
#include "serving/registry.hpp"
#include "serving/server.hpp"
#include "serving_fixtures.hpp"

namespace eugene {
namespace {

using telemetry::LatencyHistogram;
using telemetry::TraceEvent;
using telemetry::TraceEventKind;
using telemetry::TraceRecorder;

/// Count of events of `kind` in a span's event list.
std::size_t count_kind(const std::vector<TraceEvent>& events, TraceEventKind kind) {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(),
                    [kind](const TraceEvent& e) { return e.kind == kind; }));
}

// ---------------------------------------------------------------------------
// LatencyHistogram: bucket math
// ---------------------------------------------------------------------------

TEST(Histogram, SlotOfHandlesEdgesAndGarbage) {
  EXPECT_EQ(LatencyHistogram::slot_of(0.0), 0u);
  EXPECT_EQ(LatencyHistogram::slot_of(-1.0), 0u);
  EXPECT_EQ(LatencyHistogram::slot_of(std::numeric_limits<double>::quiet_NaN()), 0u);
  // Below the range minimum (2^-10 ms) is underflow.
  EXPECT_EQ(LatencyHistogram::slot_of(std::ldexp(1.0, -11)), 0u);
  EXPECT_EQ(LatencyHistogram::slot_of(1e-300), 0u);
  // The range minimum itself is the first real bucket.
  EXPECT_EQ(LatencyHistogram::slot_of(std::ldexp(1.0, LatencyHistogram::kMinExp)), 1u);
  // At and above the range maximum (2^14 ms) is overflow.
  EXPECT_EQ(LatencyHistogram::slot_of(std::ldexp(1.0, LatencyHistogram::kMaxExp)),
            LatencyHistogram::kBuckets + 1);
  EXPECT_EQ(LatencyHistogram::slot_of(std::numeric_limits<double>::infinity()),
            LatencyHistogram::kBuckets + 1);
}

TEST(Histogram, BucketEdgesAreConsistentWithSlotOf) {
  for (std::size_t s = 1; s <= LatencyHistogram::kBuckets; ++s) {
    const double lower = LatencyHistogram::bucket_lower(s);
    const double upper = LatencyHistogram::bucket_upper(s);
    EXPECT_LT(lower, upper) << "slot " << s;
    // The inclusive lower edge maps back to its own slot; the exclusive
    // upper edge is the next slot's lower edge.
    EXPECT_EQ(LatencyHistogram::slot_of(lower), s);
    if (s < LatencyHistogram::kBuckets) {
      EXPECT_EQ(upper, LatencyHistogram::bucket_lower(s + 1));
    }
    // ~19% relative resolution: bucket width is at most 25% of its lower edge.
    EXPECT_LE(upper / lower, 1.25 + 1e-12);
  }
}

TEST(Histogram, RecordAndCountIncludeUnderAndOverflow) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  h.record(1.0);
  h.record(-3.0);   // underflow
  h.record(1e9);    // overflow
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(LatencyHistogram::kBuckets + 1), 1u);
}

// ---------------------------------------------------------------------------
// LatencyHistogram: nearest-rank quantile semantics (the satellite bugfix —
// the old floor-rank form min(N-1, ⌊qN⌋) returned the max for q=0.5 over two
// samples)
// ---------------------------------------------------------------------------

TEST(Histogram, QuantileOfEmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.quantile(1.0), 0.0);
}

TEST(Histogram, QuantileSingleSampleAnswersEveryQ) {
  LatencyHistogram h;
  h.record(4.0);
  const double expected = LatencyHistogram::bucket_upper(LatencyHistogram::slot_of(4.0));
  EXPECT_EQ(expected, 5.0);  // 4 ms bucket: [4, 5)
  for (double q : {0.0, 0.01, 0.5, 0.95, 1.0})
    EXPECT_EQ(h.quantile(q), expected) << "q=" << q;
}

TEST(Histogram, QuantileTwoSamplesMedianIsTheLowerOne) {
  LatencyHistogram h;
  h.record(1.0);
  h.record(2.0);
  // Nearest-rank: rank(0.5) = ceil(0.5 * 2) = 1 → the first sample's bucket.
  // The replaced floor-rank implementation indexed min(1, ⌊0.5·2⌋) = 1 and
  // answered the *max* here.
  EXPECT_EQ(h.quantile(0.5), 1.25);  // upper edge of [1, 1.25)
  EXPECT_EQ(h.quantile(1.0), 2.5);   // q=1 is always the max: [2, 2.5)
}

TEST(Histogram, QuantileNearestRankOverKnownWindow) {
  // Ten samples in ten distinct buckets: 1, 2, 4, ..., 512 ms.
  LatencyHistogram h;
  for (int e = 0; e < 10; ++e) h.record(std::ldexp(1.0, e));
  // rank(0.5) = ceil(5) = 5 → 5th smallest = 16 ms, bucket [16, 20).
  EXPECT_EQ(h.quantile(0.5), 20.0);
  // rank(0.95) = ceil(9.5) = 10 → the max = 512 ms, bucket [512, 640).
  EXPECT_EQ(h.quantile(0.95), 640.0);
  // rank(0.05) = ceil(0.5) = 1 → the min = 1 ms, bucket [1, 1.25).
  EXPECT_EQ(h.quantile(0.05), 1.25);
  // q is clamped into [0, 1].
  EXPECT_EQ(h.quantile(-3.0), h.quantile(0.0));
  EXPECT_EQ(h.quantile(7.0), h.quantile(1.0));
}

TEST(Histogram, QuantileOverflowAnswersRangeMaximum) {
  LatencyHistogram h;
  h.record(1e9);
  EXPECT_EQ(h.quantile(1.0), std::ldexp(1.0, LatencyHistogram::kMaxExp));
}

TEST(Histogram, MergeAggregatesBucketwise) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.record(1.0);
  a.record(1.0);
  b.record(64.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.quantile(0.5), 1.25);
  EXPECT_EQ(a.quantile(1.0), 80.0);  // 64 ms bucket: [64, 80)
  EXPECT_EQ(b.count(), 1u);          // source is untouched
}

TEST(Histogram, ResetZeroesEverything) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.record(static_cast<double>(i));
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  for (std::size_t s = 0; s < LatencyHistogram::kSlots; ++s)
    EXPECT_EQ(h.bucket_count(s), 0u);
}

TEST(Histogram, ConcurrentRecordersLoseNothing) {
  LatencyHistogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i)
        h.record(0.5 + static_cast<double>((t * kPerThread + i) % 1000));
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < LatencyHistogram::kSlots; ++s)
    sum += h.bucket_count(s);
  EXPECT_EQ(sum, h.count());
}

// ---------------------------------------------------------------------------
// MetricsRegistry + text codec
// ---------------------------------------------------------------------------

TEST(Metrics, CounterAndGaugeBasics) {
  telemetry::MetricsRegistry reg;
  telemetry::Counter& c = reg.counter("t.count");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  telemetry::Gauge& g = reg.gauge("t.level");
  g.set(2.5);
  EXPECT_EQ(g.value(), 2.5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
}

TEST(Metrics, SameNameAnswersSameInstrument) {
  telemetry::MetricsRegistry reg;
  EXPECT_EQ(&reg.counter("t.a"), &reg.counter("t.a"));
  EXPECT_NE(&reg.counter("t.a"), &reg.counter("t.b"));
  EXPECT_EQ(&reg.histogram("t.h"), &reg.histogram("t.h"));
}

TEST(Metrics, RejectsNamesWithWhitespace) {
  telemetry::MetricsRegistry reg;
  EXPECT_THROW(reg.counter("bad name"), InvalidArgument);
  EXPECT_THROW(reg.gauge("bad\tname"), InvalidArgument);
  EXPECT_THROW(reg.histogram("bad\nname"), InvalidArgument);
  EXPECT_THROW(reg.counter(""), InvalidArgument);
}

TEST(Metrics, SnapshotTextRoundTrips) {
  telemetry::MetricsRegistry reg;
  reg.counter("serving.retries").inc(3);
  reg.counter("serving.expired");  // registered, zero
  reg.gauge("serving.lifecycle.state").set(1.0);
  reg.gauge("t.ratio").set(0.1);  // not exactly representable: %.17g matters
  telemetry::LatencyHistogram& h = reg.histogram("serving.stage_latency_ms.stage0");
  for (int i = 0; i < 42; ++i) h.record(1.0 + static_cast<double>(i % 7));
  reg.histogram("t.empty");  // histogram with no samples → "buckets -"

  const std::string text = reg.snapshot_text();
  EXPECT_EQ(text.rfind("# eugene-metrics v1\n", 0), 0u);

  const telemetry::MetricsSnapshot snap = telemetry::parse_metrics_text(text);
  EXPECT_EQ(snap.counters.at("serving.retries"), 3u);
  EXPECT_EQ(snap.counters.at("serving.expired"), 0u);
  EXPECT_EQ(snap.gauges.at("serving.lifecycle.state"), 1.0);
  EXPECT_EQ(snap.gauges.at("t.ratio"), 0.1);  // exact double round trip

  const auto& hist = snap.histograms.at("serving.stage_latency_ms.stage0");
  EXPECT_EQ(hist.count, 42u);
  EXPECT_EQ(hist.p50, h.quantile(0.50));
  EXPECT_EQ(hist.p99, h.quantile(0.99));
  // Exact bucket-level fidelity: rebuild and compare every slot.
  telemetry::LatencyHistogram rebuilt;
  for (const auto& [slot, n] : hist.buckets) rebuilt.add_to_bucket(slot, n);
  EXPECT_EQ(rebuilt.count(), h.count());
  for (std::size_t s = 0; s < telemetry::LatencyHistogram::kSlots; ++s)
    EXPECT_EQ(rebuilt.bucket_count(s), h.bucket_count(s)) << "slot " << s;
  EXPECT_EQ(rebuilt.quantile(0.5), h.quantile(0.5));

  EXPECT_EQ(snap.histograms.at("t.empty").count, 0u);
  EXPECT_TRUE(snap.histograms.at("t.empty").buckets.empty());
}

TEST(Metrics, ParseRejectsGarbage) {
  using telemetry::parse_metrics_text;
  // Wrong or missing header.
  EXPECT_THROW(parse_metrics_text(""), CorruptionError);
  EXPECT_THROW(parse_metrics_text("counter a 1\n"), CorruptionError);
  const std::string hdr = "# eugene-metrics v1\n";
  // Unknown line type.
  EXPECT_THROW(parse_metrics_text(hdr + "meter a 1\n"), CorruptionError);
  // Malformed numbers.
  EXPECT_THROW(parse_metrics_text(hdr + "counter a pancake\n"), CorruptionError);
  EXPECT_THROW(parse_metrics_text(hdr + "counter a 1x\n"), CorruptionError);
  EXPECT_THROW(parse_metrics_text(hdr + "gauge a 1..5\n"), CorruptionError);
  // Truncated lines.
  EXPECT_THROW(parse_metrics_text(hdr + "counter a\n"), CorruptionError);
  EXPECT_THROW(parse_metrics_text(hdr + "histogram h count 1 p50 1\n"),
               CorruptionError);
  // Histogram internal consistency.
  EXPECT_THROW(
      parse_metrics_text(hdr + "histogram h count 2 p50 1 p99 1 buckets 5:1\n"),
      CorruptionError);  // bucket counts don't sum to count
  EXPECT_THROW(
      parse_metrics_text(hdr + "histogram h count 1 p50 1 p99 1 buckets -\n"),
      CorruptionError);  // non-zero count with no buckets
  EXPECT_THROW(
      parse_metrics_text(hdr +
                         "histogram h count 2 p50 1 p99 1 buckets 5:1,5:1\n"),
      CorruptionError);  // duplicate slot
  EXPECT_THROW(
      parse_metrics_text(hdr + "histogram h count 1 p50 1 p99 1 buckets 999:1\n"),
      CorruptionError);  // slot out of range
  EXPECT_THROW(
      parse_metrics_text(hdr + "histogram h count 1 p50 1 p99 1 buckets 5:0\n"),
      CorruptionError);  // empty bucket listed
  // Signed integers: snapshot_text writes bare digits, and a sign would
  // wrap or be silently dropped.
  EXPECT_THROW(parse_metrics_text(hdr + "counter a -1\n"), CorruptionError);
  EXPECT_THROW(parse_metrics_text(hdr + "counter a +5\n"), CorruptionError);
  // Nothing follows a line's last field.
  EXPECT_THROW(parse_metrics_text(hdr + "counter a 1 trailing garbage\n"),
               CorruptionError);
  // A name appears once per instrument type.
  EXPECT_THROW(parse_metrics_text(hdr + "counter a 1\ncounter a 2\n"), CorruptionError);
  // A valid dump still parses after all that, with the negative and nan
  // gauges snapshot_text can write, and one name used by two types.
  const telemetry::MetricsSnapshot ok = parse_metrics_text(
      hdr + "counter a 1\ngauge a -1\ngauge b 2\ngauge c nan\n"
            "histogram h count 1 p50 1 p99 1 buckets 5:1\n");
  EXPECT_EQ(ok.counters.at("a"), 1u);
  EXPECT_EQ(ok.gauges.at("a"), -1.0);
  EXPECT_TRUE(std::isnan(ok.gauges.at("c")));
}

// ---------------------------------------------------------------------------
// TraceRecorder
// ---------------------------------------------------------------------------

TEST(Trace, NullHandleIsInert) {
  telemetry::SpanHandle null;
  EXPECT_FALSE(static_cast<bool>(null));
  EXPECT_EQ(null.id(), 0u);
  null.event(TraceEventKind::kStageDone, 1.0, 0, 0, 0.0);  // must not crash
}

TEST(Trace, BeginSpanRecordsAdmitWithServiceClass) {
  TraceRecorder rec(16);
  telemetry::SpanHandle span = rec.begin_span(12.5, 2);
  EXPECT_TRUE(static_cast<bool>(span));
  EXPECT_NE(span.id(), 0u);
  const auto events = rec.span(span.id());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kAdmit);
  EXPECT_EQ(events[0].t_ms, 12.5);
  EXPECT_EQ(events[0].value, 2.0);
}

TEST(Trace, SpanIdsAreUniqueAndNeverZero) {
  TraceRecorder rec(4);
  const auto a = rec.begin_span(0.0);
  const auto b = rec.begin_span(0.0);
  EXPECT_NE(a.id(), 0u);
  EXPECT_NE(b.id(), 0u);
  EXPECT_NE(a.id(), b.id());
}

TEST(Trace, RingOverwritesOldestAndCountsDrops) {
  TraceRecorder rec(4);
  telemetry::SpanHandle span = rec.begin_span(0.0);  // event #1 (admit)
  for (int i = 1; i <= 5; ++i)
    span.event(TraceEventKind::kStageDone, static_cast<double>(i));
  // 6 events into a 4-slot ring: the admit and the first dispatch fell off.
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(rec.dropped(), 2u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].kind, TraceEventKind::kStageDone);
    EXPECT_EQ(events[i].t_ms, static_cast<double>(i + 2));  // oldest first
  }
  rec.clear();
  EXPECT_TRUE(rec.events().empty());
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(Trace, SpanFiltersInterleavedEvents) {
  TraceRecorder rec(16);
  auto a = rec.begin_span(0.0);
  auto b = rec.begin_span(0.0);
  a.event(TraceEventKind::kStageDone, 1.0);
  b.event(TraceEventKind::kStageDone, 2.0);
  a.event(TraceEventKind::kExit, 3.0);
  const auto span_a = rec.span(a.id());
  ASSERT_EQ(span_a.size(), 3u);
  EXPECT_EQ(span_a[0].kind, TraceEventKind::kAdmit);
  EXPECT_EQ(span_a[1].kind, TraceEventKind::kStageDone);
  EXPECT_EQ(span_a[2].kind, TraceEventKind::kExit);
  EXPECT_EQ(rec.span(b.id()).size(), 2u);
  EXPECT_TRUE(rec.span(99999).empty());
}

// ---------------------------------------------------------------------------
// Chaos-seam trace tests: the spans must match the injected faults
// ---------------------------------------------------------------------------

TEST(TraceChaos, PoolStageSpansNameOnlyItsWorkers) {
  FailpointGuard guard;
  // A crash now and then makes some stages run twice on the same worker.
  FailpointSpec crash;
  crash.probability = 0.2;
  crash.seed = 9;
  FailpointRegistry::instance().arm("serving.stage.crash", crash);

  ServerHarness harness;
  TraceRecorder rec(8192);
  serving::ServerConfig cfg;
  cfg.workers = 4;
  cfg.max_stage_retries = 8;
  cfg.trace = &rec;
  cfg.metrics = nullptr;
  serving::InferenceServer server(harness.entry(), cfg);
  std::vector<serving::InferenceRequest> requests;
  for (const auto& input : make_inputs(32)) requests.push_back({input, 0});
  const auto responses = server.process_batch(requests);

  ASSERT_EQ(responses.size(), requests.size());
  ASSERT_EQ(rec.dropped(), 0u);
  for (const auto& r : responses) {
    ASSERT_NE(r.span_id, 0u);
    const auto span = rec.span(r.span_id);
    ASSERT_FALSE(span.empty());
    EXPECT_EQ(span.front().kind, TraceEventKind::kAdmit);
    EXPECT_EQ(span.back().kind, TraceEventKind::kExit);
    EXPECT_FALSE(r.degraded);  // nine crashes in a row: p = 0.2^9
    EXPECT_EQ(count_kind(span, TraceEventKind::kStageDone), r.stages_run);
    EXPECT_EQ(count_kind(span, TraceEventKind::kRetry), r.retries);
    for (std::size_t i = 1; i < span.size(); ++i) {
      // Each request's events are ordered even across workers: the engine
      // lock orders its stages.
      EXPECT_GE(span[i].t_ms, span[i - 1].t_ms);
      const TraceEvent& ev = span[i];
      if (ev.kind == TraceEventKind::kStageDone || ev.kind == TraceEventKind::kStageError ||
          ev.kind == TraceEventKind::kRetry) {
        EXPECT_LT(ev.worker, 4u);
      }
      // A retry runs on the worker whose stage failed.
      if (ev.kind == TraceEventKind::kRetry) {
        EXPECT_EQ(span[i - 1].kind, TraceEventKind::kStageError);
        EXPECT_EQ(span[i - 1].worker, ev.worker);
      }
    }
  }
}

TEST(TraceChaos, OneRequestCallRunsOnWorkerZero) {
  // The calling thread is worker 0, and a pool never outnumbers the
  // requests: one request never leaves the calling thread.
  FailpointGuard guard;
  ServerHarness harness;
  TraceRecorder rec(256);
  serving::ServerConfig cfg;
  cfg.workers = 4;
  cfg.early_exit_confidence = 2.0;  // full depth: every stage is on record
  cfg.trace = &rec;
  cfg.metrics = nullptr;
  serving::InferenceServer server(harness.entry(), cfg);
  const auto responses = server.process_batch({{make_inputs(1).front(), 0}});

  ASSERT_EQ(responses.size(), 1u);
  ASSERT_EQ(responses[0].stages_run, kStages);
  const auto span = rec.span(responses[0].span_id);
  ASSERT_EQ(count_kind(span, TraceEventKind::kStageDone), kStages);
  for (const auto& ev : span) {
    if (ev.kind == TraceEventKind::kStageDone) {
      EXPECT_EQ(ev.worker, 0u);
    }
  }
}

TEST(TraceChaos, UntracedRunsCarryZeroSpanIds) {
  FailpointGuard guard;
  ServerHarness harness;
  serving::ServerConfig cfg;
  cfg.metrics = nullptr;  // trace defaults to null too
  serving::InferenceServer server(harness.entry(), cfg);
  std::vector<serving::InferenceRequest> requests;
  for (const auto& input : make_inputs(3)) requests.push_back({input, 0});
  const auto responses = server.process_batch(requests);
  for (const auto& r : responses) EXPECT_EQ(r.span_id, 0u);
}

}  // namespace
}  // namespace eugene
