// The serving benchmark's own tests: percentiles, the arrival schedule, the
// ladder rule and the correctness gate, on synthetic inputs. The
// servebench.gate_fails_run test (gate_check.cmake) covers the whole binary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "harness.hpp"

namespace sb = servebench;
using eugene::serving::InferenceResponse;

namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

}  // namespace

TEST(Percentile, NearestRank) {
  const std::vector<double> v = one_to(100);
  EXPECT_EQ(sb::nearest_rank(v, 50.0), 50.0);
  EXPECT_EQ(sb::nearest_rank(v, 99.0), 99.0);
  EXPECT_EQ(sb::nearest_rank(v, 100.0), 100.0);
  EXPECT_EQ(sb::nearest_rank(v, 0.5), 1.0);
  const std::vector<double> w = one_to(1000);
  EXPECT_EQ(sb::nearest_rank(w, 99.0), 990.0);  // 0.99 · 1000 is exact
  EXPECT_EQ(sb::nearest_rank(std::vector<double>{7.0}, 99.0), 7.0);
}

TEST(Percentile, ReportedOnlyWithTenSamplesBeyond) {
  EXPECT_EQ(sb::samples_beyond(1000, 99.0), 10u);
  EXPECT_TRUE(sb::percentile_supported(1000, 99.0));
  EXPECT_FALSE(sb::percentile_supported(999, 99.0));
  EXPECT_TRUE(sb::percentile_supported(20, 50.0));
  EXPECT_FALSE(sb::percentile_supported(19, 50.0));
  EXPECT_FALSE(sb::percentile_supported(0, 50.0));
}

TEST(Schedule, SameSeedSameSchedule) {
  const std::vector<double> rates = {125.0, 125.0};
  const auto a = sb::poisson_schedule(rates, 2000.0, 512, 42);
  const auto b = sb::poisson_schedule(rates, 2000.0, 512, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_ms, b[i].due_ms);
    EXPECT_EQ(a[i].service_class, b[i].service_class);
    EXPECT_EQ(a[i].input, b[i].input);
  }
  const auto c = sb::poisson_schedule(rates, 2000.0, 512, 43);
  EXPECT_FALSE(c.size() == a.size() && c.front().due_ms == a.front().due_ms);
}

TEST(Schedule, RatesClassesAndOrder) {
  const std::vector<double> rates = {1000.0, 1000.0};
  const auto s = sb::poisson_schedule(rates, 10000.0, 64, 7);
  // 20 000 expected arrivals; a Poisson count stays within a few percent.
  EXPECT_NEAR(static_cast<double>(s.size()), 20000.0, 600.0);
  std::size_t cls0 = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(s[i - 1].due_ms, s[i].due_ms);
    }
    EXPECT_LT(s[i].due_ms, 10000.0);
    EXPECT_LT(s[i].input, 64u);
    cls0 += s[i].service_class == 0 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(cls0) / static_cast<double>(s.size()), 0.5, 0.02);
}

namespace {

// A rung with n requests per class at a flat latency and queue wait.
sb::RungObservation flat_rung(double latency_ms, double queue_ms, std::size_t n = 1000) {
  sb::RungObservation r;
  r.latency_ms.assign(2, std::vector<double>(n, latency_ms));
  r.queue_wait_ms.assign(2 * n, queue_ms);
  return r;
}

}  // namespace

TEST(Ladder, PassesWithinDeadlinesAndFlatBacklog) {
  const std::vector<double> deadlines = {40.0, 500.0};
  EXPECT_TRUE(sb::rung_passes(flat_rung(1.0, 0.1), deadlines));

  // Interactive p99 over its 40 ms deadline: 11 of 1000 samples at 45 ms.
  sb::RungObservation late = flat_rung(1.0, 0.1);
  std::fill(late.latency_ms[0].end() - 11, late.latency_ms[0].end(), 45.0);
  EXPECT_FALSE(sb::rung_passes(late, deadlines));
  // Ten late samples leave the nearest-rank p99 (rank 990) on time.
  sb::RungObservation tail = flat_rung(1.0, 0.1);
  std::fill(tail.latency_ms[0].end() - 10, tail.latency_ms[0].end(), 45.0);
  EXPECT_TRUE(sb::rung_passes(tail, deadlines));
  // The camera class has its own, looser deadline.
  sb::RungObservation camera = flat_rung(1.0, 0.1);
  std::fill(camera.latency_ms[1].begin(), camera.latency_ms[1].end(), 45.0);
  EXPECT_TRUE(sb::rung_passes(camera, deadlines));

  sb::RungObservation aborted = flat_rung(1.0, 0.1);
  aborted.aborted = true;
  EXPECT_FALSE(sb::rung_passes(aborted, deadlines));
}

TEST(Ladder, GrowingBacklogFails) {
  const std::vector<double> deadlines = {40.0, 500.0};
  // Queue wait climbing linearly to 20 ms: within every deadline, but the
  // last quarter waits far longer than the first.
  sb::RungObservation growing = flat_rung(1.0, 0.0);
  for (std::size_t i = 0; i < growing.queue_wait_ms.size(); ++i)
    growing.queue_wait_ms[i] =
        20.0 * static_cast<double>(i) / static_cast<double>(growing.queue_wait_ms.size());
  EXPECT_TRUE(sb::backlog_grows(growing.queue_wait_ms));
  EXPECT_FALSE(sb::rung_passes(growing, deadlines));
  // Jitter that does not trend is not a growing backlog.
  sb::RungObservation jitter = flat_rung(1.0, 0.0);
  for (std::size_t i = 0; i < jitter.queue_wait_ms.size(); ++i)
    jitter.queue_wait_ms[i] = i % 2 == 0 ? 0.0 : 8.0;
  EXPECT_FALSE(sb::backlog_grows(jitter.queue_wait_ms));
  EXPECT_TRUE(sb::rung_passes(jitter, deadlines));
}

TEST(Ladder, HighestPassingRungStopsAtFirstFailure) {
  const std::vector<double> deadlines = {40.0, 500.0};
  const sb::RungObservation ok = flat_rung(1.0, 0.1);
  const sb::RungObservation bad = flat_rung(60.0, 0.1);
  EXPECT_EQ(sb::highest_passing_rung(std::vector{ok, ok, bad, ok}, deadlines), 1);
  EXPECT_EQ(sb::highest_passing_rung(std::vector{ok, ok, ok}, deadlines), 2);
  EXPECT_EQ(sb::highest_passing_rung(std::vector{bad, ok}, deadlines), -1);
}

namespace {

// Two inputs, three stages. Input 0 exits at stage 1 (0.95 >= 0.9); input 1
// never clears the bar.
sb::Reference two_input_reference() {
  return {{{3, 0.95f}, {3, 0.97f}, {3, 0.99f}}, {{1, 0.40f}, {2, 0.60f}, {2, 0.80f}}};
}

InferenceResponse answer(std::size_t label, float confidence, std::size_t stages) {
  InferenceResponse r;
  r.label = label;
  r.confidence = confidence;
  r.stages_run = stages;
  r.span_id = 17;
  return r;
}

std::vector<sb::Verdict> gate(const std::vector<InferenceResponse>* responses) {
  const sb::Reference ref = two_input_reference();
  const std::vector<std::size_t> inputs = {0, 1};
  std::vector<sb::Verdict> out;
  sb::check_call(ref, inputs, responses, 0.9, out);
  return out;
}

}  // namespace

TEST(Gate, AcceptsAnswersEqualToTheReference) {
  const std::vector<InferenceResponse> good = {answer(3, 0.95f, 1), answer(2, 0.80f, 3)};
  EXPECT_EQ(gate(&good), (std::vector{sb::Verdict::kOk, sb::Verdict::kOk}));
  // A deadline may cut a request short of a confident exit.
  std::vector<InferenceResponse> expired = {answer(3, 0.95f, 1), answer(1, 0.40f, 1)};
  expired[1].expired = true;
  EXPECT_EQ(gate(&expired), (std::vector{sb::Verdict::kOk, sb::Verdict::kOk}));
}

TEST(Gate, CatchesAFlippedLabel) {
  const std::vector<InferenceResponse> flipped = {answer(4, 0.95f, 1), answer(2, 0.80f, 3)};
  EXPECT_EQ(gate(&flipped), (std::vector{sb::Verdict::kMismatch, sb::Verdict::kOk}));
}

TEST(Gate, CatchesAConfidenceOffByOneBit) {
  const float off = std::nextafter(0.80f, 1.0f);
  const std::vector<InferenceResponse> r = {answer(3, 0.95f, 1), answer(2, off, 3)};
  EXPECT_EQ(gate(&r)[1], sb::Verdict::kMismatch);
}

TEST(Gate, CatchesAMissingResponse) {
  const std::vector<InferenceResponse> one = {answer(3, 0.95f, 1)};
  EXPECT_EQ(gate(&one), (std::vector{sb::Verdict::kMissing, sb::Verdict::kMissing}));
  EXPECT_EQ(gate(nullptr), (std::vector{sb::Verdict::kThrew, sb::Verdict::kThrew}));
}

TEST(Gate, CatchesDrainingUntracedAndMalformedAnswers) {
  std::vector<InferenceResponse> r = {answer(3, 0.95f, 1), answer(2, 0.80f, 3)};
  r[0].draining = true;
  r[1].span_id = 0;
  EXPECT_EQ(gate(&r), (std::vector{sb::Verdict::kDraining, sb::Verdict::kNoSpan}));
  const std::vector<InferenceResponse> deep = {answer(3, 0.95f, 4), answer(0, 0.0f, 0)};
  EXPECT_EQ(gate(&deep), (std::vector{sb::Verdict::kBadStages, sb::Verdict::kBadStages}));
}

TEST(Gate, CatchesABrokenEarlyExit) {
  // Input 0 cleared the bar at stage 1 but ran on; input 1 stopped without it.
  const std::vector<InferenceResponse> r = {answer(3, 0.97f, 2), answer(2, 0.60f, 2)};
  EXPECT_EQ(gate(&r), (std::vector{sb::Verdict::kEarlyExitBroken,
                                   sb::Verdict::kEarlyExitBroken}));
}

TEST(Gate, TallyCountsEveryError) {
  sb::GateTally tally;
  const std::vector<sb::Verdict> v = {sb::Verdict::kOk, sb::Verdict::kMismatch,
                                      sb::Verdict::kMissing};
  tally.add(v, "test");
  EXPECT_EQ(tally.sent, 3u);
  EXPECT_EQ(tally.errors, 2u);
  EXPECT_FALSE(tally.clean());
  EXPECT_EQ(tally.first_errors.size(), 2u);
}

TEST(Spans, SelfTimeSubtractsMergedChildren) {
  std::vector<sb::Span> spans(4);
  spans[0] = {"root", 0.0, 100.0, 1, 0, 1, 0, 0};
  spans[1] = {"child", 10.0, 40.0, 2, 1, 1, 0, 0};
  spans[2] = {"child", 30.0, 50.0, 3, 1, 1, 0, 0};  // overlaps the first child
  spans[3] = {"grandchild", 12.0, 20.0, 4, 2, 1, 0, 0};
  const auto rows = sb::self_times(spans);
  auto find = [&](const char* name) {
    return *std::find_if(rows.begin(), rows.end(),
                         [&](const sb::SelfTimeRow& r) { return r.name == name; });
  };
  EXPECT_NEAR(find("root").self_ms, 0.060, 1e-12);  // 100 − (10..50) µs
  EXPECT_EQ(find("child").count, 2u);
  EXPECT_NEAR(find("child").total_ms, 0.050, 1e-12);
  EXPECT_NEAR(find("child").self_ms, 0.042, 1e-12);
  EXPECT_NEAR(find("grandchild").self_ms, 0.008, 1e-12);
}

TEST(Spans, RecorderNestsPerThreadAndExportsChromeJson) {
  sb::SpanRecorder recorder;
  recorder.name_thread("main");
  {
    sb::ScopedSpan outer(&recorder, "core.infer_batch", 5, 2);
    sb::ScopedSpan inner(&recorder, "nn.run_stage");
  }
  const std::uint32_t track = recorder.track("arrivals");
  recorder.add("serving.queue_wait", 1.0, 2.0, 5, 1, track);
  const auto spans = recorder.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[0].request, 5u);
  EXPECT_EQ(spans[2].thread, track);
  EXPECT_EQ(spans[2].parent, 0u);
  const std::string json =
      sb::chrome_trace_json(spans, recorder.thread_names(), "{\"k\":1}");
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"core.infer_batch\",\"cat\":\"core\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\",\"args\":{\"name\":\"arrivals\"}"), std::string::npos);
  EXPECT_NE(json.find("\"otherData\":{\"k\":1}"), std::string::npos);
  EXPECT_EQ(sb::json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
}
