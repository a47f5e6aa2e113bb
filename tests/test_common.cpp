// Tests for the common substrate: errors, rng, stats, clocks, durable-state
// io, and lock ranks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "common/lock_rank.hpp"
#include "common/thread_annotations.hpp"
#include "common/check.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/io.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace eugene {
namespace {

TEST(Error, CheckMacrosThrowTypedExceptions) {
  EXPECT_THROW(EUGENE_REQUIRE(false, "client bug"), InvalidArgument);
  EXPECT_THROW(EUGENE_CHECK(false) << "internal bug", InternalError);
  EXPECT_NO_THROW(EUGENE_REQUIRE(true, ""));
  EXPECT_NO_THROW(EUGENE_CHECK(true) << "never rendered");
}

TEST(Check, StreamedMessageAndLocationInWhat) {
  try {
    EUGENE_CHECK(1 + 1 == 3) << "math is broken, off by " << 1;
    FAIL() << "should have thrown";
  } catch (const InternalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 + 1 == 3"), std::string::npos);
    EXPECT_NE(what.find("math is broken, off by 1"), std::string::npos);
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
  }
}

TEST(Check, ComparisonMacrosReportBothValues) {
  try {
    EUGENE_CHECK_LT(5, 3) << "expected ordering";
    FAIL() << "should have thrown";
  } catch (const InternalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("5 < 3"), std::string::npos);
    EXPECT_NE(what.find("(5 vs. 3)"), std::string::npos);
    EXPECT_NE(what.find("expected ordering"), std::string::npos);
  }
  EXPECT_THROW(EUGENE_CHECK_EQ(1, 2), InternalError);
  EXPECT_THROW(EUGENE_CHECK_NE(7, 7), InternalError);
  EXPECT_THROW(EUGENE_CHECK_LE(2, 1), InternalError);
  EXPECT_THROW(EUGENE_CHECK_GT(1, 1), InternalError);
  EXPECT_THROW(EUGENE_CHECK_GE(0, 1), InternalError);
}

TEST(Check, PassingChecksEvaluateOperandsOnce) {
  int evaluations = 0;
  auto next = [&evaluations] { return ++evaluations; };
  EUGENE_CHECK_GE(next(), 1);
  EXPECT_EQ(evaluations, 1);
  EUGENE_CHECK(next() == 2) << "streamed only on failure";
  EXPECT_EQ(evaluations, 2);
}

TEST(Check, StreamedMessageIsLazy) {
  // The message expression after a passing check must never run.
  bool rendered = false;
  auto render = [&rendered] {
    rendered = true;
    return "boom";
  };
  EUGENE_CHECK(true) << render();
  EXPECT_FALSE(rendered);
}

TEST(Check, MacroIsASingleStatement) {
  // The if/else expansion must neither split under an unbraced if nor steal
  // the else branch (dangling-else).
  if (true)
    EUGENE_CHECK(true) << "fine";
  else
    FAIL() << "dangling else captured";

  bool reached_else = false;
  if (false)
    EUGENE_CHECK(true);
  else
    reached_else = true;
  EXPECT_TRUE(reached_else);
}

TEST(Check, DcheckSemanticsMatchBuildType) {
  int evaluations = 0;
#ifdef NDEBUG
  // Release: operands are never evaluated and failures never throw.
  EUGENE_DCHECK([&evaluations] { ++evaluations; return false; }());
  EUGENE_DCHECK_EQ([&evaluations] { ++evaluations; return 1; }(), 2);
  EXPECT_EQ(evaluations, 0);
#else
  // Debug: EUGENE_DCHECK is exactly EUGENE_CHECK.
  EUGENE_DCHECK([&evaluations] { ++evaluations; return true; }());
  EXPECT_EQ(evaluations, 1);
  EXPECT_THROW(EUGENE_DCHECK(false) << "debug failure", InternalError);
  EXPECT_THROW(EUGENE_DCHECK_EQ(1, 2), InternalError);
#endif
}

TEST(Error, MessageCarriesLocationAndExpression) {
  try {
    EUGENE_REQUIRE(1 == 2, "numbers disagree");
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("numbers disagree"), std::string::npos);
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(3);
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(4);
  std::vector<double> weights = {1.0, 3.0};
  std::size_t ones = 0;
  for (int i = 0; i < 4000; ++i) ones += rng.categorical(weights) == 1 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(ones) / 4000.0, 0.75, 0.05);
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng parent(9);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  // Different children must not mirror each other.
  int same = 0;
  for (int i = 0; i < 20; ++i)
    same += child1.uniform_int(0, 1000) == child2.uniform_int(0, 1000) ? 1 : 0;
  EXPECT_LT(same, 5);
}

TEST(Rng, InvalidArgumentsThrow) {
  Rng rng(5);
  EXPECT_THROW(rng.uniform(3.0, 2.0), InvalidArgument);
  EXPECT_THROW(rng.bernoulli(1.5), InvalidArgument);
  EXPECT_THROW(rng.exponential(0.0), InvalidArgument);
}

TEST(Stats, MeanVarianceStddev) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
}

TEST(Stats, VarianceWelfordMatchesTwoPass) {
  // The two-pass reference form: mean first, then squared deviations.
  const auto two_pass = [](const std::vector<double>& xs) {
    const double m = mean(xs);
    double acc = 0.0;
    for (double x : xs) acc += (x - m) * (x - m);
    return acc / static_cast<double>(xs.size());
  };
  // Ordinary data: the single-pass Welford form agrees within eps.
  Rng rng(17);
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(rng.uniform(-3.0, 3.0));
  EXPECT_NEAR(variance(xs), two_pass(xs), 1e-12);

  // Large common offset: the data is {1e9, 1e9+1, 1e9+2, 1e9+3}, whose true
  // variance is exactly 1.25. Welford keeps full precision here; the old
  // two-pass form survives this magnitude too, but accumulate-of-squares
  // style rewrites do not — pin the exact answer, not just agreement.
  const std::vector<double> offset = {1e9, 1e9 + 1.0, 1e9 + 2.0, 1e9 + 3.0};
  EXPECT_DOUBLE_EQ(variance(offset), 1.25);
  EXPECT_NEAR(variance(offset), two_pass(offset), 1e-9);

  // Degenerate ranges.
  const std::vector<double> one = {42.0};
  EXPECT_DOUBLE_EQ(variance(one), 0.0);
  const std::vector<double> constant(64, 7.5e8);
  EXPECT_DOUBLE_EQ(variance(constant), 0.0);
}

TEST(Stats, SoftmaxIsStableAndNormalized) {
  const std::vector<float> logits = {1000.0f, 1000.0f, 999.0f};
  const auto p = softmax(logits);
  double sum = 0.0;
  for (float v : p) {
    EXPECT_TRUE(std::isfinite(v));
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
  EXPECT_GT(p[0], p[2]);
}

TEST(Stats, EntropyBounds) {
  const std::vector<float> uniform = {0.25f, 0.25f, 0.25f, 0.25f};
  const std::vector<float> point = {1.0f, 0.0f, 0.0f, 0.0f};
  EXPECT_NEAR(entropy(uniform), std::log(4.0), 1e-6);
  EXPECT_NEAR(entropy(point), 0.0, 1e-9);
}

TEST(Stats, RSquaredPerfectAndMeanPredictor) {
  const std::vector<double> truth = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(r_squared(truth, truth), 1.0);
  const std::vector<double> mean_pred(4, 2.5);
  EXPECT_NEAR(r_squared(truth, mean_pred), 0.0, 1e-12);
}

TEST(Stats, OnlineMatchesBatch) {
  Rng rng(6);
  std::vector<double> xs;
  OnlineStats online;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.normal(1.0, 3.0);
    xs.push_back(v);
    online.add(v);
  }
  EXPECT_NEAR(online.mean(), mean(xs), 1e-9);
  EXPECT_NEAR(online.variance(), variance(xs), 1e-6);
}

TEST(Clock, VirtualClockAdvances) {
  VirtualClock clock;
  EXPECT_DOUBLE_EQ(clock.now_ms(), 0.0);
  clock.advance_by(5.5);
  EXPECT_DOUBLE_EQ(clock.now_ms(), 5.5);
  clock.advance_to(10.0);
  EXPECT_DOUBLE_EQ(clock.now_ms(), 10.0);
  EXPECT_THROW(clock.advance_to(9.0), InternalError);
  EXPECT_THROW(clock.advance_by(-1.0), InvalidArgument);
}

TEST(Clock, StopwatchMeasuresElapsedTime) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(watch.elapsed_ms(), 8.0);
}

// ---- durable-state primitives (common/io, DESIGN.md §9) -------------------

std::string io_tmp_path(const std::string& tag) {
  return "/tmp/eugene_test_io_" + tag + "_" + std::to_string(::getpid());
}

TEST(Io, AtomicWriteReplacesWholeFileOrNothing) {
  const std::string path = io_tmp_path("atomic");
  const std::vector<std::uint8_t> first = {1, 2, 3, 4};
  io::atomic_write_file(path, first);
  EXPECT_EQ(io::read_file_bytes(path), first);
  const std::vector<std::uint8_t> second = {9, 8, 7};
  io::atomic_write_file(path, second);
  EXPECT_EQ(io::read_file_bytes(path), second);
  EXPECT_FALSE(io::file_exists(path + ".tmp"));  // temp renamed away
  std::remove(path.c_str());
}

TEST(Io, ReadMissingFileThrowsIoError) {
  EXPECT_THROW(io::read_file_bytes(io_tmp_path("missing")), IoError);
  EXPECT_FALSE(io::file_exists(io_tmp_path("missing")));
}

TEST(Io, ByteWriterReaderRoundTrip) {
  io::ByteWriter w;
  w.u8(7);
  w.u32(0xDEADBEEF);
  w.u64(1ull << 40);
  w.f64(3.25);
  w.str("eugene");
  w.f64_vec({1.0, 2.0, 3.0});

  io::ByteReader r(w.buffer(), "test");
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 1ull << 40);
  EXPECT_DOUBLE_EQ(r.f64(), 3.25);
  EXPECT_EQ(r.str(), "eugene");
  EXPECT_EQ(r.f64_vec(), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_NO_THROW(r.expect_exhausted());
}

TEST(Io, ByteReaderOverReadThrowsCorruption) {
  io::ByteWriter w;
  w.u32(5);
  io::ByteReader r(w.buffer(), "test");
  EXPECT_THROW((void)r.u64(), CorruptionError);

  // A length prefix that exceeds the payload must throw, not allocate.
  io::ByteWriter lying;
  lying.u64(1ull << 62);
  io::ByteReader r2(lying.buffer(), "test");
  EXPECT_THROW((void)r2.f64_vec(), CorruptionError);

  io::ByteReader r3(w.buffer(), "test");
  (void)r3.u32();
  EXPECT_NO_THROW(r3.expect_exhausted());
}

TEST(Io, BlobRoundTripAndValidation) {
  const std::vector<std::uint8_t> payload = {10, 20, 30, 40, 50};
  const std::vector<std::uint8_t> bytes = io::encode_blob(0xAABBCCDD, 1, payload);
  const io::Blob blob = io::decode_blob(bytes, 0xAABBCCDD, 1, "test blob");
  EXPECT_EQ(blob.version, 1u);
  EXPECT_EQ(blob.payload, payload);

  // Wrong magic.
  EXPECT_THROW(io::decode_blob(bytes, 0x11111111, 1, "t"), CorruptionError);
  // Future version.
  const auto future = io::encode_blob(0xAABBCCDD, 2, payload);
  EXPECT_THROW(io::decode_blob(future, 0xAABBCCDD, 1, "t"), CorruptionError);
  // Truncation at every prefix length must throw, never crash.
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    const std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + n);
    EXPECT_THROW(io::decode_blob(cut, 0xAABBCCDD, 1, "t"), CorruptionError) << n;
  }
  // Any single bit flip in the payload or footer must be detected.
  for (std::size_t i = 16; i < bytes.size(); ++i) {
    std::vector<std::uint8_t> flipped = bytes;
    flipped[i] ^= 0x01;
    EXPECT_THROW(io::decode_blob(flipped, 0xAABBCCDD, 1, "t"), CorruptionError) << i;
  }
}

TEST(Io, BlobEncodesIntoOneAllocation) {
  // The CRC footer must not reallocate: a blob whose buffer grew past its
  // header and payload would copy every checkpoint byte twice.
  const std::vector<std::uint8_t> payload(127212, 0x5A);
  const std::vector<std::uint8_t> bytes = io::encode_blob(0xAABBCCDD, 1, payload);
  EXPECT_EQ(bytes.size(), 16 + payload.size() + 4);
  EXPECT_EQ(bytes.capacity(), bytes.size());
}

// ---------------------------------------------------------------------------
// Lock-rank deadlock-order checker (common/lock_rank.hpp, DESIGN.md §10).
// The checker is compiled out in Release builds, so everything that asserts
// on detection is guarded by EUGENE_LOCK_RANK_CHECKS.
// ---------------------------------------------------------------------------

#if EUGENE_LOCK_RANK_CHECKS

namespace {
// Capture handler: ViolationHandler is a plain function pointer, so the
// report lands in a file-scope string (tests run sequentially).
std::string g_last_violation;  // NOLINT(cert-err58-cpp)
int g_violation_count = 0;
void capture_violation(const std::string& report) {
  g_last_violation = report;
  ++g_violation_count;
}

/// Installs the capture handler for one test body and restores the previous
/// handler (the default abort) on scope exit.
struct ViolationCapture {
  ViolationCapture() {
    g_last_violation.clear();
    g_violation_count = 0;
    previous = lock_rank::set_violation_handler(&capture_violation);
  }
  ~ViolationCapture() { lock_rank::set_violation_handler(previous); }
  lock_rank::ViolationHandler previous;
};

// Ad-hoc ranks for checker tests: values outside the registry are legal at
// runtime (lock_rank_name renders "?"), which keeps these tests independent
// of the production rank map.
constexpr LockRank kLow = static_cast<LockRank>(10);
constexpr LockRank kHigh = static_cast<LockRank>(20);
}  // namespace

TEST(LockRank, MonotoneAcquisitionIsClean) {
  ViolationCapture capture;
  Mutex low(kLow, "test_low");
  Mutex high(kHigh, "test_high");
  ASSERT_EQ(lock_rank::held_count(), 0u);
  low.lock();
  high.lock();
  EXPECT_EQ(lock_rank::held_count(), 2u);
  high.unlock();
  low.unlock();
  EXPECT_EQ(lock_rank::held_count(), 0u);
  EXPECT_EQ(g_violation_count, 0);
}

TEST(LockRank, InversionReportNamesBothAcquisitionSites) {
  ViolationCapture capture;
  Mutex low(kLow, "test_low");
  Mutex high(kHigh, "test_high");
  high.lock();
  low.lock();  // B→A inversion: rank 10 while holding rank 20
  EXPECT_EQ(g_violation_count, 1);
  EXPECT_NE(g_last_violation.find("lock-rank violation"), std::string::npos)
      << g_last_violation;
  // Both sides of the would-be cycle, with names, ranks, and file:line.
  EXPECT_NE(g_last_violation.find("test_low"), std::string::npos);
  EXPECT_NE(g_last_violation.find("test_high"), std::string::npos);
  EXPECT_NE(g_last_violation.find("rank 10"), std::string::npos);
  EXPECT_NE(g_last_violation.find("rank 20"), std::string::npos);
  EXPECT_NE(g_last_violation.find("test_common.cpp"), std::string::npos);
  low.unlock();
  high.unlock();
}

TEST(LockRank, EqualRankIsAViolation) {
  // Two locks of the same rank have no defined order, so A→B on one thread
  // and B→A on another would deadlock; the checker rejects the second
  // acquisition even though the ranks are equal, not decreasing.
  ViolationCapture capture;
  Mutex a(kLow, "test_a");
  Mutex b(kLow, "test_b");
  a.lock();
  b.lock();
  EXPECT_EQ(g_violation_count, 1);
  b.unlock();
  a.unlock();
}

TEST(LockRank, NonLifoReleaseIsTracked) {
  ViolationCapture capture;
  Mutex low(kLow, "test_low");
  Mutex high(kHigh, "test_high");
  low.lock();
  high.lock();
  low.unlock();  // released out of acquisition order — legal
  EXPECT_EQ(lock_rank::held_count(), 1u);
  // With only rank 20 held, a fresh rank-10 acquisition is still a violation.
  Mutex low2(kLow, "test_low2");
  low2.lock();
  EXPECT_EQ(g_violation_count, 1);
  low2.unlock();
  high.unlock();
  EXPECT_EQ(lock_rank::held_count(), 0u);
  EXPECT_EQ(g_violation_count, 1);
}

TEST(LockRank, TryLockIsTrackedButNotEnforced) {
  // try_lock cannot block, so it cannot complete a deadlock cycle; it is the
  // sanctioned escape hatch for genuinely order-free designs.
  ViolationCapture capture;
  Mutex low(kLow, "test_low");
  Mutex high(kHigh, "test_high");
  high.lock();
  ASSERT_TRUE(low.try_lock());
  EXPECT_EQ(g_violation_count, 0);
  EXPECT_EQ(lock_rank::held_count(), 2u);
  // ...but the acquisition is *tracked*: a later blocking lock above the
  // try-locked rank still sees a complete picture of what this thread holds.
  low.unlock();
  high.unlock();
}

TEST(LockRank, ProductionRanksFormAStrictOrderOnTheServingPath) {
  // The serving path's deepest real nesting: registry → usage meter →
  // failpoint registry → logging. If someone reorders the registry ranks
  // this regression fails before any production schedule ever deadlocks.
  ViolationCapture capture;
  Mutex registry(LockRank::kModelRegistry, "registry");
  Mutex usage(LockRank::kUsageMeter, "usage");
  Mutex failpoints(LockRank::kFailpointRegistry, "failpoints");
  Mutex logging(LockRank::kLogging, "logging");
  registry.lock();
  usage.lock();
  failpoints.lock();
  logging.lock();
  EXPECT_EQ(g_violation_count, 0);
  logging.unlock();
  failpoints.unlock();
  usage.unlock();
  registry.unlock();

  // A peer worker of process_batch records span events and logs while it
  // holds the engine lock.
  Mutex engine(LockRank::kEngine, "engine");
  Mutex trace(LockRank::kTrace, "trace");
  engine.lock();
  trace.lock();
  logging.lock();
  EXPECT_EQ(g_violation_count, 0);
  logging.unlock();
  trace.unlock();
  engine.unlock();
}

#if GTEST_HAS_DEATH_TEST
TEST(LockRankDeathTest, InversionAbortsWithReport) {
  // No capture handler here: the default path prints the report to stderr
  // and aborts, which is exactly what a production debug build must do.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex low(kLow, "death_low");
        Mutex high(kHigh, "death_high");
        high.lock();
        low.lock();
      },
      "lock-rank violation");
}
#endif  // GTEST_HAS_DEATH_TEST

#else  // !EUGENE_LOCK_RANK_CHECKS

TEST(LockRank, CheckerCompiledOutMutexStillLocks) {
  // Release builds: eugene::Mutex must degrade to a plain std::mutex.
  Mutex mu(LockRank::kEngine, "release_mutex");
  {
    MutexLock lock(mu);
  }
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
  EXPECT_EQ(lock_rank::held_count(), 0u);
}

#endif  // EUGENE_LOCK_RANK_CHECKS

}  // namespace
}  // namespace eugene
