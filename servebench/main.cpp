// Eugene serving benchmark: one process builds a model that is ready to
// serve, then drives one workload through core::EugeneService::infer_batch,
// checks every answer against a per-sample reference, and prints every
// metric by name and unit. The last line of stdout is the JSON result.
//
//   servebench --workload edge-open|bulk-full|ops-swap --seed N --seconds S
//              --trace 0|1 [--out-dir DIR] [--corrupt flip-label|drop-response]
//
// --trace 0 reports the end-to-end metrics. --trace 1 adds a traced pass of
// the workload (bracketed by an untraced one) and per-layer probes, reports
// the per-layer metrics, and writes the spans the benchmark recorded around
// its calls into each layer as a Chrome trace
// (DIR/trace-<workload>-seed<N>.json). --corrupt damages one answer
// before the correctness gate, which must then fail the run; the
// benchmark's own tests use it.
//
// Exit codes: 0 success, 2 bad arguments, 3 correctness gate failed (the
// result line still prints, with "correct": false), 1 anything else.
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/clock.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "core/eugene_service.hpp"
#include "data/synthetic_images.hpp"
#include "harness.hpp"
#include "sched/policy.hpp"
#include "tensor/gemm.hpp"

namespace {

namespace sb = servebench;
namespace core = eugene::core;
namespace data = eugene::data;
namespace nn = eugene::nn;
namespace serving = eugene::serving;
namespace telemetry = eugene::telemetry;
namespace tensor = eugene::tensor;
using eugene::Rng;

// ---- frozen settings (documented in servebench/workloads.json) -------------

// Setup: the served model. Its training data come from a fixed seed, not
// from --seed: this model's exit split swings from 0% to 60% at stage 1
// between training seeds, which would swamp every run-to-run comparison.
constexpr std::uint64_t kModelSeed = 8;
// The traffic pool draws from stream 2·seed + 1, which is odd, so no --seed
// ever replays the training data.
static_assert(kModelSeed % 2 == 0, "the pool's odd streams must differ from the model's");
constexpr std::size_t kTrainSamples = 800;
constexpr std::size_t kTrainEpochs = 8;
constexpr double kStage1LossWeight = 4.0;
constexpr std::size_t kCalibSamples = 300;
constexpr std::size_t kCalibEpochs = 80;
constexpr std::size_t kSetupRepeats = 3;
constexpr std::size_t kHeadHidden = 24;
constexpr std::size_t kPoolSize = 4096;  // traffic inputs, drawn from --seed

// edge-open: the smart_camera classes, equal shares, early exit at 0.9.
constexpr double kEdgeEarlyExit = 0.9;
// The ladder: a nominal rung well below the knee for half of --seconds (one
// slice per setup), then rungs of kRungArrivals expected arrivals each at
// kLadderStartRps · kLadderRatio^k, up to the first rung that fails.
constexpr double kNominalRps = 2000.0;
constexpr double kNominalShare = 0.5;
constexpr double kLadderStartRps = 2200.0;
constexpr double kLadderRatio = 1.1;
constexpr std::size_t kLadderRungs = 25;  // tops out near 21700 req/s
// About 1100 per class, so each class's p99 has at least ten samples beyond it.
constexpr double kRungArrivals = 2200.0;
constexpr std::size_t kWarmupCalls = 64;
constexpr double kAbortLagMs = 200.0;  // stop arrivals once this far behind

// bulk-full: one closed-loop client, full depth, no deadline.
constexpr std::size_t kBulkBatch = 1024;
constexpr double kFullDepthExit = 1.5;  // above any confidence: never exits early

// ops-swap: two closed-loop clients plus a live operator.
constexpr std::size_t kOpsClients = 2;
constexpr std::size_t kOpsBatch = 4;
constexpr double kOpsEarlyExit = 0.9;
constexpr double kOpsCadenceMs = 100.0;

const char* const kWorkloads[] = {"edge-open", "bulk-full", "ops-swap"};

std::vector<serving::ServiceClassConfig> edge_classes() {
  return {{"interactive", 40.0, 4.0}, {"camera", 500.0, 1.0}};
}

// ---- small utilities ---------------------------------------------------------

double clock_ms() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   origin)
      .count();
}

/// Spins until `due_ms`: a sleeping thread wakes milliseconds late on a
/// loaded machine, which would show up as queue wait the service never
/// caused.
void spin_until(double due_ms) {
  while (clock_ms() < due_ms) {
  }
}

std::vector<double> sorted_copy(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  return sb::nearest_rank(sorted_copy(std::move(v)), 50.0);
}

double mean_of(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

/// Median per-call microseconds of `fn`, timed in `blocks` blocks of `reps`.
double median_call_us(std::size_t blocks, std::size_t reps, const std::function<void()>& fn) {
  fn();  // warm
  std::vector<double> per_call;
  for (std::size_t b = 0; b < blocks; ++b) {
    eugene::Stopwatch watch;
    for (std::size_t r = 0; r < reps; ++r) fn();
    per_call.push_back(watch.elapsed_us() / static_cast<double>(reps));
  }
  return median_of(per_call);
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                &regs[4 * i + 3]);
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string text(brand);
  const auto first = text.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : text.substr(first);
#else
  return "unknown";
#endif
}

/// Current resident set of this process, in MB (resident pages from
/// /proc/self/statm); 0 where that file does not exist.
double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::size_t total_pages = 0, resident_pages = 0;
  if (!(statm >> total_pages >> resident_pages)) return 0.0;
  return static_cast<double>(resident_pages) * static_cast<double>(::sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 1e9);
  return buf;
}

// ---- command line ------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string corrupt;  // "", "flip-label", "drop-response"
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args.seconds > 0.0 &&
                     args.seconds <= 600.0;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else if (key == "--corrupt") {
      if (value != "flip-label" && value != "drop-response") return false;
      args.corrupt = value;
    } else {
      return false;
    }
  }
  const bool known = std::any_of(std::begin(kWorkloads), std::end(kWorkloads),
                                 [&](const char* w) { return args.workload == w; });
  return (argc - 1) % 2 == 0 && known && have_seed && have_seconds && have_trace;
}

// ---- setup: a model ready to serve -------------------------------------------

struct SetupTimes {
  double train_s = 0.0;
  double calibrate_s = 0.0;
  double profile_s = 0.0;
  double total_s = 0.0;
};

SetupTimes build_served_model(core::EugeneService& service, std::size_t& handle,
                              sb::SpanRecorder* spans) {
  const data::SyntheticImageConfig sensor;
  Rng rng(kModelSeed);
  data::Dataset train_set, calib_set;
  {
    sb::ScopedSpan span(spans, "data.generate_images");
    train_set = data::generate_images(sensor, kTrainSamples, rng);
    calib_set = data::generate_images(sensor, kCalibSamples, rng);
  }
  nn::StagedResNetConfig arch;
  arch.head_hidden = kHeadHidden;
  nn::StagedTrainConfig training;
  training.epochs = kTrainEpochs;
  training.head_loss_weights = {kStage1LossWeight, 1.0, 1.0};
  eugene::calib::EntropyCalibConfig calibration;
  calibration.alpha_grid = {0.0, 0.35, 1.0, 1.75};
  calibration.epochs = kCalibEpochs;

  SetupTimes t;
  sb::ScopedSpan setup_span(spans, "setup.ready_to_serve");
  eugene::Stopwatch total;
  {
    sb::ScopedSpan span(spans, "setup.train");
    eugene::Stopwatch watch;
    handle = service.train("servebench", train_set, arch, training);
    t.train_s = watch.elapsed_s();
  }
  {
    sb::ScopedSpan span(spans, "setup.calibrate");
    eugene::Stopwatch watch;
    service.calibrate(handle, calib_set, calibration);
    t.calibrate_s = watch.elapsed_s();
  }
  {
    sb::ScopedSpan span(spans, "setup.profile");
    eugene::Stopwatch watch;
    service.profile(handle, {sensor.channels, sensor.height, sensor.width});
    t.profile_s = watch.elapsed_s();
  }
  t.total_s = total.elapsed_s();
  return t;
}

/// Hash of the per-stage answers on a few fixed inputs: every repeat of the
/// setup must build the same model.
std::uint64_t model_fingerprint(const nn::StagedModel& served) {
  nn::StagedModel model = served.clone();
  Rng rng(kModelSeed + 1);
  const data::Dataset probe = data::generate_images({}, 8, rng);
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
  for (const tensor::Tensor& input : probe.samples) {
    tensor::Tensor x = input;
    for (std::size_t s = 0; s < model.num_stages(); ++s) {
      nn::StageOutput out = model.run_stage(s, x);
      std::uint32_t bits = 0;
      std::memcpy(&bits, &out.confidence, sizeof bits);
      mix(out.predicted_label);
      mix(bits);
      x = std::move(out.features);
    }
  }
  return h;
}

sb::Reference build_reference(const nn::StagedModel& served, const data::Dataset& pool,
                              sb::SpanRecorder* spans) {
  sb::ScopedSpan span(spans, "reference.per_sample_chain", 0, pool.size());
  nn::StagedModel model = served.clone();
  sb::Reference ref(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    tensor::Tensor x = pool.samples[i];
    for (std::size_t s = 0; s < model.num_stages(); ++s) {
      nn::StageOutput out = model.run_stage(s, x);
      ref[i].push_back({out.predicted_label, out.confidence});
      x = std::move(out.features);
    }
  }
  return ref;
}

// ---- one request's outcome ---------------------------------------------------

struct Answer {
  double latency_ms = 0.0;  ///< due (or submit) → return of the answering call
  double queue_ms = 0.0;    ///< due (or submit) → start of the call
  double call_ms = 0.0;     ///< start → return of the answering call
  bool first_in_call = false;  ///< one answer per call carries the call's figures
  std::size_t service_class = 0;
  std::size_t stages = 0;
  bool error = false;
  bool label_ok = false;
  bool degraded = false;  ///< degraded, browned_out or expired
  bool expired = false;
  bool shed = false;
};

struct CallOutcome {
  std::vector<serving::InferenceResponse> responses;
  bool threw = false;
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// Everything a workload run shares: the service, its inputs, the reference
/// and the gate. Workload functions are run once untraced and, with
/// --trace 1, once more with spans.
struct Bench {
  Args args;
  core::EugeneService* service = nullptr;
  std::size_t handle = 0;
  std::size_t stages = 0;
  data::Dataset pool;
  sb::Reference reference;
  sb::SpanRecorder* spans = nullptr;  // null: untraced
  double span_offset_us = 0.0;        // recorder time minus clock_ms() time
  std::uint32_t arrivals_track = 0;
  telemetry::Gauge* brownout_gauge = nullptr;  // sampled after each call when set
  std::atomic<std::uint64_t> next_request{1};
  std::atomic<bool> corrupt_pending{false};

  std::mutex mutex;  // guards the members below across client threads
  sb::GateTally gate;
  std::vector<std::string> check_failures;
  std::size_t expired_seen = 0;  // responses flagged expired
  std::size_t shed_seen = 0;     // responses flagged degraded (shed)
  double brownout_max = 0.0;

  std::vector<serving::InferenceRequest> requests_for(std::span<const std::size_t> inputs,
                                                     std::size_t service_class) const {
    std::vector<serving::InferenceRequest> requests;
    requests.reserve(inputs.size());
    for (const std::size_t input : inputs)
      requests.push_back({pool.samples[input], service_class});
    return requests;
  }

  CallOutcome call(std::size_t model, const std::vector<serving::InferenceRequest>& requests,
                   const serving::ServerConfig& config) {
    const std::uint64_t first = next_request.fetch_add(requests.size());
    sb::ScopedSpan span(spans, "core.infer_batch", first, requests.size());
    CallOutcome out;
    out.start_ms = clock_ms();
    try {
      out.responses = service->infer_batch(model, requests, config);
    } catch (const std::exception& e) {
      out.threw = true;
      std::fprintf(stderr, "infer_batch threw: %s\n", e.what());
    }
    out.end_ms = clock_ms();
    if (brownout_gauge != nullptr) {
      const double level = brownout_gauge->value();
      std::lock_guard<std::mutex> lock(mutex);
      brownout_max = std::max(brownout_max, level);
    }
    if (corrupt_pending.exchange(false) && !out.responses.empty()) {
      if (args.corrupt == "flip-label")
        out.responses.front().label = (out.responses.front().label + 1) % 10;
      else
        out.responses.pop_back();
    }
    return out;
  }

  /// Gates one call and turns its responses into answers. `origin_ms[i]` is
  /// request i's due (open loop) or submit time (closed loop).
  void settle(const CallOutcome& outcome, std::span<const std::size_t> inputs,
              std::span<const std::size_t> classes, std::span<const double> origin_ms,
              double early_exit, const char* where, std::vector<Answer>& answers) {
    std::vector<sb::Verdict> verdicts;
    sb::check_call(reference, inputs, outcome.threw ? nullptr : &outcome.responses,
                   early_exit, verdicts);
    std::lock_guard<std::mutex> lock(mutex);
    gate.add(verdicts, where);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      Answer a;
      a.service_class = classes[i];
      a.queue_ms = outcome.start_ms - origin_ms[i];
      a.call_ms = outcome.end_ms - outcome.start_ms;
      a.first_in_call = i == 0;
      a.error = verdicts[i] != sb::Verdict::kOk;
      a.latency_ms = a.error ? std::numeric_limits<double>::infinity()
                             : outcome.end_ms - origin_ms[i];
      if (!a.error) {
        const serving::InferenceResponse& r = outcome.responses[i];
        a.stages = r.stages_run;
        a.label_ok = r.stages_run > 0 && r.label == pool.labels[inputs[i]];
        a.degraded = r.degraded || r.browned_out || r.expired;
        a.expired = r.expired;
        a.shed = r.degraded;
        expired_seen += a.expired ? 1 : 0;
        shed_seen += a.shed ? 1 : 0;
      }
      answers.push_back(a);
    }
  }

  /// A failed check that is not about one request's answer.
  void note_error(const std::string& what) {
    std::lock_guard<std::mutex> lock(mutex);
    check_failures.push_back(what);
  }
};

// ---- end-to-end summaries ------------------------------------------------------

struct Summary {
  std::size_t sent = 0;
  std::size_t errors = 0;
  std::size_t calls = 0;
  double call_p50_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  std::size_t latency_samples = 0;
  double throughput_rps = 0.0;
  double on_time_rate = 0.0;
  double accuracy = 0.0;
  double degraded_rate = 0.0;
  double error_rate = 0.0;
};

/// `per_call`: latency percentiles over calls, not requests. A closed loop's
/// requests share their call's latency, so its calls are the samples.
Summary summarize(const std::vector<Answer>& answers, double wall_s,
                  const std::vector<serving::ServiceClassConfig>& classes, bool per_call) {
  Summary s;
  s.sent = answers.size();
  if (answers.empty()) return s;
  std::vector<double> latency, call;
  std::size_t on_time = 0, correct = 0, degraded = 0, answered = 0;
  for (const Answer& a : answers) {
    if (a.first_in_call) call.push_back(a.call_ms);
    if (!per_call || a.first_in_call) latency.push_back(a.latency_ms);
    if (a.error) {
      ++s.errors;
      continue;
    }
    ++answered;
    on_time += a.latency_ms <= classes[a.service_class].deadline_ms ? 1 : 0;
    correct += a.label_ok ? 1 : 0;
    degraded += a.degraded ? 1 : 0;
  }
  std::sort(latency.begin(), latency.end());
  const double n = static_cast<double>(answers.size());
  s.calls = call.size();
  s.call_p50_ms = median_of(std::move(call));
  s.latency_p50_ms = sb::nearest_rank(latency, 50.0);
  s.latency_p99_ms = sb::nearest_rank(latency, 99.0);
  s.latency_samples = latency.size();
  s.throughput_rps = wall_s > 0.0 ? static_cast<double>(answered) / wall_s : 0.0;
  s.on_time_rate = static_cast<double>(on_time) / n;
  s.accuracy = static_cast<double>(correct) / n;
  s.degraded_rate = static_cast<double>(degraded) / n;
  s.error_rate = static_cast<double>(s.errors) / n;
  return s;
}

/// What a workload run hands back for reporting.
struct WorkloadRun {
  Summary summary;                 // the answers the end-to-end metrics use
  std::vector<Answer> answers;     // same answers
  double max_rate_rps = 0.0;
  std::vector<std::string> notes;  // human-readable lines (ladder table, …)
  std::vector<double> batch_sizes;
  std::vector<double> swap_ms;
  std::vector<double> snapshot_ms;
  std::size_t threads = 1;
  std::vector<double> rss_mb;  // resident set at the end of each slice
  double wall_s = 0.0;         // measured time the answers took
};

/// One slice of a workload's measured phase. run() spreads the measured
/// phase over the run, one slice after each setup: the host's speed drifts
/// over seconds, and slices spread in time average that drift instead of
/// catching one stretch of it.
struct Phase {
  std::size_t index = 0;  ///< slice number; seeds the slice's traffic
  double seconds = 0.0;   ///< edge-open: nominal rung; closed loops: run time
  bool warm_up = false;   ///< run the workload's warm-up calls first
  bool ladder = false;    ///< edge-open: climb the load ladder afterwards
};

/// Adds a slice's results to the run so far.
void append(WorkloadRun& into, WorkloadRun&& part) {
  into.answers.insert(into.answers.end(), part.answers.begin(), part.answers.end());
  into.batch_sizes.insert(into.batch_sizes.end(), part.batch_sizes.begin(),
                          part.batch_sizes.end());
  into.swap_ms.insert(into.swap_ms.end(), part.swap_ms.begin(), part.swap_ms.end());
  into.snapshot_ms.insert(into.snapshot_ms.end(), part.snapshot_ms.begin(),
                          part.snapshot_ms.end());
  into.notes.insert(into.notes.end(), part.notes.begin(), part.notes.end());
  into.rss_mb.insert(into.rss_mb.end(), part.rss_mb.begin(), part.rss_mb.end());
  into.wall_s += part.wall_s;
  into.threads = part.threads;
  if (part.max_rate_rps > 0.0) into.max_rate_rps = part.max_rate_rps;
}

// ---- edge-open ---------------------------------------------------------------

struct RungRun {
  sb::RungObservation observation;
  std::vector<Answer> answers;
  std::vector<double> batch_sizes;
  double wall_s = 0.0;
};

RungRun run_rung(Bench& b, double rate_rps, double seconds, std::uint64_t seed) {
  const auto classes = edge_classes();
  serving::ServerConfig config;
  config.classes = classes;
  config.early_exit_confidence = kEdgeEarlyExit;
  const std::vector<double> class_rates(classes.size(),
                                        rate_rps / static_cast<double>(classes.size()));
  const std::vector<sb::Arrival> schedule =
      sb::poisson_schedule(class_rates, seconds * 1000.0, b.pool.size(), seed);

  RungRun run;
  run.observation.rate_rps = rate_rps;
  run.observation.latency_ms.resize(classes.size());
  std::vector<serving::InferenceRequest> requests;
  std::vector<std::size_t> inputs, request_classes;
  std::vector<double> due;
  const double origin = clock_ms() + 1.0;
  std::size_t next = 0, end = schedule.size();
  double last_return = origin;
  while (next < end) {
    spin_until(origin + schedule[next].due_ms);
    const double now = clock_ms();
    if (!run.observation.aborted && now - (origin + schedule[next].due_ms) > kAbortLagMs) {
      // The backlog is past recovery: stop arrivals, still answer what is due.
      run.observation.aborted = true;
      while (end > next && origin + schedule[end - 1].due_ms > now) --end;
    }
    std::size_t last = next;
    while (last < end && origin + schedule[last].due_ms <= now) ++last;
    requests.clear();
    inputs.clear();
    request_classes.clear();
    due.clear();
    for (std::size_t i = next; i < last; ++i) {
      const sb::Arrival& a = schedule[i];
      requests.push_back({b.pool.samples[a.input], a.service_class});
      inputs.push_back(a.input);
      request_classes.push_back(a.service_class);
      due.push_back(origin + a.due_ms);
    }
    const CallOutcome outcome = b.call(b.handle, requests, config);
    last_return = outcome.end_ms;
    const std::size_t before = run.answers.size();
    b.settle(outcome, inputs, request_classes, due, kEdgeEarlyExit, "edge-open",
             run.answers);
    for (std::size_t i = before; i < run.answers.size(); ++i) {
      const Answer& a = run.answers[i];
      run.observation.latency_ms[a.service_class].push_back(a.latency_ms);
      run.observation.queue_wait_ms.push_back(a.queue_ms);
      if (b.spans != nullptr)
        b.spans->add("serving.queue_wait", due[i - before] * 1000.0 + b.span_offset_us,
                     outcome.start_ms * 1000.0 + b.span_offset_us, 0, 1,
                     b.arrivals_track);
    }
    run.batch_sizes.push_back(static_cast<double>(last - next));
    next = last;
  }
  run.wall_s = (last_return - origin) / 1000.0;
  return run;
}

std::string rung_line(std::size_t index, const RungRun& run, bool pass,
                      const std::vector<serving::ServiceClassConfig>& classes) {
  const Summary s = summarize(run.answers, run.wall_s, classes, false);
  // A class's p99 is shown only with at least ten samples beyond it.
  auto p99 = [&](std::size_t c) {
    const std::vector<double>& latency = run.observation.latency_ms[c];
    if (!sb::percentile_supported(latency.size(), 99.0)) return std::string("-");
    char text[32];
    std::snprintf(text, sizeof text, "%.3f", sb::nearest_rank(sorted_copy(latency), 99.0));
    return std::string(text);
  };
  char line[256];
  std::snprintf(line, sizeof line,
                "  %4zu  %8.0f  %5zu  %7.3f  %19s  %14s  %7.4f  %8.4f  %10.2f  %7s  %s",
                index, run.observation.rate_rps, s.sent, s.latency_p50_ms, p99(0).c_str(),
                p99(1).c_str(),
                s.on_time_rate, s.accuracy, mean_of(run.batch_sizes),
                run.observation.aborted ? "abort"
                : sb::backlog_grows(run.observation.queue_wait_ms) ? "grows"
                                                                    : "flat",
                pass ? "pass" : "FAIL");
  return line;
}

WorkloadRun run_edge_open(Bench& b, const Phase& phase) {
  const auto classes = edge_classes();
  const std::vector<double> deadlines = {classes[0].deadline_ms, classes[1].deadline_ms};
  WorkloadRun out;
  if (phase.warm_up) {
    // Warm caches and lazy state before timing: single-request calls, gated
    // like every other answer.
    serving::ServerConfig config;
    config.classes = classes;
    config.early_exit_confidence = kEdgeEarlyExit;
    std::vector<Answer> warm;
    for (std::size_t i = 0; i < kWarmupCalls; ++i) {
      const std::size_t input = i % b.pool.size();
      const CallOutcome outcome = b.call(b.handle, {{b.pool.samples[input], i % 2}}, config);
      const std::size_t cls = i % 2;
      const double origin = outcome.start_ms;
      b.settle(outcome, std::span(&input, 1), std::span(&cls, 1), std::span(&origin, 1),
               kEdgeEarlyExit, "edge-open warm-up", warm);
    }
    out.notes.push_back(
        "  rung  rate_rps  sent   p50_ms   p99_ms(interactive)  p99_ms(camera)  "
        "on_time  accuracy  batch_mean  backlog  verdict");
  }
  // The end-to-end metrics measure the nominal rung; the ladder after it
  // only finds the knee, and how far it climbs must not move them.
  RungRun nominal =
      run_rung(b, kNominalRps, phase.seconds, b.args.seed * 131 + 1000 * phase.index);
  out.notes.push_back(rung_line(0, nominal, sb::rung_passes(nominal.observation, deadlines),
                                classes) +
                      "  (nominal, slice " + std::to_string(phase.index) + ")");
  out.answers = std::move(nominal.answers);
  out.batch_sizes = std::move(nominal.batch_sizes);
  out.wall_s = nominal.wall_s;
  out.rss_mb = {current_rss_mb()};
  if (!phase.ladder) return out;

  std::vector<sb::RungObservation> observed;
  std::vector<RungRun> runs;
  std::size_t sent = 0;
  for (std::size_t k = 0; k < kLadderRungs; ++k) {
    const double rate = kLadderStartRps * std::pow(kLadderRatio, static_cast<double>(k));
    const double seconds = kRungArrivals / rate;
    RungRun run = run_rung(b, rate, seconds, b.args.seed * 131 + k + 1);
    sent += run.answers.size();
    bool pass = sb::rung_passes(run.observation, deadlines);
    out.notes.push_back(rung_line(k + 1, run, pass, classes));
    if (!pass) {
      // A rung fails only when a fresh schedule at the same rate fails too:
      // one host stall near the knee must not end the ladder.
      run = run_rung(b, rate, seconds, b.args.seed * 131 + k + 1 + 7919);
      sent += run.answers.size();
      pass = sb::rung_passes(run.observation, deadlines);
      out.notes.push_back(rung_line(k + 1, run, pass, classes) + "  (retry)");
    }
    observed.push_back(run.observation);
    runs.push_back(std::move(run));
    if (!pass) break;  // the ladder stops at its first failing rung
  }
  const int best = sb::highest_passing_rung(observed, deadlines);
  // The measured rate at the highest passing rung (not its nominal label).
  if (best >= 0) {
    const RungRun& top = runs[static_cast<std::size_t>(best)];
    out.max_rate_rps = static_cast<double>(top.answers.size()) / top.wall_s;
  }
  char line[256];
  std::snprintf(line, sizeof line,
                "  nominal rung %.0f req/s in %zu slices; ladder: %zu rung(s), %zu requests, "
                "%.0f arrivals per rung from %.0f req/s in steps of x%.2f",
                kNominalRps, phase.index + 1, runs.size(), sent, kRungArrivals,
                kLadderStartRps, kLadderRatio);
  out.notes.push_back(line);
  return out;
}

// ---- bulk-full -----------------------------------------------------------------

WorkloadRun run_bulk_full(Bench& b, const Phase& phase) {
  serving::ServerConfig config;
  config.early_exit_confidence = kFullDepthExit;
  // Batches cover the pool in turn. Requests are built per call, outside the
  // timed call, so the benchmark keeps no second copy of the pool.
  const std::size_t count = b.pool.size() / kBulkBatch;
  auto batch_inputs = [&](std::size_t k) {
    std::vector<std::size_t> inputs;
    for (std::size_t i = 0; i < kBulkBatch; ++i)
      inputs.push_back(((k % count) * kBulkBatch + i) % b.pool.size());
    return inputs;
  };
  const std::vector<std::size_t> request_classes(kBulkBatch, 0);

  WorkloadRun out;
  std::vector<Answer> warm;
  if (phase.warm_up) {
    const std::vector<std::size_t> inputs = batch_inputs(count - 1);
    const CallOutcome outcome = b.call(b.handle, b.requests_for(inputs, 0), config);
    const std::vector<double> submit(kBulkBatch, outcome.start_ms);
    b.settle(outcome, inputs, request_classes, submit, kFullDepthExit, "bulk-full warm-up",
             warm);
  }
  const double t0 = clock_ms();
  double last_return = t0;
  for (std::size_t k = 0; clock_ms() - t0 < phase.seconds * 1000.0; ++k) {
    const std::vector<std::size_t> inputs = batch_inputs(phase.index + k);
    const CallOutcome outcome = b.call(b.handle, b.requests_for(inputs, 0), config);
    const std::vector<double> submit(kBulkBatch, outcome.start_ms);
    b.settle(outcome, inputs, request_classes, submit, kFullDepthExit, "bulk-full",
             out.answers);
    out.batch_sizes.push_back(static_cast<double>(kBulkBatch));
    last_return = outcome.end_ms;
  }
  out.wall_s = (last_return - t0) / 1000.0;
  out.rss_mb = {current_rss_mb()};
  char line[160];
  std::snprintf(line, sizeof line, "  slice %zu: %zu calls of %zu requests, %.2f s",
                phase.index, out.batch_sizes.size(), kBulkBatch, out.wall_s);
  out.notes.push_back(line);
  return out;
}

// ---- ops-swap -------------------------------------------------------------------

/// One snapshot and one hot swap of `model` with a same-weights clone.
void operator_round(Bench& b, const std::string& snapshot_dir, std::size_t model,
                    std::vector<double>& snapshot_ms, std::vector<double>& swap_ms) {
  {
    sb::ScopedSpan span(b.spans, "serving.snapshot");
    const double t = clock_ms();
    (void)b.service->snapshot(snapshot_dir);
    snapshot_ms.push_back(clock_ms() - t);
  }
  nn::StagedModel clone = b.service->registry().pin()->entry(model).model.clone();
  sb::ScopedSpan span(b.spans, "serving.swap_model");
  const double t = clock_ms();
  b.service->swap_model(model, std::move(clone));
  swap_ms.push_back(clock_ms() - t);
}

WorkloadRun run_ops_swap(Bench& b, const Phase& phase) {
  // Each client serves its own handle of the same trained model: the
  // registry allows one inference thread per published entry.
  std::vector<std::size_t> handles = {b.handle};
  const std::string second = "servebench-client1";
  if (auto found = b.service->registry().find(second)) {
    handles.push_back(*found);
  } else {
    auto entry = b.service->registry().pin()->entry(b.handle).clone();
    entry->name = second;
    handles.push_back(b.service->registry().add_entry(std::move(entry)));
  }

  serving::ServerConfig config;
  config.early_exit_confidence = kOpsEarlyExit;
  const std::string snapshot_dir =
      b.args.out_dir + "/ops-snapshots-" + std::to_string(::getpid());
  std::filesystem::remove_all(snapshot_dir);

  WorkloadRun out;
  out.threads = kOpsClients + 1;
  std::vector<std::vector<Answer>> client_answers(kOpsClients);
  std::atomic<bool> stop{false};
  const double t0 = clock_ms();
  const double stop_at = t0 + phase.seconds * 1000.0;
  std::vector<double> client_end(kOpsClients, t0);

  auto client = [&](std::size_t c) {
    if (b.spans != nullptr) b.spans->name_thread("client-" + std::to_string(c));
    // Each client walks the whole pool, starting half a pool apart.
    const std::size_t batches_per_pool = b.pool.size() / kOpsBatch;
    std::vector<std::size_t> inputs(kOpsBatch);
    const std::vector<std::size_t> request_classes(kOpsBatch, 0);
    try {
      for (std::size_t k = 0; clock_ms() < stop_at; ++k) {
        for (std::size_t i = 0; i < kOpsBatch; ++i)
          inputs[i] = (c * b.pool.size() / kOpsClients +
                       (k % batches_per_pool) * kOpsBatch + i) %
                      b.pool.size();
        const CallOutcome outcome = b.call(handles[c], b.requests_for(inputs, 0), config);
        const std::vector<double> submit(kOpsBatch, outcome.start_ms);
        b.settle(outcome, inputs, request_classes, submit, kOpsEarlyExit, "ops-swap",
                 client_answers[c]);
        client_end[c] = outcome.end_ms;
      }
    } catch (const std::exception& e) {
      b.note_error(std::string("ops-swap client failed: ") + e.what());
    }
  };
  auto operator_loop = [&] {
    if (b.spans != nullptr) b.spans->name_thread("operator");
    try {
      for (std::size_t round = 0; !stop.load(); ++round) {
        // Sleeps, unlike the arrival loop: a late tick only shifts the cadence.
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            t0 + kOpsCadenceMs * static_cast<double>(round + 1) - clock_ms()));
        if (stop.load()) break;
        operator_round(b, snapshot_dir, handles[round % handles.size()], out.snapshot_ms,
                       out.swap_ms);
      }
    } catch (const std::exception& e) {
      b.note_error(std::string("ops-swap operator failed: ") + e.what());
    }
  };

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kOpsClients; ++c) threads.emplace_back(client, c);
  std::thread op(operator_loop);
  for (std::thread& t : threads) t.join();
  stop.store(true);
  op.join();
  out.rss_mb = {current_rss_mb()};
  std::filesystem::remove_all(snapshot_dir);

  for (auto& answers : client_answers)
    out.answers.insert(out.answers.end(), answers.begin(), answers.end());
  out.wall_s = (*std::max_element(client_end.begin(), client_end.end()) - t0) / 1000.0;
  for (std::size_t c = 0; c < kOpsClients; ++c)
    out.batch_sizes.insert(out.batch_sizes.end(), client_answers[c].size() / kOpsBatch,
                           static_cast<double>(kOpsBatch));
  char line[200];
  std::snprintf(line, sizeof line,
                "  slice %zu: %zu clients x %zu requests per call; operator: %zu "
                "snapshots, %zu swaps every %.0f ms",
                phase.index, kOpsClients, kOpsBatch, out.snapshot_ms.size(),
                out.swap_ms.size(), kOpsCadenceMs);
  out.notes.push_back(line);
  return out;
}

WorkloadRun run_workload(Bench& b, const Phase& phase) {
  if (b.args.workload == "edge-open") return run_edge_open(b, phase);
  if (b.args.workload == "bulk-full") return run_bulk_full(b, phase);
  return run_ops_swap(b, phase);
}

/// Summarises a run's answers once all its slices are in.
void finish(WorkloadRun& run, const std::string& workload) {
  const bool edge = workload == "edge-open";
  run.summary = summarize(run.answers, run.wall_s,
                          edge ? edge_classes() : std::vector<serving::ServiceClassConfig>{{}},
                          !edge);
  // A closed loop's highest sustained rate is its throughput.
  if (!edge) run.max_rate_rps = run.summary.throughput_rps;
}

// ---- service counters ------------------------------------------------------------

struct Counters {
  std::uint64_t requests = 0;
  std::uint64_t sheds = 0;
  std::uint64_t expired = 0;
  double brownout_level = 0.0;
};

Counters read_counters(const core::EugeneService& service) {
  const telemetry::MetricsSnapshot snap =
      telemetry::parse_metrics_text(service.metrics_text());
  Counters c;
  auto counter = [&](const char* name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  c.requests = counter("serving.requests");
  c.sheds = counter("serving.sheds");
  c.expired = counter("serving.expired");
  if (const auto it = snap.gauges.find("serving.brownout.level"); it != snap.gauges.end())
    c.brownout_level = it->second;
  return c;
}

// ---- per-layer probes (traced run) -------------------------------------------------

using Metrics = std::vector<std::tuple<std::string, double, std::string>>;

constexpr std::size_t kProbeInputs = 64;

void probe_layers(Bench& b, Metrics& m) {
  sb::SpanRecorder* spans = b.spans;
  const nn::StagedModel served_copy =
      b.service->registry().pin()->entry(b.handle).model.clone();
  nn::StagedModel model = served_copy.clone();
  const std::size_t stages = model.num_stages();

  // tensor: gemm at each stage's residual-conv shape, and the 256³ ceiling.
  {
    sb::ScopedSpan probe(spans, "probe.tensor");
    struct Shape {
      const char* name;
      std::size_t m, k, n, reps;
    };
    const Shape shapes[] = {{"tensor.gemm_gflops.s0", 8, 72, 256, 200},
                            {"tensor.gemm_gflops.s1", 16, 144, 64, 200},
                            {"tensor.gemm_gflops.s2", 32, 288, 16, 200},
                            {"tensor.gemm_gflops.ceiling", 256, 256, 256, 3}};
    Rng rng(b.args.seed);
    for (const Shape& s : shapes) {
      const tensor::Tensor a = tensor::Tensor::randn({s.m, s.k}, rng);
      const tensor::Tensor bm = tensor::Tensor::randn({s.k, s.n}, rng);
      tensor::Tensor c({s.m, s.n});
      const double us = median_call_us(9, s.reps, [&] {
        sb::ScopedSpan span(spans, "tensor.gemm");
        tensor::gemm(s.m, s.n, s.k, a.raw(), s.k, false, bm.raw(), s.n, false, 0.0f,
                     c.raw(), s.n);
      });
      m.emplace_back(s.name, 2.0 * static_cast<double>(s.m * s.n * s.k) / (us * 1e3),
                     "GFLOP/s");
    }
  }

  // nn: per-sample run_stage per stage, interleaved with infer_batch at n=1
  // on the same inputs, so serving.overhead_us.n1 subtracts two numbers
  // taken under the same machine conditions.
  serving::ServerConfig full_depth;
  full_depth.early_exit_confidence = kFullDepthExit;
  {
    sb::ScopedSpan probe(spans, "probe.nn");
    std::vector<std::vector<double>> times(stages);
    std::vector<double> n1_times;
    for (std::size_t rep = 0; rep < 5; ++rep) {
      for (std::size_t i = 0; i < kProbeInputs; ++i) {
        tensor::Tensor x = b.pool.samples[i];
        for (std::size_t s = 0; s < stages; ++s) {
          sb::ScopedSpan span(spans, "nn.run_stage");
          eugene::Stopwatch watch;
          nn::StageOutput out = model.run_stage(s, x);
          times[s].push_back(watch.elapsed_us());
          x = std::move(out.features);
        }
      }
      for (std::size_t i = 0; i < kProbeInputs; ++i) {
        const std::vector<serving::InferenceRequest> one = {{b.pool.samples[i], 0}};
        CallOutcome outcome;
        {
          sb::ScopedSpan span(spans, "core.infer_batch", 0, 1);
          eugene::Stopwatch watch;
          outcome.responses = b.service->infer_batch(b.handle, one, full_depth);
          n1_times.push_back(watch.elapsed_us());
        }
        std::vector<Answer> ignored;
        b.settle(outcome, std::span(&i, 1), std::vector<std::size_t>{0},
                 std::vector<double>{0.0}, kFullDepthExit, "probe infer_batch n=1", ignored);
      }
    }
    double stage_sum = 0.0;
    for (std::size_t s = 0; s < stages; ++s) {
      const double us = median_of(times[s]);
      stage_sum += us;
      m.emplace_back("nn.run_stage_us.s" + std::to_string(s), us, "us");
      m.emplace_back("nn.stage_gflops.s" + std::to_string(s),
                     model.stage_flops(s) / (us * 1e3), "GFLOP/s");
    }
    const double n1_us = median_of(n1_times);
    m.emplace_back("serving.us_per_request.n1", n1_us, "us");
    m.emplace_back("serving.overhead_us.n1", n1_us - stage_sum, "us");
    for (const std::size_t batch : {std::size_t{8}, std::size_t{64}, std::size_t{1024}}) {
      std::vector<const tensor::Tensor*> inputs;
      for (std::size_t i = 0; i < batch; ++i)
        inputs.push_back(&b.pool.samples[i % b.pool.size()]);
      std::vector<nn::StageBatchItem> items(batch);
      nn::ScratchArena arena;
      const std::size_t blocks = batch >= 1024 ? 3 : 7;
      const double us = median_call_us(blocks, 1, [&] {
        sb::ScopedSpan span(spans, "nn.run_stage_batch", 0, batch);
        arena.reset();
        model.run_stage_batch(0, inputs, items, arena);
      });
      m.emplace_back("nn.batch_us_per_sample.b" + std::to_string(batch),
                     us / static_cast<double>(batch), "us");
    }
  }

  const serving::ModelRegistry::ViewPtr view = b.service->registry().pin();
  const serving::ModelEntry& entry = view->entry(b.handle);

  // gp: the served confidence curves.
  {
    sb::ScopedSpan probe(spans, "probe.gp");
    double sink = 0.0;
    constexpr std::size_t kCalls = 10000;
    const double us = median_call_us(7, 1, [&] {
      sb::ScopedSpan span(spans, "gp.predict", 0, kCalls);
      for (std::size_t i = 0; i < kCalls; ++i) {
        const std::size_t from = i % (stages - 1);
        const std::size_t to = from + 1 + (i / 7) % (stages - 1 - from);
        sink += entry.curves.predict(from, to, static_cast<double>(i % 101) / 100.0);
      }
    });
    if (sink < 0.0) std::fprintf(stderr, " ");  // keeps the loop observable
    m.emplace_back("gp.predict_ns", us * 1e3 / static_cast<double>(kCalls), "ns");
  }

  // sched: one pick over n runnable tasks with the served curves.
  {
    sb::ScopedSpan probe(spans, "probe.sched");
    eugene::sched::GpUtilityEstimator estimator(entry.curves);
    eugene::sched::GreedyUtilityPolicy policy(estimator, 1);
    policy.set_service_weights({4.0, 1.0});
    for (const std::size_t n : {std::size_t{8}, std::size_t{64}, std::size_t{1024}}) {
      std::vector<std::vector<double>> observed(n);
      std::vector<eugene::sched::TaskView> views(n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t input = i % b.pool.size();
        const std::size_t done = i % stages;
        for (std::size_t s = 0; s < done; ++s)
          observed[i].push_back(b.reference[input][s].confidence);
        views[i].task_id = i;
        views[i].service = i % 2;
        views[i].stages_done = done;
        views[i].total_stages = stages;
        views[i].deadline_ms = i % 2 == 0 ? 40.0 : 500.0;
        views[i].observed_confidence = observed[i];
      }
      const std::size_t reps = n >= 1024 ? 20 : 400;
      const double us = median_call_us(9, reps, [&] {
        sb::ScopedSpan span(spans, "sched.pick", 0, n);
        policy.reset();
        (void)policy.pick(views, 0.0);
      });
      m.emplace_back("sched.pick_us.n" + std::to_string(n), us, "us");
    }
  }

  // serving: infer_batch at full depth per batch size; heap allocations.
  {
    sb::ScopedSpan probe(spans, "probe.serving");
    for (const std::size_t n : {std::size_t{8}, std::size_t{64}, std::size_t{256},
                                std::size_t{1024}}) {
      std::vector<serving::InferenceRequest> requests;
      std::vector<std::size_t> inputs;
      for (std::size_t i = 0; i < n; ++i) {
        requests.push_back({b.pool.samples[i % b.pool.size()], 0});
        inputs.push_back(i % b.pool.size());
      }
      const std::size_t blocks = n >= 1024 ? 2 : n >= 256 ? 3 : 7;
      const std::size_t reps = n == 8 ? 8 : 1;
      CallOutcome last;
      const double us = median_call_us(blocks, reps, [&] {
        sb::ScopedSpan span(spans, "core.infer_batch", 0, n);
        last.responses = b.service->infer_batch(b.handle, requests, full_depth);
      });
      std::vector<Answer> ignored;
      b.settle(last, inputs, std::vector<std::size_t>(n, 0), std::vector<double>(n, 0.0),
               kFullDepthExit, "probe infer_batch", ignored);
      m.emplace_back("serving.us_per_request.n" + std::to_string(n),
                     us / static_cast<double>(n), "us");
    }
    for (const std::size_t n : {std::size_t{1}, std::size_t{1024}}) {
      std::vector<serving::InferenceRequest> requests;
      for (std::size_t i = 0; i < n; ++i)
        requests.push_back({b.pool.samples[i % b.pool.size()], 0});
      (void)b.service->infer_batch(b.handle, requests, full_depth);  // warm
      sb::count_allocations(true);
      (void)b.service->infer_batch(b.handle, requests, full_depth);
      const std::uint64_t allocs = sb::count_allocations(false);
      m.emplace_back("core.heap_allocs_per_request.n" + std::to_string(n),
                     static_cast<double>(allocs) / static_cast<double>(n), "count");
    }
  }

  // registry: one pin.
  {
    sb::ScopedSpan probe(spans, "probe.registry");
    constexpr std::size_t kPins = 10000;
    const double us = median_call_us(7, 1, [&] {
      sb::ScopedSpan span(spans, "serving.registry.pin", 0, kPins);
      for (std::size_t i = 0; i < kPins; ++i) (void)b.service->registry().pin();
    });
    m.emplace_back("serving.registry.pin_ns", us * 1e3 / static_cast<double>(kPins), "ns");
  }
}

// ---- output ----------------------------------------------------------------------

std::string context_json(const Args& args, std::size_t threads) {
  std::string out = "{";
  out += "\"cpu\":" + sb::json_string(cpu_model());
  out += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"gemm_isa\":" +
         sb::json_string(tensor::gemm_isa_name(tensor::active_gemm_isa()));
  out += ",\"build_type\":" + sb::json_string(SERVEBENCH_BUILD_TYPE);
  out += ",\"lock_rank_checks\":" + std::string(EUGENE_LOCK_RANK_CHECKS ? "true" : "false");
  out += ",\"workload\":" + sb::json_string(args.workload);
  out += ",\"seed\":" + std::to_string(args.seed);
  out += ",\"seconds\":" + fmt(args.seconds);
  out += ",\"trace\":" + std::string(args.trace ? "true" : "false");
  out += ",\"threads\":" + std::to_string(threads);
  out += ",\"model_seed\":" + std::to_string(kModelSeed);
  out += "}";
  return out;
}

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value, unit] = metrics[i];
    if (i > 0) out += ", ";
    out += sb::json_string(name) + ": {\"value\": " + fmt(value) +
           ", \"unit\": " + sb::json_string(unit) + "}";
  }
  return out + "}";
}

void print_metrics(const char* title, const Metrics& metrics) {
  std::printf("%s\n", title);
  for (const auto& [name, value, unit] : metrics)
    std::printf("  %-36s %14.6g %s\n", name.c_str(), value, unit.c_str());
}

/// Prints one percentile, or, when fewer than ten samples lie beyond it,
/// says so instead of printing what would only be the sample's tail.
void print_percentile(const std::string& name, double value, std::size_t samples, double p,
                      const char* unit) {
  if (sb::percentile_supported(samples, p))
    std::printf("  %-36s %14.6g %s (%zu samples)\n", name.c_str(), value, unit, samples);
  else
    std::printf("  %-36s %14s (%zu samples, fewer than ten beyond p%g)\n", name.c_str(),
                "not reported", samples, p);
}

/// <name>.p50 and <name>.p99 of `samples`.
void print_percentiles(const std::string& name, std::vector<double> samples, const char* unit) {
  samples = sorted_copy(std::move(samples));
  for (const double p : {50.0, 99.0})
    print_percentile(name + ".p" + std::to_string(static_cast<int>(p)),
                     samples.empty() ? 0.0 : sb::nearest_rank(samples, p), samples.size(), p,
                     unit);
}

int run(const Args& args) {
  eugene::set_log_level(eugene::LogLevel::Error);
  std::filesystem::create_directories(args.out_dir);
  std::unique_ptr<sb::SpanRecorder> recorder;
  if (args.trace) recorder = std::make_unique<sb::SpanRecorder>();

  std::printf("servebench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);

  // -- setups, each followed by one slice of the measured phase -------------------
  // The first setup's service serves every slice; the others only time the
  // setup and prove it deterministic.
  const bool edge = args.workload == "edge-open";
  const double slice_s =
      args.seconds * (edge ? kNominalShare : 1.0) / static_cast<double>(kSetupRepeats);
  std::vector<SetupTimes> setups;
  std::vector<std::uint64_t> fingerprints;
  std::unique_ptr<core::EugeneService> service;
  Bench b;
  b.args = args;
  Counters before;
  WorkloadRun untraced;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    {
      // A repeat's service is gone before its slice runs, so every slice
      // serves (and its resident set holds) the one service.
      auto built = std::make_unique<core::EugeneService>();
      std::size_t handle = 0;
      setups.push_back(build_served_model(*built, handle, recorder.get()));
      const serving::ModelRegistry::ViewPtr view = built->registry().pin();
      const nn::StagedModel& model = view->entry(handle).model;
      fingerprints.push_back(model_fingerprint(model));
      if (r == 0) {
        b.handle = handle;
        b.stages = model.num_stages();
        {
          Rng rng(2 * args.seed + 1);
          sb::ScopedSpan span(recorder.get(), "data.generate_images");
          b.pool = data::generate_images({}, kPoolSize, rng);
        }
        b.reference = build_reference(model, b.pool, recorder.get());
        before = read_counters(*built);
        b.corrupt_pending = !args.corrupt.empty();
        service = std::move(built);
        b.service = service.get();
      }
    }
    append(untraced, run_workload(b, Phase{r, slice_s, r == 0, edge && r + 1 == kSetupRepeats}));
  }
  finish(untraced, args.workload);
  auto median_setup = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return median_of(v);
  };
  for (std::uint64_t f : fingerprints)
    if (f != fingerprints.front())
      b.note_error("setup is not deterministic: repeated setups built different models");

  // -- traced pass, bracketed by a second untraced pass ---------------------------
  WorkloadRun traced, untraced_again;
  if (args.trace) {
    b.spans = recorder.get();
    b.span_offset_us = recorder->now_us() - clock_ms() * 1000.0;
    if (edge) b.arrivals_track = recorder->track("arrivals (queue wait)");
    recorder->name_thread("main");
    b.brownout_gauge =
        &telemetry::MetricsRegistry::global().gauge("serving.brownout.level");
    traced = run_workload(b, Phase{kSetupRepeats, slice_s, false, edge});
    finish(traced, args.workload);
    // The untraced passes before and after the traced one bracket it, so
    // drift over the run does not read as tracing overhead.
    b.spans = nullptr;
    b.brownout_gauge = nullptr;
    untraced_again = run_workload(b, Phase{kSetupRepeats + 1, slice_s, false, false});
    finish(untraced_again, args.workload);
    b.spans = recorder.get();  // the probes below are traced
  }
  const Counters after = read_counters(*service);

  // -- counter cross-checks (part of the gate) ------------------------------------
  auto check_counter = [&](const char* name, std::uint64_t moved, std::size_t seen) {
    if (moved != seen)
      b.note_error(std::string(name) + " moved by " + std::to_string(moved) + " but " +
                   std::to_string(seen) + " responses say so");
  };
  check_counter("serving.requests", after.requests - before.requests, b.gate.sent);
  check_counter("serving.expired", after.expired - before.expired, b.expired_seen);
  check_counter("serving.sheds", after.sheds - before.sheds, b.shed_seen);

  const Summary& s = untraced.summary;
  std::printf("context %s\n", context_json(args, untraced.threads).c_str());
  std::printf("setup (median of %zu): train %.3f s, calibrate %.3f s, profile %.4f s, "
              "ready to serve %.3f s [%zu x %zu epochs, stage-1 loss weight %.0f, "
              "%zu calibration samples x %zu epochs, model seed %llu]\n",
              kSetupRepeats, median_setup(&SetupTimes::train_s),
              median_setup(&SetupTimes::calibrate_s), median_setup(&SetupTimes::profile_s),
              median_setup(&SetupTimes::total_s), kTrainSamples, kTrainEpochs,
              kStage1LossWeight, kCalibSamples, kCalibEpochs,
              static_cast<unsigned long long>(kModelSeed));
  std::printf("%s\n", args.workload.c_str());
  for (const std::string& line : untraced.notes) std::printf("%s\n", line.c_str());

  // The result line carries the same metrics on every workload, so it
  // holds the end-to-end metrics that mean the same thing on all three and
  // are steady from run to run. The rest are printed for the workloads they
  // describe: throughput only for the closed loops (edge-open's arrival rate
  // is the harness's own), on-time share only for edge-open (the closed
  // loops have no deadline), and latency, its tail and the knee, which swing
  // by more than any allowed bound on a shared host (see workloads.json).
  // Degraded/error rates are zero when healthy; any error fails the gate.
  Metrics e2e = {
      {"setup_s", median_setup(&SetupTimes::total_s), "s"},
      {"call_p50_ms", s.call_p50_ms, "ms"},
      {"accuracy", s.accuracy, "share"},
      {"rss_mb", median_of(untraced.rss_mb), "MB"},
  };
  Metrics e2e_printed = {{"latency_p50_ms", s.latency_p50_ms, "ms"}};
  if (edge) {
    e2e_printed.emplace_back("max_rate_rps", untraced.max_rate_rps, "1/s");
    e2e_printed.emplace_back("on_time_rate", s.on_time_rate, "share");
  } else {
    e2e_printed.emplace_back("throughput_rps", s.throughput_rps, "1/s");
  }
  e2e_printed.emplace_back("degraded_rate", s.degraded_rate, "share");
  e2e_printed.emplace_back("error_rate", s.error_rate, "share");
  print_metrics("end-to-end:", e2e);
  print_metrics("end-to-end, not in the result line:", e2e_printed);
  print_percentile("latency_p99_ms", s.latency_p99_ms, s.latency_samples, 99.0, "ms");
  std::printf("  samples: %zu requests in %zu calls; latency percentiles over %s\n", s.sent,
              s.calls, edge ? "requests, from their due times" : "calls");
  {
    // Latency is a mixture over exit stages; show each component.
    std::vector<std::vector<double>> by_exit(b.stages + 1);
    for (const Answer& a : untraced.answers)
      if (!a.error) by_exit[a.stages].push_back(a.latency_ms);
    std::printf("  by exit stage:");
    for (std::size_t st = 1; st <= b.stages; ++st)
      std::printf("  s%zu %.1f%% p50 %.4f ms", st,
                  100.0 * static_cast<double>(by_exit[st].size()) /
                      static_cast<double>(std::max<std::size_t>(s.sent, 1)),
                  median_of(by_exit[st]));
    std::printf("\n");
  }

  Metrics layers;
  if (args.trace) {
    const Summary& t = traced.summary;
    layers.emplace_back("serving.latency_p50_ms", s.latency_p50_ms, "ms");
    layers.emplace_back("serving.max_rate_rps", untraced.max_rate_rps, "1/s");
    layers.emplace_back("setup.train_s", median_setup(&SetupTimes::train_s), "s");
    layers.emplace_back("setup.calibrate_s", median_setup(&SetupTimes::calibrate_s), "s");
    layers.emplace_back("setup.profile_s", median_setup(&SetupTimes::profile_s), "s");

    std::vector<double> exit_count(b.stages + 1, 0.0);
    double answered = 0.0, stages_sum = 0.0, expired_n = 0.0, shed_n = 0.0;
    for (const Answer& a : traced.answers) {
      if (a.error) continue;
      answered += 1.0;
      exit_count[a.stages] += 1.0;
      stages_sum += static_cast<double>(a.stages);
      expired_n += a.expired ? 1.0 : 0.0;
      shed_n += a.shed ? 1.0 : 0.0;
    }
    for (std::size_t st = 1; st <= b.stages; ++st)
      layers.emplace_back("nn.exit_share.s" + std::to_string(st),
                          answered > 0 ? exit_count[st] / answered : 0.0, "share");
    layers.emplace_back("sched.stages_per_request",
                        answered > 0 ? stages_sum / answered : 0.0, "stages");
    layers.emplace_back("serving.batch_size.mean", mean_of(traced.batch_sizes), "requests");
    layers.emplace_back(
        "serving.batch_size.max",
        traced.batch_sizes.empty()
            ? 0.0
            : *std::max_element(traced.batch_sizes.begin(), traced.batch_sizes.end()),
        "requests");
    const double sent_n = static_cast<double>(std::max<std::size_t>(t.sent, 1));
    layers.emplace_back("serving.shed_rate", shed_n / sent_n, "share");
    layers.emplace_back("serving.expired_rate", expired_n / sent_n, "share");
    layers.emplace_back("serving.brownout_level.max",
                        std::max(b.brownout_max, after.brownout_level), "level");

    probe_layers(b, layers);

    const double untraced_p50 =
        (s.call_p50_ms + untraced_again.summary.call_p50_ms) / 2.0;
    const double overhead = untraced_p50 > 0.0 ? t.call_p50_ms / untraced_p50 - 1.0 : 0.0;
    layers.emplace_back("trace.overhead_share", overhead, "share");

    std::sort(layers.begin(), layers.end());
    print_metrics("per-layer (traced run):", layers);
    std::printf("  tracing overhead: call_p50_ms traced %.4f vs untraced %.4f and %.4f "
                "before and after it (%+.2f%%)\n",
                t.call_p50_ms, s.call_p50_ms, untraced_again.summary.call_p50_ms,
                100.0 * overhead);

    // Figures only this workload has; the result line carries the same
    // metrics on every workload, so these are printed only.
    std::printf("per-layer, %s only (not in the result line):\n", args.workload.c_str());
    if (edge) {
      std::vector<double> queue;
      for (const Answer& a : traced.answers) queue.push_back(a.queue_ms);
      print_percentiles("serving.queue_wait_ms", queue, "ms");
    }
    if (edge || args.workload == "ops-swap")
      print_percentile("serving.latency_p99_ms", s.latency_p99_ms, s.latency_samples, 99.0,
                       "ms");
    if (args.workload == "ops-swap") {
      // Operator rounds from every pass of the workload: one pass is too
      // short for a median, and the rounds are timed the same way in each.
      std::vector<double> swap_ms, snapshot_ms;
      for (const WorkloadRun* run : {&untraced, &traced, &untraced_again}) {
        swap_ms.insert(swap_ms.end(), run->swap_ms.begin(), run->swap_ms.end());
        snapshot_ms.insert(snapshot_ms.end(), run->snapshot_ms.begin(),
                           run->snapshot_ms.end());
      }
      print_percentiles("serving.registry.swap_ms", swap_ms, "ms");
      print_percentiles("serving.snapshot.save_ms", snapshot_ms, "ms");
    }
    if (!edge && args.workload != "ops-swap") std::printf("  (none)\n");

    // -- trace export ------------------------------------------------------------
    const std::vector<sb::Span> all = recorder->spans();
    const std::vector<sb::SelfTimeRow> rows = sb::self_times(all);
    std::string other = "{\"context\":" + context_json(args, traced.threads) +
                        ",\"self_time\":[";
    std::printf("self time by span (traced run):\n");
    std::printf("  %-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const sb::SelfTimeRow& r = rows[i];
      std::printf("  %-28s %8zu %12.3f %12.3f\n", r.name.c_str(), r.count, r.total_ms,
                  r.self_ms);
      if (i > 0) other += ",";
      other += "{\"name\":" + sb::json_string(r.name) + ",\"count\":" +
               std::to_string(r.count) + ",\"total_ms\":" + fmt(r.total_ms) +
               ",\"self_ms\":" + fmt(r.self_ms) + "}";
    }
    other += "],\"tracing_overhead\":{\"metric\":\"latency_p50_ms\",\"untraced\":" +
             fmt(untraced_p50) + ",\"traced\":" + fmt(t.latency_p50_ms) +
             ",\"share\":" + fmt(overhead) + "}}";
    const std::string path = args.out_dir + "/trace-" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".json";
    std::ofstream file(path);
    file << sb::chrome_trace_json(all, recorder->thread_names(), other);
    std::printf("trace: %zu spans written to %s\n", all.size(), path.c_str());
  }

  const bool correct = b.gate.clean() && b.check_failures.empty();
  if (!correct) {
    std::printf("correctness gate FAILED: %zu of %zu requests, %zu other checks\n",
                b.gate.errors, b.gate.sent, b.check_failures.size());
    for (const std::string& e : b.gate.first_errors) std::printf("  %s\n", e.c_str());
    for (const std::string& e : b.check_failures) std::printf("  %s\n", e.c_str());
  } else {
    std::printf("correctness gate: %zu requests checked, all match the per-sample "
                "reference\n",
                b.gate.sent);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", b.gate.sent, b.gate.errors,
              metrics_json(args.trace ? layers : e2e).c_str());
  std::fflush(stdout);
  return correct ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload edge-open|bulk-full|ops-swap --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR] "
                 "[--corrupt flip-label|drop-response]\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
}
