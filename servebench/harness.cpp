#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <random>
#include <utility>

namespace servebench {

// ---- percentiles -----------------------------------------------------------

namespace {

std::size_t rank_of(std::size_t n, double p) {
  // 1-based nearest rank; the small epsilon keeps exact products such as
  // 0.99 · 1000 from rounding up to the next rank.
  const double exact = p / 100.0 * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double nearest_rank(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[rank_of(sorted.size(), p) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - rank_of(n, p);
}

bool percentile_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= 10;
}

// ---- open-loop arrivals ----------------------------------------------------

std::vector<Arrival> poisson_schedule(std::span<const double> class_rates_per_s,
                                      double duration_ms, std::size_t pool_size,
                                      std::uint64_t seed) {
  std::vector<Arrival> out;
  for (std::size_t c = 0; c < class_rates_per_s.size(); ++c) {
    const double rate_per_ms = class_rates_per_s[c] / 1000.0;
    if (rate_per_ms <= 0.0) continue;
    std::mt19937_64 engine(seed * 0x9E3779B97F4A7C15ULL + c + 1);
    std::exponential_distribution<double> gap(rate_per_ms);
    std::uniform_int_distribution<std::size_t> pick(0, pool_size - 1);
    for (double t = gap(engine); t < duration_ms; t += gap(engine))
      out.push_back({t, c, pick(engine)});
  }
  std::stable_sort(out.begin(), out.end(), [](const Arrival& a, const Arrival& b) {
    return a.due_ms < b.due_ms;
  });
  return out;
}

// ---- load ladder -----------------------------------------------------------

bool backlog_grows(std::span<const double> queue_wait_ms) {
  const std::size_t quarter = queue_wait_ms.size() / 4;
  if (quarter == 0) return false;
  auto median_of = [](std::span<const double> part) {
    std::vector<double> sorted(part.begin(), part.end());
    std::sort(sorted.begin(), sorted.end());
    return nearest_rank(sorted, 50.0);
  };
  const double first = median_of(queue_wait_ms.first(quarter));
  const double last = median_of(queue_wait_ms.last(quarter));
  return last - first > kBacklogGrowthMs;
}

bool rung_passes(const RungObservation& rung, std::span<const double> deadlines_ms) {
  if (rung.aborted) return false;
  for (std::size_t c = 0; c < rung.latency_ms.size(); ++c) {
    if (rung.latency_ms[c].empty()) continue;
    std::vector<double> sorted = rung.latency_ms[c];
    std::sort(sorted.begin(), sorted.end());
    const double deadline =
        c < deadlines_ms.size() ? deadlines_ms[c] : deadlines_ms.back();
    if (nearest_rank(sorted, 99.0) > deadline) return false;
  }
  return !backlog_grows(rung.queue_wait_ms);
}

int highest_passing_rung(std::span<const RungObservation> rungs,
                         std::span<const double> deadlines_ms) {
  int best = -1;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    if (!rung_passes(rungs[i], deadlines_ms)) break;
    best = static_cast<int>(i);
  }
  return best;
}

// ---- correctness gate --------------------------------------------------------

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kOk: return "ok";
    case Verdict::kThrew: return "threw";
    case Verdict::kMissing: return "missing-response";
    case Verdict::kDraining: return "draining";
    case Verdict::kNoSpan: return "no-span";
    case Verdict::kBadStages: return "bad-stages";
    case Verdict::kMismatch: return "reference-mismatch";
    case Verdict::kEarlyExitBroken: return "early-exit-broken";
  }
  return "unknown";
}

namespace {

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

Verdict check_one(const std::vector<StageRef>& chain,
                  const eugene::serving::InferenceResponse& r,
                  double early_exit_confidence) {
  if (r.draining) return Verdict::kDraining;
  if (r.span_id == 0) return Verdict::kNoSpan;
  const std::size_t stages = chain.size();
  if (r.stages_run > stages) return Verdict::kBadStages;
  if (r.stages_run == 0) {
    // Only a deadline or a shed may leave a request without any stage.
    if (!r.expired && !r.degraded) return Verdict::kBadStages;
    return r.label == 0 && same_bits(r.confidence, 0.0) ? Verdict::kOk
                                                         : Verdict::kMismatch;
  }
  const StageRef& at = chain[r.stages_run - 1];
  if (r.label != at.label || !same_bits(r.confidence, static_cast<double>(at.confidence)))
    return Verdict::kMismatch;
  if (r.degraded) return Verdict::kOk;  // a shed answer stops at its own bar
  // No stage before the last may have cleared the exit bar, and a request
  // that was neither cut by its deadline nor run to the end must have.
  for (std::size_t s = 0; s + 1 < r.stages_run; ++s)
    if (static_cast<double>(chain[s].confidence) >= early_exit_confidence)
      return Verdict::kEarlyExitBroken;
  if (!r.expired && r.stages_run < stages &&
      static_cast<double>(at.confidence) < early_exit_confidence)
    return Verdict::kEarlyExitBroken;
  return Verdict::kOk;
}

}  // namespace

void check_call(const Reference& reference, std::span<const std::size_t> inputs,
                const std::vector<eugene::serving::InferenceResponse>* responses,
                double early_exit_confidence, std::vector<Verdict>& out) {
  if (responses == nullptr) {
    out.insert(out.end(), inputs.size(), Verdict::kThrew);
    return;
  }
  if (responses->size() != inputs.size()) {
    // Without exactly one response per request no answer can be trusted to
    // belong to its request.
    out.insert(out.end(), inputs.size(), Verdict::kMissing);
    return;
  }
  for (std::size_t i = 0; i < inputs.size(); ++i)
    out.push_back(check_one(reference.at(inputs[i]), (*responses)[i],
                            early_exit_confidence));
}

void GateTally::add(std::span<const Verdict> verdicts, const std::string& where) {
  sent += verdicts.size();
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    if (verdicts[i] == Verdict::kOk) continue;
    ++errors;
    if (first_errors.size() < 5)
      first_errors.push_back(where + " request " + std::to_string(i) + ": " +
                             verdict_name(verdicts[i]));
  }
}

// ---- spans -------------------------------------------------------------------

namespace {

double steady_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::atomic<std::uint64_t> g_next_serial{1};

// Open spans of the calling thread and its track numbers, keyed by the
// recorder's serial (an address could be reused by a later recorder).
thread_local std::vector<std::pair<std::uint64_t, std::uint32_t>> t_open;
thread_local std::map<std::uint64_t, std::uint32_t> t_number;

}  // namespace

SpanRecorder::SpanRecorder()
    : serial_(g_next_serial.fetch_add(1)), origin_us_(steady_us()) {}

double SpanRecorder::now_us() const { return steady_us() - origin_us_; }

std::uint32_t SpanRecorder::thread_number() {
  auto it = t_number.find(serial_);
  if (it != t_number.end()) return it->second;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto number = static_cast<std::uint32_t>(thread_names_.size() + 1);
  thread_names_.push_back("thread-" + std::to_string(number));
  t_number[serial_] = number;
  return number;
}

std::uint32_t SpanRecorder::open_parent() {
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it)
    if (it->first == serial_) return it->second;
  return 0;
}

void SpanRecorder::name_thread(const std::string& name) {
  const std::uint32_t number = thread_number();
  std::lock_guard<std::mutex> lock(mutex_);
  thread_names_[number - 1] = name;
}

std::uint32_t SpanRecorder::begin(const char* name, std::uint64_t request,
                                  std::uint64_t count) {
  const std::uint32_t thread = thread_number();
  const std::uint32_t parent = open_parent();
  Span span;
  span.name = name;
  span.parent = parent;
  span.thread = thread;
  span.request = request;
  span.count = count;
  std::uint32_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<std::uint32_t>(spans_.size() + 1);
    span.id = id;
    span.start_us = now_us();
    spans_.push_back(span);
  }
  t_open.emplace_back(serial_, id);
  return id;
}

void SpanRecorder::end(std::uint32_t id) {
  const double t = now_us();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end_us = t;
  }
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it) {
    if (it->first == serial_ && it->second == id) {
      t_open.erase(std::next(it).base());
      break;
    }
  }
}

std::uint32_t SpanRecorder::track(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  thread_names_.push_back(name);
  return static_cast<std::uint32_t>(thread_names_.size());
}

void SpanRecorder::add(const char* name, double start_us, double end_us,
                       std::uint64_t request, std::uint64_t count,
                       std::uint32_t on_track) {
  const std::uint32_t thread = on_track != 0 ? on_track : thread_number();
  const std::uint32_t parent = on_track != 0 ? 0 : open_parent();
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = name;
  span.start_us = start_us;
  span.end_us = end_us;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.thread = thread;
  span.request = request;
  span.count = count;
  spans_.push_back(span);
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {spans_.begin(), spans_.end()};
}

std::vector<std::string> SpanRecorder::thread_names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return thread_names_;
}

std::vector<SelfTimeRow> self_times(std::span<const Span> spans) {
  // Children's intervals per parent, clipped to the parent and merged so
  // overlapping children are not subtracted twice.
  std::vector<std::vector<std::pair<double, double>>> children(spans.size() + 1);
  for (const Span& s : spans)
    if (s.parent != 0 && s.parent <= spans.size() && s.end_us >= s.start_us)
      children[s.parent].emplace_back(s.start_us, s.end_us);

  std::map<std::string, SelfTimeRow> rows;
  for (const Span& s : spans) {
    if (s.end_us < s.start_us) continue;  // never closed
    double covered = 0.0;
    auto& kids = children[s.id];
    std::sort(kids.begin(), kids.end());
    double cur_start = 0.0, cur_end = -1.0;
    for (auto [a, b] : kids) {
      a = std::max(a, s.start_us);
      b = std::min(b, s.end_us);
      if (b <= a) continue;
      if (a > cur_end) {
        if (cur_end > cur_start) covered += cur_end - cur_start;
        cur_start = a;
        cur_end = b;
      } else {
        cur_end = std::max(cur_end, b);
      }
    }
    if (cur_end > cur_start) covered += cur_end - cur_start;
    SelfTimeRow& row = rows[s.name];
    row.name = s.name;
    ++row.count;
    row.total_ms += (s.end_us - s.start_us) / 1000.0;
    row.self_ms += (s.end_us - s.start_us - covered) / 1000.0;
  }
  std::vector<SelfTimeRow> out;
  out.reserve(rows.size());
  for (auto& [name, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(), [](const SelfTimeRow& a, const SelfTimeRow& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char ch : text) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

std::string chrome_trace_json(std::span<const Span> spans,
                              std::span<const std::string> thread_names,
                              const std::string& other_data_json) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  char buf[256];
  for (std::size_t t = 0; t < thread_names.size(); ++t) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(t + 1) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":" +
           json_string(thread_names[t]) + "}}";
  }
  for (const Span& s : spans) {
    if (s.end_us < s.start_us) continue;
    if (!first) out += ",\n";
    first = false;
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,",
                  s.thread, s.start_us, s.end_us - s.start_us);
    out += buf;
    out += "\"name\":" + json_string(name) + ",\"cat\":" + json_string(layer);
    std::snprintf(buf, sizeof buf,
                  ",\"args\":{\"id\":%u,\"parent\":%u,\"request\":%llu,\"count\":%llu}}",
                  s.id, s.parent, static_cast<unsigned long long>(s.request),
                  static_cast<unsigned long long>(s.count));
    out += buf;
  }
  out += "\n],\"otherData\":" + other_data_json + "}\n";
  return out;
}

}  // namespace servebench
