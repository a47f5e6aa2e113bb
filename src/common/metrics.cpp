#include "common/metrics.hpp"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <vector>

#include "common/error.hpp"

namespace eugene::telemetry {

namespace {

void require_clean_name(std::string_view name) {
  EUGENE_REQUIRE(!name.empty(), "metrics: empty instrument name");
  for (char c : name)
    EUGENE_REQUIRE(std::isspace(static_cast<unsigned char>(c)) == 0,
                   "metrics: instrument name contains whitespace");
}

/// Shortest decimal form that parses back to the same double.
std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

MetricsRegistry& MetricsRegistry::global() {
  // Leaked on purpose: counters are bumped from worker threads and
  // atexit-ordered statics during shutdown, after local statics would have
  // been destroyed (same reasoning as the lock-rank TLS aggregate).
  static MetricsRegistry* registry = new MetricsRegistry();  // NOLINT-new: intentional leak, see above
  return *registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  require_clean_name(name);
  MutexLock lock(mutex_);
  for (auto& [n, c] : counters_)
    if (n == name) return c;
  counters_.emplace_back(std::piecewise_construct,
                         std::forward_as_tuple(name), std::forward_as_tuple());
  return counters_.back().second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  require_clean_name(name);
  MutexLock lock(mutex_);
  for (auto& [n, g] : gauges_)
    if (n == name) return g;
  gauges_.emplace_back(std::piecewise_construct, std::forward_as_tuple(name),
                       std::forward_as_tuple());
  return gauges_.back().second;
}

LatencyHistogram& MetricsRegistry::histogram(std::string_view name) {
  require_clean_name(name);
  MutexLock lock(mutex_);
  for (auto& [n, h] : histograms_)
    if (n == name) return h;
  histograms_.emplace_back(std::piecewise_construct,
                           std::forward_as_tuple(name),
                           std::forward_as_tuple());
  return histograms_.back().second;
}

std::string MetricsRegistry::snapshot_text() const {
  // Collect name→line under the lock, emit sorted for a deterministic dump.
  std::vector<std::pair<std::string, std::string>> lines;
  {
    MutexLock lock(mutex_);
    for (const auto& [name, c] : counters_)
      lines.emplace_back(name,
                         "counter " + name + " " + std::to_string(c.value()));
    for (const auto& [name, g] : gauges_)
      lines.emplace_back(name, "gauge " + name + " " + fmt_double(g.value()));
    for (const auto& [name, h] : histograms_) {
      std::string line = "histogram " + name;
      line += " count " + std::to_string(h.count());
      line += " p50 " + fmt_double(h.quantile(0.50));
      line += " p99 " + fmt_double(h.quantile(0.99));
      line += " buckets ";
      bool any = false;
      for (std::size_t s = 0; s < LatencyHistogram::kSlots; ++s) {
        const std::uint64_t n = h.bucket_count(s);
        if (n == 0) continue;
        if (any) line += ",";
        line += std::to_string(s) + ":" + std::to_string(n);
        any = true;
      }
      if (!any) line += "-";
      lines.emplace_back(name, std::move(line));
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out = "# eugene-metrics v1\n";
  for (auto& [name, line] : lines) {
    out += line;
    out += "\n";
  }
  return out;
}

void MetricsRegistry::reset() {
  MutexLock lock(mutex_);
  for (auto& [n, c] : counters_) c.reset();
  for (auto& [n, g] : gauges_) g.set(0.0);
  for (auto& [n, h] : histograms_) h.reset();
}

namespace {

[[noreturn]] void bad_dump(const std::string& why, const std::string& line) {
  throw CorruptionError("parse_metrics_text: " + why +
                        (line.empty() ? "" : " in line: " + line));
}

std::uint64_t parse_u64(const std::string& tok, const std::string& line) {
  // snapshot_text() writes bare digits; stoull alone would also take a sign,
  // and wrap "-1" to 2^64 - 1.
  if (tok.empty() || std::isdigit(static_cast<unsigned char>(tok[0])) == 0)
    bad_dump("malformed integer '" + tok + "'", line);
  std::uint64_t v = 0;
  std::size_t pos = 0;
  try {
    v = std::stoull(tok, &pos);
  } catch (const std::exception&) {
    bad_dump("malformed integer '" + tok + "'", line);
  }
  if (pos != tok.size()) bad_dump("malformed integer '" + tok + "'", line);
  return v;
}

double parse_f64(const std::string& tok, const std::string& line) {
  double v = 0.0;
  std::size_t pos = 0;
  try {
    v = std::stod(tok, &pos);
  } catch (const std::exception&) {
    bad_dump("malformed number '" + tok + "'", line);
  }
  if (pos != tok.size()) bad_dump("malformed number '" + tok + "'", line);
  return v;
}

/// Expects `label` as the next token and returns the token after it.
std::string expect_field(std::istringstream& in, const char* label,
                         const std::string& line) {
  std::string tok;
  if (!(in >> tok) || tok != label)
    bad_dump(std::string("expected '") + label + "' field", line);
  std::string value;
  if (!(in >> value))
    bad_dump(std::string("missing value after '") + label + "'", line);
  return value;
}

/// Adds one instrument; a name appears at most once per instrument type.
template <typename V>
void put_once(std::map<std::string, V>& into, const std::string& name, V value,
              const std::string& line) {
  if (!into.emplace(name, std::move(value)).second)
    bad_dump("duplicate name '" + name + "'", line);
}

}  // namespace

MetricsSnapshot parse_metrics_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "# eugene-metrics v1")
    bad_dump("missing '# eugene-metrics v1' header", line);

  MetricsSnapshot snap;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string type;
    std::string name;
    if (!(fields >> type >> name)) bad_dump("truncated line", line);
    if (type == "counter") {
      std::string value;
      if (!(fields >> value)) bad_dump("counter missing value", line);
      put_once(snap.counters, name, parse_u64(value, line), line);
    } else if (type == "gauge") {
      std::string value;
      if (!(fields >> value)) bad_dump("gauge missing value", line);
      put_once(snap.gauges, name, parse_f64(value, line), line);
    } else if (type == "histogram") {
      MetricsSnapshot::Histogram h;
      h.count = parse_u64(expect_field(fields, "count", line), line);
      h.p50 = parse_f64(expect_field(fields, "p50", line), line);
      h.p99 = parse_f64(expect_field(fields, "p99", line), line);
      const std::string buckets = expect_field(fields, "buckets", line);
      if (buckets != "-") {
        std::istringstream pairs(buckets);
        std::string pair;
        std::uint64_t total = 0;
        while (std::getline(pairs, pair, ',')) {
          const std::size_t colon = pair.find(':');
          if (colon == std::string::npos || colon == 0 ||
              colon + 1 >= pair.size())
            bad_dump("malformed bucket pair '" + pair + "'", line);
          const std::size_t slot =
              parse_u64(pair.substr(0, colon), line);
          if (slot >= LatencyHistogram::kSlots)
            bad_dump("bucket slot out of range '" + pair + "'", line);
          const std::uint64_t count =
              parse_u64(pair.substr(colon + 1), line);
          if (count == 0) bad_dump("empty bucket listed '" + pair + "'", line);
          if (h.buckets.count(slot) != 0)
            bad_dump("duplicate bucket slot '" + pair + "'", line);
          h.buckets[slot] = count;
          total += count;
        }
        if (total != h.count)
          bad_dump("bucket counts do not sum to 'count'", line);
      } else if (h.count != 0) {
        bad_dump("non-zero count with no buckets", line);
      }
      put_once(snap.histograms, name, std::move(h), line);
    } else {
      bad_dump("unknown line type '" + type + "'", line);
    }
    std::string extra;
    if (fields >> extra) bad_dump("trailing field '" + extra + "'", line);
  }
  return snap;
}

}  // namespace eugene::telemetry
