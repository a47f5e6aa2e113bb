#include "common/failpoint.hpp"

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <thread>

namespace eugene {
namespace {

/// Splits `s` on `sep`, dropping empty pieces.
std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    const std::string piece =
        s.substr(start, end == std::string::npos ? std::string::npos : end - start);
    if (!piece.empty()) out.push_back(piece);
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return out;
}

double parse_double(const std::string& s, const std::string& clause) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    EUGENE_REQUIRE(pos == s.size(), "failpoint spec: trailing junk in '" + clause + "'");
    return v;
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    throw InvalidArgument("failpoint spec: bad number in '" + clause + "'");
  }
}

/// A decimal integer in range for T (a '-' only when T is signed): no
/// fraction, exponent, '+' or trailing junk, and never cast through a double.
template <typename T>
T parse_integer(const std::string& s, const std::string& clause) {
  T v{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  EUGENE_REQUIRE(ec == std::errc() && end == s.data() + s.size(),
                 "failpoint spec: bad integer in '" + clause + "'");
  return v;
}

/// sleep_for casts a delay to integer nanoseconds; a longer one overflows.
constexpr double kMaxDelayMs =
    static_cast<double>(std::chrono::nanoseconds::max().count()) / 1e6;

}  // namespace

FailpointRegistry& FailpointRegistry::instance() {
  static FailpointRegistry* registry = [] {
    auto* r = new FailpointRegistry();  // NOLINT-new: intentionally leaked singleton
    r->arm_from_env();
    return r;
  }();
  return *registry;
}

namespace detail {
// The EUGENE_FAILPOINT fast path reads g_failpoints_armed without ever
// constructing the registry, so env-armed chaos would otherwise never take
// effect in a process that only *hosts* failpoints. Force the registry (and
// its arm_from_env) into existence at startup when the variable is set.
const bool g_env_probe = [] {
  if (const char* v = std::getenv("EUGENE_FAILPOINTS"); v != nullptr && *v != '\0')
    FailpointRegistry::instance();
  return true;
}();
}  // namespace detail

void FailpointRegistry::arm(const std::string& name, FailpointSpec spec) {
  EUGENE_REQUIRE(!name.empty(), "failpoint: empty name");
  EUGENE_REQUIRE(spec.probability >= 0.0 && spec.probability <= 1.0,
                 "failpoint '" + name + "': probability outside [0,1]");
  EUGENE_REQUIRE(spec.delay_ms >= 0.0 && spec.delay_ms < kMaxDelayMs,
                 "failpoint '" + name + "': delay not in [0, nanoseconds::max())");
  MutexLock lock(mutex_);
  for (Armed& a : armed_) {
    if (a.name == name) {
      a.spec = spec;
      a.fires = 0;
      a.rng = Rng(spec.seed);
      return;
    }
  }
  Armed a;
  a.name = name;
  a.spec = spec;
  a.rng = Rng(spec.seed);
  armed_.push_back(std::move(a));
  detail::g_failpoints_armed.store(static_cast<int>(armed_.size()),
                                   std::memory_order_relaxed);
}

void FailpointRegistry::disarm(const std::string& name) {
  MutexLock lock(mutex_);
  for (std::size_t i = 0; i < armed_.size(); ++i) {
    if (armed_[i].name == name) {
      armed_.erase(armed_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  detail::g_failpoints_armed.store(static_cast<int>(armed_.size()),
                                   std::memory_order_relaxed);
}

void FailpointRegistry::disarm_all() {
  MutexLock lock(mutex_);
  armed_.clear();
  detail::g_failpoints_armed.store(0, std::memory_order_relaxed);
}

std::size_t FailpointRegistry::armed() const {
  MutexLock lock(mutex_);
  return armed_.size();
}

std::size_t FailpointRegistry::fires(const std::string& name) const {
  MutexLock lock(mutex_);
  for (const Armed& a : armed_)
    if (a.name == name) return a.fires;
  return 0;
}

std::size_t FailpointRegistry::arm_from_string(const std::string& spec) {
  std::size_t count = 0;
  for (const std::string& clause : split(spec, ',')) {
    const std::size_t eq = clause.find('=');
    EUGENE_REQUIRE(eq != std::string::npos && eq > 0,
                   "failpoint spec: expected name=kind in '" + clause + "'");
    const std::string name = clause.substr(0, eq);
    const std::vector<std::string> parts = split(clause.substr(eq + 1), ':');
    EUGENE_REQUIRE(!parts.empty(), "failpoint spec: missing kind in '" + clause + "'");

    FailpointSpec s;
    if (parts[0] == "error") {
      s.kind = FailpointKind::kError;
    } else if (parts[0] == "delay") {
      s.kind = FailpointKind::kDelay;
    } else {
      throw InvalidArgument("failpoint spec: unknown kind '" + parts[0] + "' in '" +
                            clause + "' (expected error or delay)");
    }
    for (std::size_t i = 1; i < parts.size(); ++i) {
      const std::size_t peq = parts[i].find('=');
      EUGENE_REQUIRE(peq != std::string::npos,
                     "failpoint spec: expected key=value in '" + clause + "'");
      const std::string key = parts[i].substr(0, peq);
      const std::string value = parts[i].substr(peq + 1);
      if (key == "p") {
        s.probability = parse_double(value, clause);
      } else if (key == "count") {
        s.max_fires = parse_integer<std::int64_t>(value, clause);
      } else if (key == "ms") {
        s.delay_ms = parse_double(value, clause);
      } else if (key == "seed") {
        s.seed = parse_integer<std::uint64_t>(value, clause);
      } else {
        throw InvalidArgument("failpoint spec: unknown key '" + key + "' in '" +
                              clause + "'");
      }
    }
    arm(name, s);
    ++count;
  }
  return count;
}

std::size_t FailpointRegistry::arm_from_env(const char* var) {
  const char* value = std::getenv(var);
  if (value == nullptr || *value == '\0') return 0;
  return arm_from_string(value);
}

FailpointRegistry::Armed* FailpointRegistry::find_locked(const char* name) {
  for (Armed& a : armed_)
    if (a.name == name) return &a;
  return nullptr;
}

bool FailpointRegistry::draw_locked(Armed& a) {
  if (a.spec.max_fires >= 0 &&
      a.fires >= static_cast<std::size_t>(a.spec.max_fires))
    return false;
  if (a.spec.probability < 1.0 && !a.rng.bernoulli(a.spec.probability))
    return false;
  ++a.fires;
  return true;
}

void FailpointRegistry::evaluate(const char* name) {
  FailpointKind kind = FailpointKind::kError;
  double delay_ms = 0.0;
  {
    MutexLock lock(mutex_);
    Armed* a = find_locked(name);
    if (a == nullptr || !draw_locked(*a)) return;
    kind = a->spec.kind;
    delay_ms = a->spec.delay_ms;
  }
  // Act outside the lock so a sleeping failpoint never blocks arming,
  // disarming, or other sites.
  if (kind == FailpointKind::kDelay) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(delay_ms));
    return;
  }
  throw FailpointError(std::string("injected failure at failpoint '") + name + "'");
}

bool FailpointRegistry::should_fire(const char* name) {
  MutexLock lock(mutex_);
  Armed* a = find_locked(name);
  return a != nullptr && draw_locked(*a);
}

}  // namespace eugene
