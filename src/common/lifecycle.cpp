#include "common/lifecycle.hpp"

#include "common/clock.hpp"
#include "common/failpoint.hpp"
#include "common/metrics.hpp"

namespace eugene {

const char* server_state_name(ServerState state) {
  switch (state) {
    case ServerState::kStarting: return "starting";
    case ServerState::kServing: return "serving";
    case ServerState::kDraining: return "draining";
    case ServerState::kStopped: return "stopped";
  }
  return "?";
}

ServerLifecycle::ServerLifecycle(telemetry::Gauge* state_gauge)
    : state_gauge_(state_gauge) {
  if (state_gauge_ != nullptr)
    state_gauge_->set(static_cast<double>(ServerState::kStarting));
}

void ServerLifecycle::set_state(ServerState state) {
  state_ = state;
  if (state_gauge_ != nullptr) state_gauge_->set(static_cast<double>(state));
}

bool ServerLifecycle::try_admit(std::size_t units) {
  MutexLock lock(mutex_);
  switch (state_) {
    case ServerState::kStarting:
      set_state(ServerState::kServing);  // first admission marks the process live
      [[fallthrough]];
    case ServerState::kServing:
      inflight_ += units;
      return true;
    case ServerState::kDraining:
    case ServerState::kStopped:
      return false;
  }
  return false;
}

void ServerLifecycle::finish(std::size_t units) {
  bool drained = false;
  {
    MutexLock lock(mutex_);
    EUGENE_CHECK_GE(inflight_, units) << "ServerLifecycle::finish without admit";
    inflight_ -= units;
    drained = inflight_ == 0;
  }
  // Notify outside the lock so the woken drainer never blocks on mutex_.
  if (drained) drained_cv_.notify_all();
}

void ServerLifecycle::set_serving() {
  MutexLock lock(mutex_);
  if (state_ == ServerState::kStarting) set_state(ServerState::kServing);
}

DrainReport ServerLifecycle::begin_drain(double timeout_ms) {
  Stopwatch watch;
  DrainReport report;
  {
    MutexLock lock(mutex_);
    if (state_ == ServerState::kStopped) {
      report.completed = true;
      return report;
    }
    set_state(ServerState::kDraining);  // Starting/Serving/Draining all land here
    report.inflight_at_begin = inflight_;
  }
  // Chaos seam: a drain that stalls (delay) or dies (error) before the wait.
  // Fired outside the mutex — a hung drain must never wedge try_admit/finish.
  EUGENE_FAILPOINT("lifecycle.drain.hang");
  {
    MutexLock lock(mutex_);
    report.completed = drained_cv_.wait_for(
        mutex_, timeout_ms, [this]() EUGENE_REQUIRES(mutex_) { return inflight_ == 0; });
    report.inflight_abandoned = inflight_;
  }
  report.duration_ms = watch.elapsed_ms();
  return report;
}

void ServerLifecycle::set_stopped() {
  MutexLock lock(mutex_);
  set_state(ServerState::kStopped);
}

ServerState ServerLifecycle::state() const {
  MutexLock lock(mutex_);
  return state_;
}

std::size_t ServerLifecycle::inflight() const {
  MutexLock lock(mutex_);
  return inflight_;
}

}  // namespace eugene
