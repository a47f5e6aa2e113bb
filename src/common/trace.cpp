#include "common/trace.hpp"

#include "common/check.hpp"

namespace eugene::telemetry {

const char* trace_event_kind_name(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kAdmit: return "admit";
    case TraceEventKind::kBrownout: return "brownout";
    case TraceEventKind::kShed: return "shed";
    case TraceEventKind::kStageDone: return "stage_done";
    case TraceEventKind::kStageError: return "stage_error";
    case TraceEventKind::kRetry: return "retry";
    case TraceEventKind::kExpire: return "expire";
    case TraceEventKind::kDegrade: return "degrade";
    case TraceEventKind::kExit: return "exit";
    case TraceEventKind::kDrain: return "drain";
    case TraceEventKind::kSwap: return "swap";
  }
  return "?";
}

TraceRecorder::TraceRecorder(std::size_t capacity) : capacity_(capacity) {
  EUGENE_REQUIRE(capacity > 0, "TraceRecorder: capacity must be positive");
  ring_.resize(capacity_);
}

SpanHandle TraceRecorder::begin_span(double t_ms, std::uint32_t service_class) {
  std::uint64_t id = 0;
  {
    MutexLock lock(mutex_);
    id = next_span_++;
  }
  SpanHandle handle(this, id);
  handle.event(TraceEventKind::kAdmit, t_ms, 0, 0,
               static_cast<double>(service_class));
  return handle;
}

void TraceRecorder::record(const TraceEvent& ev) {
  MutexLock lock(mutex_);
  ring_[next_] = ev;
  next_ = (next_ + 1) % capacity_;
  if (size_ < capacity_) {
    ++size_;
  } else {
    ++dropped_;  // the slot we just wrote held the oldest retained event
  }
}

std::vector<TraceEvent> TraceRecorder::events() const {
  MutexLock lock(mutex_);
  std::vector<TraceEvent> out;
  out.reserve(size_);
  const std::size_t start = (next_ + capacity_ - size_) % capacity_;
  for (std::size_t i = 0; i < size_; ++i)
    out.push_back(ring_[(start + i) % capacity_]);
  return out;
}

std::vector<TraceEvent> TraceRecorder::span(std::uint64_t id) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& ev : events())
    if (ev.span == id) out.push_back(ev);
  return out;
}

std::uint64_t TraceRecorder::dropped() const {
  MutexLock lock(mutex_);
  return dropped_;
}

void TraceRecorder::clear() {
  MutexLock lock(mutex_);
  next_ = 0;
  size_ = 0;
  dropped_ = 0;
}

}  // namespace eugene::telemetry
