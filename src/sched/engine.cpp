#include "sched/engine.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace eugene::sched {

using telemetry::TraceEventKind;

StageFailure classify_stage_error(const std::exception& error) {
  return dynamic_cast<const InvalidArgument*>(&error) != nullptr ? StageFailure::kRejected
                                                                  : StageFailure::kFault;
}

Engine::Engine(SchedulingPolicy& policy, std::size_t num_tasks, std::size_t max_stages,
               std::size_t max_retries, double early_exit_confidence,
               telemetry::TraceRecorder* trace)
    : policy_(policy),
      max_stages_(max_stages),
      max_retries_(max_retries),
      early_exit_confidence_(early_exit_confidence),
      trace_(trace),
      confidences_(num_tasks * max_stages),
      next_deadline_(std::numeric_limits<double>::infinity()) {
  policy_.reset();  // ids restart at 0 (TaskView's append-only contract)
  slots_.reserve(num_tasks);
  results_.reserve(num_tasks);
  runnable_.reserve(num_tasks);
}

Engine::~Engine() {
  if (lifecycle_ != nullptr) lifecycle_->finish(slots_.size());
}

void Engine::add(std::size_t service, double arrival_ms, double deadline_ms,
                 std::size_t stages) {
  const std::size_t task = slots_.size();
  EUGENE_CHECK(stages >= 1 && stages <= max_stages_ &&
               (task + 1) * max_stages_ <= confidences_.size())
      << "Engine::add: task " << task << " does not fit the declared shape";
  Slot& s = slots_.emplace_back();
  s.view = {task, service, 0, stages, arrival_ms, deadline_ms,
            {confidences_.data() + task * max_stages_, 0}};
  TaskResult& r = results_.emplace_back();
  if (trace_ != nullptr) {
    s.span = trace_->begin_span(arrival_ms, static_cast<std::uint32_t>(service));
    r.span_id = s.span.id();
  }
  ++unfinished_;
}

bool Engine::admit(ServerLifecycle* lifecycle, double now_ms) {
  if (lifecycle == nullptr) return true;
  if (lifecycle->try_admit(slots_.size())) {
    lifecycle_ = lifecycle;
    return true;
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    slots_[i].state = State::kFinished;
    slots_[i].span.event(TraceEventKind::kDrain, now_ms);
    results_[i].draining = true;
  }
  unfinished_ = 0;
  return false;
}

std::vector<TaskView>::iterator Engine::position(std::size_t task) {
  return std::lower_bound(
      runnable_.begin(), runnable_.end(), task,
      [](const TaskView& v, std::size_t id) { return v.task_id < id; });
}

void Engine::enqueue(std::size_t task) {
  Slot& s = slots_[task];
  EUGENE_CHECK(s.state != State::kRunnable && s.state != State::kFinished)
      << "Engine::enqueue: task " << task << " is runnable or finished";
  s.state = State::kRunnable;
  runnable_.insert(position(task), s.view);
  next_deadline_ = std::min(next_deadline_, s.view.deadline_ms);
}

void Engine::expire_overdue(double now_ms) {
  if (now_ms < next_deadline_) return;
  next_deadline_ = std::numeric_limits<double>::infinity();
  // Survivors set the next sweep time; the rest expire.
  std::erase_if(runnable_, [&](const TaskView& v) {
    if (now_ms < v.deadline_ms) {
      next_deadline_ = std::min(next_deadline_, v.deadline_ms);
      return false;
    }
    finish(v.task_id, now_ms, TraceEventKind::kExpire);
    return true;
  });
}

std::optional<std::size_t> Engine::next(double now_ms) {
  if (runnable_.empty()) return std::nullopt;
  const std::optional<std::size_t> choice = policy_.pick(runnable_, now_ms);
  if (!choice.has_value()) return std::nullopt;
  const auto picked = position(*choice);
  EUGENE_CHECK(picked != runnable_.end() && picked->task_id == *choice)
      << "Engine: policy picked task " << *choice << ", which is not runnable";
  Slot& s = slots_[*choice];
  if (!s.first_dispatch_ms.has_value()) s.first_dispatch_ms = now_ms;
  return choice;
}

void Engine::hold(std::size_t task) {
  EUGENE_CHECK(slots_[task].state == State::kRunnable)
      << "Engine::hold: task " << task << " is not runnable";
  runnable_.erase(position(task));
  slots_[task].state = State::kHeld;
}

void Engine::complete(std::size_t task, std::size_t label, double confidence,
                      double now_ms, std::uint32_t worker) {
  Slot& s = slots_[task];
  TaskView& v = s.view;
  EUGENE_CHECK(s.state != State::kFinished && v.stages_done < v.total_stages)
      << "Engine::complete: task " << task << " has no stage left to run";
  s.span.event(TraceEventKind::kStageDone, now_ms,
               static_cast<std::uint32_t>(v.stages_done), worker, confidence);
  confidences_[task * max_stages_ + v.stages_done] = confidence;
  v.observed_confidence = {v.observed_confidence.data(), ++v.stages_done};
  TaskResult& r = results_[task];
  r.stages_run = v.stages_done;
  r.label = label;
  r.confidence = confidence;
  if (s.state == State::kWaiting) return;
  if (v.stages_done == v.total_stages || confidence >= early_exit_confidence_) {
    take_out(task);
    finish(task, now_ms, TraceEventKind::kExit);
  } else if (s.state == State::kRunnable) {
    *position(task) = v;
  } else {
    enqueue(task);
  }
}

bool Engine::fail(std::size_t task, double now_ms, StageFailure failure,
                  std::uint32_t worker) {
  Slot& s = slots_[task];
  EUGENE_CHECK(s.state != State::kFinished)
      << "Engine::fail: task " << task << " finished";
  if (now_ms >= s.view.deadline_ms) {
    expire(task, now_ms);
    return false;
  }
  if (failure == StageFailure::kRejected || ++results_[task].retries > max_retries_) {
    degrade(task, now_ms);
    return false;
  }
  s.span.event(TraceEventKind::kRetry, now_ms,
               static_cast<std::uint32_t>(s.view.stages_done), worker);
  return true;
}

void Engine::expire(std::size_t task, double now_ms) {
  take_out(task);
  finish(task, now_ms, TraceEventKind::kExpire);
}

void Engine::degrade(std::size_t task, double now_ms) {
  take_out(task);
  finish(task, now_ms, TraceEventKind::kDegrade);
}

std::optional<double> Engine::queue_delay_ms(std::size_t task) const {
  const Slot& s = slots_[task];
  if (!s.first_dispatch_ms.has_value()) return std::nullopt;
  return *s.first_dispatch_ms - s.view.arrival_ms;
}

// Removes the task from the runnable set, if in it.
void Engine::take_out(std::size_t task) {
  const State state = slots_[task].state;
  EUGENE_CHECK(state != State::kFinished)
      << "Engine: task " << task << " already finished";
  if (state == State::kRunnable) runnable_.erase(position(task));
}

void Engine::finish(std::size_t task, double now_ms, TraceEventKind why) {
  Slot& s = slots_[task];
  TaskResult& r = results_[task];
  if (why != TraceEventKind::kExit) s.span.event(why, now_ms);
  r.expired = why == TraceEventKind::kExpire;
  r.degraded = why == TraceEventKind::kDegrade;
  r.latency_ms = now_ms - s.view.arrival_ms;
  s.state = State::kFinished;
  --unfinished_;
  // Closes the span: stage = stages run, value = the answer's confidence.
  s.span.event(TraceEventKind::kExit, now_ms, static_cast<std::uint32_t>(r.stages_run),
               0, r.confidence);
}

}  // namespace eugene::sched
