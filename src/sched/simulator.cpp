#include "sched/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/stats.hpp"
#include "sched/engine.hpp"

namespace eugene::sched {

double SimulationResult::mean_accuracy() const {
  EUGENE_REQUIRE(!services.empty(), "mean_accuracy: no services");
  double sum = 0.0;
  for (const auto& s : services) sum += s.accuracy();
  return sum / static_cast<double>(services.size());
}

double SimulationResult::std_accuracy() const {
  EUGENE_REQUIRE(!services.empty(), "std_accuracy: no services");
  std::vector<double> acc;
  acc.reserve(services.size());
  for (const auto& s : services) acc.push_back(s.accuracy());
  return stddev(acc);
}

double SimulationResult::mean_stages_per_task() const {
  std::size_t tasks = 0, stages = 0;
  for (const auto& s : services) {
    tasks += s.tasks;
    stages += s.stages_executed;
  }
  return tasks == 0 ? 0.0 : static_cast<double>(stages) / static_cast<double>(tasks);
}

namespace {

enum class EventKind { Arrival, StageDone, Deadline };

struct Event {
  double time_ms = 0.0;
  std::uint64_t seq = 0;  ///< FIFO tie-break for determinism
  EventKind kind = EventKind::Arrival;
  std::size_t task = 0;

  bool operator>(const Event& other) const {
    if (time_ms != other.time_ms) return time_ms > other.time_ms;
    return seq > other.seq;
  }
};

}  // namespace

SimulationResult simulate(const std::vector<TaskSpec>& tasks, SchedulingPolicy& policy,
                          const std::vector<double>& stage_ms,
                          const SimulationConfig& config) {
  EUGENE_REQUIRE(!tasks.empty(), "simulate: empty task set");
  EUGENE_REQUIRE(config.num_workers >= 1, "simulate: need at least one worker");
  std::size_t num_services = 0;
  std::size_t max_stages = 0;
  for (const TaskSpec& t : tasks) {
    EUGENE_REQUIRE(!t.stages.empty(), "simulate: task with no stages");
    num_services = std::max(num_services, t.service + 1);
    max_stages = std::max(max_stages, t.stages.size());
  }
  EUGENE_REQUIRE(stage_ms.size() >= max_stages,
                 "simulate: stage costs cover fewer stages than tasks have");

  Engine engine(policy, tasks.size(), max_stages, /*max_retries=*/0,
                config.early_exit_confidence, /*trace=*/nullptr);
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    engine.add(tasks[i].service, tasks[i].arrival_ms, tasks[i].deadline_ms,
               tasks[i].stages.size());
    events.push({tasks[i].arrival_ms, seq++, EventKind::Arrival, i});
    if (std::isfinite(tasks[i].deadline_ms))
      events.push({tasks[i].deadline_ms, seq++, EventKind::Deadline, i});
  }

  SimulationResult result;
  std::size_t free_workers = config.num_workers;
  double now = 0.0;

  auto dispatch = [&]() {
    while (free_workers > 0) {
      const std::optional<std::size_t> task = engine.next(now);
      if (!task.has_value()) return;
      engine.hold(*task);
      --free_workers;
      const double dt = stage_ms[engine.result(*task).stages_run];
      events.push({now + dt, seq++, EventKind::StageDone, *task});
    }
  };

  while (!events.empty()) {
    const Event ev = events.top();
    events.pop();
    now = std::max(now, ev.time_ms);
    switch (ev.kind) {
      case EventKind::Arrival:
        engine.enqueue(ev.task);
        break;

      case EventKind::StageDone: {
        if (engine.finished(ev.task)) break;  // aborted at its deadline
        ++free_workers;
        const std::size_t stage = engine.result(ev.task).stages_run;
        const StageOutcome& outcome = tasks[ev.task].stages[stage];
        engine.complete(ev.task, outcome.predicted, outcome.confidence, now);
        result.makespan_ms = std::max(result.makespan_ms, now);
        break;
      }

      case EventKind::Deadline: {
        if (engine.finished(ev.task)) break;
        if (engine.held(ev.task)) {
          // The daemon "sends a signal to stop the current computation";
          // the partially executed stage accrues no result.
          ++free_workers;
          ++result.aborted_stage_executions;
        }
        result.makespan_ms = std::max(result.makespan_ms, now);
        engine.expire(ev.task, now);
        break;
      }
    }
    dispatch();
  }

  // Per-service metrics from each task's final answer. A task the policy
  // never finished (no deadline, no further interest) counts with the result
  // it holds: the service answers with the best label it has.
  result.services.resize(num_services);
  result.exit_stage_histogram.assign(max_stages + 1, 0);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const TaskResult& r = engine.result(i);
    ServiceMetrics& svc = result.services[tasks[i].service];
    ++svc.tasks;
    svc.stages_executed += r.stages_run;
    ++result.exit_stage_histogram[r.stages_run];
    if (r.stages_run == 0) {
      ++svc.expired_without_result;
      continue;
    }
    if (tasks[i].stages[r.stages_run - 1].correct) ++svc.correct;
    if (r.stages_run == tasks[i].stages.size())
      ++svc.completed_all_stages;
    else if (r.confidence >= config.early_exit_confidence)
      ++svc.early_exits;
    else
      ++svc.expired_with_result;
  }
  return result;
}

}  // namespace eugene::sched
