#include "sched/workload.hpp"

namespace eugene::sched {

std::vector<TaskSpec> build_workload(const calib::StagedEvaluation& eval,
                                     const WorkloadConfig& config, Rng& rng) {
  EUGENE_REQUIRE(eval.num_samples() > 0, "build_workload: empty evaluation table");
  EUGENE_REQUIRE(config.num_services > 0 && config.tasks_per_service > 0,
                 "build_workload: empty workload");
  EUGENE_REQUIRE(config.mean_interarrival_ms > 0.0,
                 "build_workload: non-positive interarrival time");

  std::vector<TaskSpec> tasks;
  tasks.reserve(config.num_services * config.tasks_per_service);
  for (std::size_t svc = 0; svc < config.num_services; ++svc) {
    double t = 0.0;
    for (std::size_t j = 0; j < config.tasks_per_service; ++j) {
      t += config.poisson_arrivals
               ? rng.exponential(1.0 / config.mean_interarrival_ms)
               : config.mean_interarrival_ms;
      const std::size_t row = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(eval.num_samples()) - 1));
      TaskSpec spec;
      spec.service = svc;
      spec.arrival_ms = t;
      spec.deadline_ms = t + config.deadline_ms;
      spec.stages.reserve(eval.num_stages());
      for (std::size_t s = 0; s < eval.num_stages(); ++s) {
        const calib::StageRecord& r = eval.records[s][row];
        StageOutcome outcome;
        outcome.predicted = r.predicted;
        outcome.correct = r.predicted == r.truth;
        outcome.confidence = r.confidence;
        spec.stages.push_back(outcome);
      }
      tasks.push_back(std::move(spec));
    }
  }
  return tasks;
}

}  // namespace eugene::sched
