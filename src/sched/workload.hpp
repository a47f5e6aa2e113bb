// Workload synthesis for scheduling experiments: turns a per-stage
// evaluation table (real model outputs) into streams of timed inference
// tasks, one stream per client service — the Fig. 4 setup where several
// processes each classify a shuffled stream of CIFAR-10 images.
#pragma once

#include "calib/evaluation.hpp"
#include "common/rng.hpp"
#include "sched/task.hpp"

namespace eugene::sched {

/// Stream shape knobs.
struct WorkloadConfig {
  std::size_t num_services = 5;        ///< concurrent client streams (Fig. 4 x-axis)
  std::size_t tasks_per_service = 40;  ///< images per stream
  double mean_interarrival_ms = 30.0;  ///< per-service arrival spacing
  bool poisson_arrivals = true;        ///< exponential vs fixed spacing
  double deadline_ms = 120.0;          ///< relative latency constraint per task
};

/// Builds the task set by sampling rows of `eval` (with replacement) for
/// every service, service by service.
std::vector<TaskSpec> build_workload(const calib::StagedEvaluation& eval,
                                     const WorkloadConfig& config, Rng& rng);

}  // namespace eugene::sched
