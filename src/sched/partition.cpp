#include "sched/partition.hpp"

namespace eugene::sched {

using tensor::Tensor;

std::vector<StageInfo> stage_infos(const nn::StagedModel& model,
                                   const Tensor& example_input) {
  std::vector<StageInfo> infos(model.num_stages());
  const Tensor* current = &example_input;
  nn::StageOutput out;
  for (std::size_t s = 0; s < model.num_stages(); ++s) {
    out = model.run_stage(s, *current);
    infos[s].flops = model.stage_flops(s);
    infos[s].param_bytes = model.stage_param_bytes(s);
    infos[s].output_bytes = out.features.numel() * sizeof(float);
    current = &out.features;
  }
  return infos;
}

std::vector<double> survival_curve(const calib::StagedEvaluation& eval,
                                   double threshold) {
  EUGENE_REQUIRE(eval.num_stages() > 0 && eval.num_samples() > 0,
                 "survival_curve: empty evaluation");
  std::vector<double> survival(eval.num_stages(), 0.0);
  const std::size_t n = eval.num_samples();
  for (std::size_t i = 0; i < n; ++i) {
    bool alive = true;
    for (std::size_t s = 0; s < eval.num_stages(); ++s) {
      alive = alive && eval.records[s][i].confidence < threshold;
      if (alive) survival[s] += 1.0;
    }
  }
  for (double& v : survival) v /= static_cast<double>(n);
  return survival;
}

std::vector<PartitionPlan> evaluate_partitions(const std::vector<StageInfo>& stages,
                                               const std::vector<double>& survival,
                                               const PartitionConfig& config) {
  EUGENE_REQUIRE(!stages.empty(), "evaluate_partitions: no stages");
  EUGENE_REQUIRE(survival.size() == stages.size(),
                 "evaluate_partitions: survival curve size mismatch");
  EUGENE_REQUIRE(config.device.flops_per_ms > 0.0 && config.server.flops_per_ms > 0.0,
                 "evaluate_partitions: non-positive throughput");
  EUGENE_REQUIRE(config.link.bytes_per_ms > 0.0,
                 "evaluate_partitions: non-positive link throughput");

  const std::size_t num_stages = stages.size();
  // alive[s]: probability stage s executes at all — 1 for stage 0, then the
  // survival after the previous stage (a request that already exited never
  // runs later stages, on either side).
  std::vector<double> alive(num_stages, 1.0);
  for (std::size_t s = 1; s < num_stages; ++s) alive[s] = survival[s - 1];

  std::vector<PartitionPlan> plans;
  plans.reserve(num_stages + 1);
  for (std::size_t split = 0; split <= num_stages; ++split) {
    PartitionPlan plan;
    plan.split = split;

    std::size_t device_bytes = 0;
    for (std::size_t s = 0; s < split; ++s) {
      plan.device_ms += alive[s] * stages[s].flops / config.device.flops_per_ms;
      device_bytes += stages[s].param_bytes;
    }
    plan.fits_device = device_bytes <= config.device.max_model_bytes;

    // Probability the request still needs the server after the device part:
    // survival after the last device stage (1 when nothing ran locally —
    // there is no local confidence to exit on).
    plan.offload_probability = split == 0 ? 1.0 : survival[split - 1];

    if (split < num_stages) {
      const std::size_t cut_bytes =
          split == 0 ? config.input_bytes : stages[split - 1].output_bytes;
      plan.upload_ms = static_cast<double>(cut_bytes) / config.link.bytes_per_ms +
                       config.link.rtt_ms;
      // Server stages are also weighted by their execution probability: the
      // server keeps exiting early on confident intermediate results.
      for (std::size_t s = split; s < num_stages; ++s)
        plan.server_ms += alive[s] * stages[s].flops / config.server.flops_per_ms;
    }

    plan.expected_latency_ms =
        plan.fits_device
            ? plan.device_ms + plan.offload_probability * plan.upload_ms +
                  plan.server_ms
            : std::numeric_limits<double>::infinity();
    plans.push_back(plan);
  }
  return plans;
}

PartitionPlan plan_partition(const std::vector<StageInfo>& stages,
                             const std::vector<double>& survival,
                             const PartitionConfig& config) {
  const auto plans = evaluate_partitions(stages, survival, config);
  const PartitionPlan* best = nullptr;
  for (const auto& plan : plans) {
    if (!plan.fits_device) continue;
    if (best == nullptr || plan.expected_latency_ms < best->expected_latency_ms)
      best = &plan;
  }
  EUGENE_REQUIRE(best != nullptr, "plan_partition: no feasible split");
  return *best;
}

}  // namespace eugene::sched
