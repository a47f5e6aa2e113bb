// Client/server model partitioning (paper §IV-A "Distributing the Inference
// Model"):
//
//   "it may be possible to execute some stages of the neural network on the
//    client, leaving other stages to execute on the server. If the
//    confidence in results obtained on the client is sufficiently high, no
//    subsequent offloading to the server is needed. ... An ideal
//    partitioning should maximally reduce client reliance on remote
//    processing, while observing client-side resource constraints as well
//    as communication bandwidth constraints."
//
// This module makes that concrete: given per-stage FLOPs / parameter sizes /
// feature sizes, device & server throughputs, a link profile, and the
// empirical early-exit survival curve (from a calibration evaluation table),
// it enumerates every split point and picks the one minimizing expected
// per-request latency subject to the device's model-size budget.
#pragma once

#include <limits>

#include "calib/evaluation.hpp"
#include "nn/staged_model.hpp"

namespace eugene::sched {

/// Compute capability and storage budget of one side.
struct ComputeProfile {
  double flops_per_ms = 1e6;
  std::size_t max_model_bytes = std::numeric_limits<std::size_t>::max();
};

/// Client↔server link.
struct LinkProfile {
  double bytes_per_ms = 1000.0;  ///< throughput
  double rtt_ms = 10.0;          ///< fixed round-trip overhead per offload
};

/// Static description of one stage for the planner.
struct StageInfo {
  double flops = 0.0;
  std::size_t param_bytes = 0;    ///< what caching this stage on-device costs
  std::size_t output_bytes = 0;   ///< feature tensor crossing a cut after this stage
};

/// Planner inputs.
struct PartitionConfig {
  ComputeProfile device;
  ComputeProfile server;
  LinkProfile link;
  double early_exit_confidence = 0.9;  ///< client answers locally above this
  std::size_t input_bytes = 0;         ///< raw sample size (cut before stage 0)
};

/// Evaluation of one split point. Stages [0, split) run on the device;
/// split == 0 means pure offloading, split == L means fully local.
struct PartitionPlan {
  std::size_t split = 0;
  bool fits_device = true;          ///< device stages fit the storage budget
  double device_ms = 0.0;           ///< expected local compute (early exits
                                    ///< skip later device stages)
  double offload_probability = 1.0; ///< P(confidence below threshold on-device)
  double upload_ms = 0.0;           ///< link cost per offload
  double server_ms = 0.0;           ///< expected remote compute (unconditional,
                                    ///< already weighted by execution probability)
  double expected_latency_ms = 0.0; ///< device + P(offload)·upload + server
};

/// Extracts planner stage descriptions from a staged model by running one
/// forward pass of `example_input` to measure feature sizes.
std::vector<StageInfo> stage_infos(const nn::StagedModel& model,
                                   const tensor::Tensor& example_input);

/// Survival curve from an evaluation table: survival[s] is the fraction of
/// samples whose confidence stayed below `threshold` at ALL stages 0..s —
/// i.e. the probability a request still needs more stages after stage s.
std::vector<double> survival_curve(const calib::StagedEvaluation& eval,
                                   double threshold);

/// Evaluates every split point (0..L inclusive). Plans that violate the
/// device budget are marked !fits_device and given infinite latency.
std::vector<PartitionPlan> evaluate_partitions(const std::vector<StageInfo>& stages,
                                               const std::vector<double>& survival,
                                               const PartitionConfig& config);

/// The feasible plan with the lowest expected latency.
/// Throws eugene::InvalidArgument if no split fits the device budget
/// (split == 0 always fits: nothing is cached on the device).
PartitionPlan plan_partition(const std::vector<StageInfo>& stages,
                             const std::vector<double>& survival,
                             const PartitionConfig& config);

}  // namespace eugene::sched
