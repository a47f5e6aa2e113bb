// Execution timing harness (paper §II-C "Execution Profiling").
//
// Measures real wall-clock inference times of Eugene's layers — the route
// the server runs — so the profiler's predictive models can be fitted to
// *this* machine, the way FastDeepIoT profiled the Nexus 5.
#pragma once

#include "nn/layer.hpp"

namespace eugene::profile {

/// Timing controls. Median over `repeats` runs after `warmup` runs.
struct TimingConfig {
  std::size_t warmup = 1;
  std::size_t repeats = 5;
  std::uint64_t seed = 21;
};

/// Median inference time (nn::infer) of an arbitrary layer on a random input
/// of the given shape.
double measure_layer_ms(const nn::Layer& layer, const tensor::Shape& input_shape,
                        const TimingConfig& config = {});

}  // namespace eugene::profile
