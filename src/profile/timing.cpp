#include "profile/timing.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"

namespace eugene::profile {

using tensor::Tensor;

namespace {

double median(std::vector<double> xs) {
  EUGENE_CHECK(!xs.empty()) << "median of empty vector";
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

}  // namespace

double measure_layer_ms(const nn::Layer& layer, const tensor::Shape& input_shape,
                        const TimingConfig& config) {
  EUGENE_REQUIRE(config.repeats >= 1, "measure_layer_ms: need at least one repeat");
  Rng rng(config.seed);
  const Tensor input = Tensor::randn(input_shape, rng);

  volatile float sink = 0.0f;
  for (std::size_t i = 0; i < config.warmup; ++i)
    sink = sink + nn::infer(layer, input).data()[0];

  std::vector<double> times;
  times.reserve(config.repeats);
  for (std::size_t i = 0; i < config.repeats; ++i) {
    Stopwatch watch;
    const Tensor out = nn::infer(layer, input);
    times.push_back(watch.elapsed_ms());
    sink = sink + out.data()[0];
  }
  (void)sink;
  return median(std::move(times));
}

}  // namespace eugene::profile
