// Regenerates paper Table I: execution time of 3×3 convolutional layers with
// stride 1, same padding, 224×224 input — demonstrating that time is a
// strongly non-linear function of FLOPs.
//
// Three views are printed:
//   1. the paper's published Nexus-5 numbers next to our fitted mobile cost
//      model (DESIGN.md §2 substitution for the phone);
//   2. real measured times of Eugene's own conv layer (nn::Conv2d, timed
//      through nn::infer — the route the server runs) at a CPU-budget scale
//      (64×64 input, same channel configurations) — the qualitative
//      orderings must survive;
//   3. the FastDeepIoT-style piecewise-linear regression fitted to a sweep
//      of real measurements, with its R².
#include <cstdio>

#include "nn/layers.hpp"
#include "profile/cost_model.hpp"
#include "profile/linear_region.hpp"
#include "profile/timing.hpp"

using namespace eugene;

namespace {

tensor::Conv2dGeometry geometry(std::size_t cin, std::size_t cout, std::size_t hw) {
  tensor::Conv2dGeometry g;
  g.in_channels = cin;
  g.out_channels = cout;
  g.in_height = hw;
  g.in_width = hw;
  return g;
}

struct Row {
  const char* name;
  std::size_t cin;
  std::size_t cout;
  double paper_ms;
};

constexpr Row kTable1[] = {
    {"CNN1", 8, 32, 114.9},
    {"CNN2", 32, 8, 300.2},
    {"CNN3", 66, 32, 908.3},
    {"CNN4", 43, 64, 751.7},
};

}  // namespace

int main() {
  std::printf("== Table I: conv layer execution time vs FLOPs ==\n\n");

  // --- view 1: paper numbers vs the fitted analytic cost model ------------
  const profile::MobileConvCostModel nexus = profile::MobileConvCostModel::nexus5_reference();
  std::printf("[1] Nexus-5 (paper) vs fitted cost model, 224x224 input\n");
  std::printf("(FLOPs below use the standard 2*MAC convention; the paper's FLOPs\n"
              " column is ~2x larger, a counting-convention difference only)\n");
  std::printf("%-6s %10s %12s %14s %14s\n", "net", "channels", "FLOPs", "paper ms",
              "model ms");
  for (const Row& row : kTable1) {
    const auto g = geometry(row.cin, row.cout, 224);
    std::printf("%-6s %4zu->%-4zu %10.1fM %14.1f %14.1f\n", row.name, row.cin, row.cout,
                g.flops() / 1e6, row.paper_ms, nexus.predict_ms(g));
  }
  std::printf("fitted parameters: alpha=%.3g ms/elem, peak=%.3g FLOP/ms, knee=%.1f\n",
              nexus.alpha_per_element(), nexus.peak_flops_per_ms(),
              nexus.efficiency_knee());
  std::printf("shape checks: CNN2/CNN1 time ratio = %.2f (paper 2.61, equal FLOPs); "
              "CNN3 > CNN4: %s (paper: yes, with 23%% fewer FLOPs)\n\n",
              nexus.predict_ms(geometry(32, 8, 224)) / nexus.predict_ms(geometry(8, 32, 224)),
              nexus.predict_ms(geometry(66, 32, 224)) > nexus.predict_ms(geometry(43, 64, 224))
                  ? "yes"
                  : "NO");

  // --- view 2: real measurements of our kernels at CPU scale --------------
  std::printf("[2] the served nn::Conv2d (nn::infer) measured on this CPU, 64x64 input\n");
  std::printf("%-6s %10s %12s %14s\n", "net", "channels", "FLOPs", "measured ms");
  profile::TimingConfig timing;
  timing.repeats = 5;
  std::vector<profile::ConvMeasurement> measured;
  Rng rng(timing.seed);
  for (const Row& row : kTable1) {
    const auto g = geometry(row.cin, row.cout, 64);
    const nn::Conv2d conv(g, rng);
    const double ms = profile::measure_layer_ms(conv, {row.cin, 64, 64}, timing);
    measured.push_back({g, ms});
    std::printf("%-6s %4zu->%-4zu %10.1fM %14.3f\n", row.name, row.cin, row.cout,
                g.flops() / 1e6, ms);
  }
  const double ratio21 = measured[1].time_ms / measured[0].time_ms;
  std::printf("equal-FLOPs ratio CNN2/CNN1 of the served conv on this CPU: %.2f\n"
              "(this CPU's own cost, not a check of Table I: view [1]'s cost model\n"
              " carries Table I's mobile shape)\n\n",
              ratio21);

  // --- view 3: FastDeepIoT piecewise-linear execution-time model ----------
  // Fitted on the *mobile* cost surface (Nexus-5 model over a channel
  // sweep), where the FLOPs/time relation is strongly non-linear. On this
  // desktop CPU the relation is much closer to linear — exactly why the
  // paper profiles the deployment device rather than assuming FLOPs.
  std::printf("[3] piecewise-linear execution-time model on the mobile cost surface\n");
  std::vector<std::array<double, 3>> features;
  std::vector<double> times;
  for (std::size_t cin = 4; cin <= 96; cin += 8) {
    for (std::size_t cout = 4; cout <= 96; cout += 8) {
      const auto g = geometry(cin, cout, 224);
      features.push_back({static_cast<double>(cin), static_cast<double>(cout), g.flops()});
      times.push_back(nexus.predict_ms(g));
    }
  }
  tensor::Tensor x({features.size(), 3});
  for (std::size_t i = 0; i < features.size(); ++i)
    for (std::size_t j = 0; j < 3; ++j) x.at(i, j) = static_cast<float>(features[i][j]);
  profile::PiecewiseLinearModel piecewise;
  piecewise.fit(x, times);

  // A FLOPs-only straight line as the strawman the paper argues against.
  tensor::Tensor flops_only({features.size(), 1});
  for (std::size_t i = 0; i < features.size(); ++i)
    flops_only.at(i, 0) = static_cast<float>(features[i][2]);
  profile::PiecewiseLinearModel strawman;
  profile::RegionModelConfig one_region;
  one_region.max_depth = 0;
  strawman.fit(flops_only, times, one_region);

  std::printf("sweep points: %zu\n", times.size());
  std::printf("piecewise model (C_in, C_out, FLOPs): regions = %zu, R^2 = %.3f\n",
              piecewise.num_regions(), piecewise.r_squared(x, times));
  std::printf("FLOPs-only straight line:             regions = 1, R^2 = %.3f\n",
              strawman.r_squared(flops_only, times));
  std::printf("shape check: piecewise beats FLOPs-only: %s (the paper's point — "
              "\"counting FLOPs does not lead to good estimates\")\n",
              piecewise.r_squared(x, times) > strawman.r_squared(flops_only, times)
                  ? "yes" : "NO");
  return 0;
}
