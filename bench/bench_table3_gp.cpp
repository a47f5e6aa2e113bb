// Regenerates paper Table III: quality of dynamic confidence-curve
// prediction with Gaussian-process regression — MAE and R² of GP1→2, GP1→3,
// GP2→3 on held-out data. The GPs are trained on the calibration split's
// confidence curves, exactly as the paper trains them "from the confidence
// curves of training data".
//
// Paper reference:            GP1→2   GP1→3   GP2→3
//   MAE                       0.124   0.108   0.072
//   R²                        0.57    0.43    0.78
//
// Ablation: the runtime piecewise-linear approximation vs the exact GP, in
// both prediction quality and query latency (the paper's motivation for the
// approximation). The served curve model keeps only the profiles, so this
// bench fits the exact GPs itself (gp::fit_pair_gp, the fit the model
// profiles) and scores both through gp::evaluate_curve.
#include <cstdio>

#include "bench_common.hpp"
#include "common/clock.hpp"
#include "gp/confidence_curve.hpp"

using namespace eugene;

int main() {
  bench::Bundle bundle = bench::make_bundle();
  calib::calibrate_heads_entropy(bundle.model, bundle.calib_set);

  const calib::StagedEvaluation train_eval =
      calib::evaluate_staged(bundle.model, bundle.calib_set);
  const calib::StagedEvaluation test_eval =
      calib::evaluate_staged(bundle.model, bundle.test_set);

  gp::ConfidenceCurveModel curves;
  curves.fit(train_eval);

  std::printf("== Table III: dynamic confidence curve prediction ==\n\n");
  const std::pair<std::size_t, std::size_t> pairs[] = {{0, 1}, {0, 2}, {1, 2}};
  const char* names[] = {"GP1->2", "GP1->3", "GP2->3"};
  std::vector<gp::GaussianProcess1D> exact_gps;
  for (const auto& [from, to] : pairs)
    exact_gps.push_back(gp::fit_pair_gp(train_eval, from, to));
  const auto exact_quality = [&](int i) {
    const gp::GaussianProcess1D& gp = exact_gps[static_cast<std::size_t>(i)];
    const auto [from, to] = pairs[i];
    return gp::evaluate_curve(test_eval, from, to,
                              [&gp](double c) { return gp.predict(c).mean; });
  };
  std::printf("%-8s %10s %10s\n", "", "MAE", "R^2");
  gp::CurveFitQuality quality[3];
  for (int i = 0; i < 3; ++i) {
    quality[i] = exact_quality(i);
    std::printf("%-8s %10.3f %10.2f\n", names[i], quality[i].mae, quality[i].r_squared);
  }
  std::printf("\npaper reference: MAE 0.124 / 0.108 / 0.072, R^2 0.57 / 0.43 / 0.78\n");
  std::printf("shape check: GP2->3 best (lowest MAE, highest R^2): %s\n",
              (quality[2].mae <= quality[0].mae && quality[2].mae <= quality[1].mae &&
               quality[2].r_squared >= quality[0].r_squared &&
               quality[2].r_squared >= quality[1].r_squared)
                  ? "yes"
                  : "partial");

  // ---- ablation: piecewise-linear approximation vs exact GP --------------
  bench::print_rule();
  std::printf("ablation: runtime piecewise-linear approximation (M=10 grid)\n");
  std::printf("%-8s %12s %12s %14s\n", "", "MAE exact", "MAE approx", "approx err");
  for (int i = 0; i < 3; ++i) {
    const auto [from, to] = pairs[i];
    const auto exact = exact_quality(i);
    const auto approx = gp::evaluate_curve(
        test_eval, from, to, [&](double c) { return curves.predict(from, to, c); });
    std::printf("%-8s %12.4f %12.4f %14.4f\n", names[i], exact.mae, approx.mae,
                approx.mae - exact.mae);
  }

  // Query latency: the paper's reason for the approximation.
  const std::size_t queries = 20000;
  Rng rng(5);
  std::vector<double> inputs(queries);
  for (auto& v : inputs) v = rng.uniform();

  Stopwatch sw_exact;
  double sink = 0.0;
  for (double v : inputs) sink += exact_gps[1].predict(v).mean;  // GP1->3
  const double exact_ms = sw_exact.elapsed_ms();

  Stopwatch sw_approx;
  for (double v : inputs) sink += curves.predict(0, 2, v);
  const double approx_ms = sw_approx.elapsed_ms();
  std::printf("\nquery latency over %zu queries: exact GP %.1f ms, piecewise %.1f ms "
              "(%.0fx speedup)  [checksum %.1f]\n",
              queries, exact_ms, approx_ms, exact_ms / approx_ms, sink);
  std::printf("(the paper: \"Gaussian process is notorious for its long inference "
              "time... approximate with piece-wise linear functions\")\n");
  return 0;
}
