// Regenerates paper Table II: Expected Calibration Error of three-stage
// ResNet confidence under three calibration methods —
//   Uncalibrated, RDeepSense (MC dropout), RTDeepIoT (entropy, Eq. 4) —
// plus two ablations: the α sweep behind the entropy method, and
// temperature scaling as an extra baseline.
//
// Paper's reference values (CIFAR-10):
//   stage      uncal   RDeepSense  RTDeepIoT
//     1        0.134     0.058       0.010
//     2        0.146     0.046       0.012
//     3        0.123     0.054       0.008
#include <cstdio>

#include "bench_common.hpp"

using namespace eugene;

int main() {
  bench::BundleConfig cfg;
  bench::Bundle bundle = bench::make_bundle(cfg);

  std::printf("== Table II: ECE of confidence calibration methods ==\n\n");

  // Uncalibrated: raw head confidences on the test split.
  const auto uncal = bench::stage_eces(calib::evaluate_staged(bundle.model, bundle.test_set));

  // RDeepSense baseline: its own model variant with dropout heads, evaluated
  // with MC-dropout sampling (each calibration method owns its training
  // recipe, as in the paper's comparison).
  bench::BundleConfig mc_cfg = cfg;
  mc_cfg.head_dropout = 0.25f;
  bench::Bundle mc_bundle = bench::make_bundle(mc_cfg);
  const auto rdeep = bench::stage_eces(
      calib::evaluate_staged_mc(mc_bundle.model, mc_bundle.test_set, 20));

  // Temperature scaling (ablation extra).
  const auto temps = calib::fit_temperatures(bundle.model, bundle.calib_set);
  const auto temp_scaled = bench::stage_eces(
      calib::evaluate_with_temperature(bundle.model, bundle.test_set, temps));

  // RTDeepIoT: per-stage entropy calibration (Eq. 4) on the calib split.
  const std::vector<double> alphas =
      calib::calibrate_heads_entropy(bundle.model, bundle.calib_set);
  const auto rtdeep = bench::stage_eces(calib::evaluate_staged(bundle.model, bundle.test_set));

  std::printf("%-8s %14s %14s %14s %14s\n", "stage", "Uncalibrated", "RDeepSense",
              "RTDeepIoT", "TempScale*");
  for (std::size_t s = 0; s < 3; ++s)
    std::printf("Stage %zu  %14.3f %14.3f %14.3f %14.3f\n", s + 1, uncal[s], rdeep[s],
                rtdeep[s], temp_scaled[s]);
  std::printf("(*TempScale is an extra baseline, not in the paper's table)\n");
  std::printf("\npaper reference:        0.134/0.146/0.123   0.058/0.046/0.054   "
              "0.010/0.012/0.008\n");
  std::printf("chosen alpha per stage: ");
  for (double a : alphas) std::printf("%+.2f ", a);
  std::printf("\nshape check: RTDeepIoT < RDeepSense < Uncalibrated per stage: ");
  bool ok = true;
  for (std::size_t s = 0; s < 3; ++s) ok &= rtdeep[s] <= rdeep[s] && rdeep[s] <= uncal[s] + 0.02;
  std::printf("%s\n", ok ? "yes" : "partial");

  // ---- ablation: the α sweep (fresh fine-tune per α, stage 3 head) -------
  bench::print_rule();
  std::printf("ablation: entropy-regularization alpha sweep (stage 3 head, test ECE)\n");
  std::printf("%-8s %10s %12s %12s\n", "alpha", "ECE", "accuracy", "confidence");
  const auto features = calib::stage_features(bundle.model, bundle.calib_set);
  const auto head = bundle.model.head(2).params();
  std::vector<tensor::Tensor> initial;
  for (const auto& p : head) initial.push_back(*p.value);
  for (double alpha : {-1.0, -0.5, -0.2, 0.0, 0.2, 0.5, 1.0}) {
    for (std::size_t i = 0; i < head.size(); ++i) *head[i].value = initial[i];
    calib::finetune_head(bundle.model, 2, features[2], bundle.calib_set.labels, alpha);
    const auto eval = calib::evaluate_staged(bundle.model, bundle.test_set);
    std::printf("%+8.2f %10.3f %12.3f %12.3f\n", alpha,
                calib::expected_calibration_error(eval.predicted(2), eval.truth(2),
                                                  eval.confidence(2)),
                calib::overall_accuracy(eval.predicted(2), eval.truth(2)),
                calib::overall_confidence(eval.confidence(2)));
  }
  std::printf("(α > 0 sharpens / raises confidence; α < 0 softens — the sweep shows\n"
              " the under/over-estimation crossover the paper's sign rule refers to)\n");
  return 0;
}
