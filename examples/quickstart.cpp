// Quickstart: the whole Eugene service loop in one file.
//
//   1. a client uploads labeled sensor data (synthetic images here);
//   2. Eugene trains a staged (multi-exit) model        — §II-A;
//   3. Eugene calibrates its confidence (Eq. 4)         — §II-D;
//   4. Eugene profiles per-stage execution cost         — §II-C;
//   5. the client sends inference requests; the utility scheduler runs only
//      as many stages as each input needs               — §II-E / §III.
//
// Build & run:  ./build/examples/quickstart
// Pass --metrics to also dump the process-wide metrics registry (counters,
// gauges, per-stage latency histograms) in the eugene-metrics v1 format.
#include <cstdio>
#include <cstring>

#include "common/logging.hpp"
#include "core/eugene_service.hpp"
#include "data/synthetic_images.hpp"

using namespace eugene;

int main(int argc, char** argv) {
  bool dump_metrics = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--metrics") == 0) dump_metrics = true;
  set_log_level(LogLevel::Info);

  // -- 1. client data -------------------------------------------------------
  data::SyntheticImageConfig sensor;  // 10 classes, 3x16x16
  Rng rng(7);
  const data::Dataset train_set = data::generate_images(sensor, 800, rng);
  const data::Dataset calib_set = data::generate_images(sensor, 400, rng);
  const data::Dataset fresh = data::generate_images(sensor, 12, rng);
  std::printf("client uploaded %zu labeled samples\n", train_set.size());

  // -- 2. train a staged model ----------------------------------------------
  core::EugeneService eugene;
  nn::StagedResNetConfig arch;  // 3-stage ResNet, Fig. 3 structure
  arch.head_hidden = 24;
  nn::StagedTrainConfig train_cfg;
  train_cfg.epochs = 8;
  const std::size_t model = eugene.train("doorbell-vision", train_set, arch, train_cfg);

  // -- 3. calibrate ----------------------------------------------------------
  const core::CalibrationReport calibration = eugene.calibrate(model, calib_set);
  std::printf("calibrated: per-stage alpha =");
  for (double a : calibration.stage_alpha) std::printf(" %+.2f", a);
  std::printf(", per-stage ECE =");
  for (double e : calibration.stage_ece) std::printf(" %.3f", e);
  std::printf("\n");

  // -- 4. profile -------------------------------------------------------------
  const std::vector<double> stage_ms = eugene.profile(model, {3, 16, 16});
  const serving::ModelRegistry::ViewPtr view = eugene.registry().pin();
  const nn::StagedModel& staged = view->entry(model).model;
  for (std::size_t s = 0; s < stage_ms.size(); ++s)
    std::printf("stage %zu: %.2f ms, %.1f MFLOPs\n", s + 1, stage_ms[s],
                staged.stage_flops(s) / 1e6);

  // -- 5. serve ---------------------------------------------------------------
  std::printf("\nserving %zu fresh inputs (early exit at confidence 0.9):\n",
              fresh.size());
  std::size_t correct = 0, stages_total = 0;
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const serving::InferenceResponse r = eugene.infer(model, fresh.samples[i], 0.9);
    std::printf("  input %2zu -> class %zu (conf %.2f) after %zu/3 stages %s\n", i,
                r.label, r.confidence, r.stages_run,
                r.label == fresh.labels[i] ? "" : " [wrong]");
    correct += r.label == fresh.labels[i] ? 1 : 0;
    stages_total += r.stages_run;
  }
  std::printf("accuracy %zu/%zu, mean stages %.2f (3.0 = no early exit)\n", correct,
              fresh.size(), static_cast<double>(stages_total) / fresh.size());

  if (dump_metrics) std::printf("\n%s", eugene.metrics_text().c_str());
  return 0;
}
