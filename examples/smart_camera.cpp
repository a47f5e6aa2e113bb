// Smart-camera edge server with service classes (paper §V extension).
//
// Two tenants share one Eugene edge server:
//   * "chatbot"  — interactive, tight deadline, high utility weight;
//   * "camera"   — surveillance stream, loose deadline, normal weight.
// The weighted utility scheduler gives chatbot requests priority for early
// stages while camera requests absorb the remaining capacity.
//
// Build & run:  ./build/examples/smart_camera
// Pass --metrics to also dump the process-wide metrics registry in the
// eugene-metrics v1 format.
#include <cstdio>
#include <cstring>

#include "core/eugene_service.hpp"
#include "data/synthetic_images.hpp"
#include "serving/usage.hpp"

using namespace eugene;

int main(int argc, char** argv) {
  bool dump_metrics = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--metrics") == 0) dump_metrics = true;
  data::SyntheticImageConfig sensor;
  Rng rng(11);
  const data::Dataset train_set = data::generate_images(sensor, 1200, rng);
  const data::Dataset calib_set = data::generate_images(sensor, 400, rng);

  core::EugeneService eugene;
  nn::StagedResNetConfig arch;
  arch.head_hidden = 24;
  nn::StagedTrainConfig tcfg;
  tcfg.epochs = 10;
  const std::size_t model = eugene.train("edge-vision", train_set, arch, tcfg);
  eugene.calibrate(model, calib_set);

  // One batch mixing both tenants' requests.
  serving::ServerConfig server;
  server.classes = {
      {"chatbot", /*deadline_ms=*/40.0, /*utility_weight=*/4.0},
      {"camera", /*deadline_ms=*/500.0, /*utility_weight=*/1.0},
  };
  server.early_exit_confidence = 0.9;

  const data::Dataset traffic = data::generate_images(sensor, 40, rng);
  std::vector<serving::InferenceRequest> requests;
  for (std::size_t i = 0; i < traffic.size(); ++i)
    requests.push_back({traffic.samples[i], i % 2});  // alternate tenants

  const auto responses = eugene.infer_batch(model, requests, server);

  // Per-tenant summary.
  for (std::size_t cls = 0; cls < 2; ++cls) {
    std::size_t count = 0, correct = 0, expired = 0, stages = 0;
    double latency = 0.0;
    for (std::size_t i = 0; i < responses.size(); ++i) {
      if (requests[i].service_class != cls) continue;
      ++count;
      correct += responses[i].label == traffic.labels[i] ? 1 : 0;
      expired += responses[i].expired ? 1 : 0;
      stages += responses[i].stages_run;
      latency += responses[i].latency_ms;
    }
    std::printf("%-8s: %2zu requests, accuracy %5.1f%%, mean stages %.2f, "
                "mean latency %6.2f ms, expired %zu\n",
                server.classes[cls].name.c_str(), count,
                100.0 * correct / count, static_cast<double>(stages) / count,
                latency / count, expired);
  }
  std::printf("\nThe chatbot class gets more scheduler attention (weight 4x) and a\n"
              "40 ms deadline; the camera class tolerates full-depth execution.\n");

  // -- usage metering & pricing (paper §V: "a pricing structure ... informed
  // of the true resource cost imposed by clients of each class") ----------
  serving::UsageMeter meter(eugene.profile(model, {3, 16, 16}), {"chatbot", "camera"});
  meter.record(requests, responses, 3);
  serving::PricingPolicy pricing{/*per_compute_ms=*/0.02, /*per_request=*/0.05};
  std::printf("\nbilling report (%.2f credits/ms + %.2f credits/request):\n",
              pricing.per_compute_ms, pricing.per_request);
  const std::vector<serving::ClassUsage> usage = meter.usage();
  for (std::size_t cls = 0; cls < usage.size(); ++cls) {
    const serving::ClassUsage& u = usage[cls];
    std::printf("  %-8s: %5.1f compute-ms over %zu stage runs -> %.2f credits\n",
                u.class_name.c_str(), u.compute_ms, u.stages_executed,
                meter.charge(cls, pricing));
  }
  std::printf("  total: %.2f credits\n", meter.total_charge(pricing));

  if (dump_metrics) std::printf("\n%s", eugene.metrics_text().c_str());
  return 0;
}
