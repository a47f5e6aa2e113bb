// Tests for the paper's explicitly-called-out extensions implemented in
// Eugene: client/server model partitioning (§IV-A), usage metering for
// pricing (§V), rogue-contributor pool screening (§V), and the staged MLP
// for non-image workloads.
#include <gtest/gtest.h>

#include "common/metrics.hpp"
#include "data/synthetic_images.hpp"
#include "data/timeseries.hpp"
#include "labeling/pool_guard.hpp"
#include "nn/train.hpp"
#include "sched/partition.hpp"
#include "serving/usage.hpp"

namespace eugene {
namespace {

// ------------------------------------------------------------- partition

std::vector<sched::StageInfo> synthetic_stages() {
  // Three stages: cheap/large-features, medium, expensive/small-features.
  return {
      {1.0e6, 4000, 8192},
      {2.0e6, 8000, 4096},
      {4.0e6, 16000, 40},
  };
}

TEST(Partition, SurvivalCurveIsMonotoneNonIncreasing) {
  calib::StagedEvaluation eval;
  eval.records.resize(3);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    double c = rng.uniform(0.2, 0.6);
    for (std::size_t s = 0; s < 3; ++s) {
      calib::StageRecord r;
      c = std::min(1.0, c + rng.uniform(0.0, 0.3));
      r.confidence = static_cast<float>(c);
      eval.records[s].push_back(r);
    }
  }
  const auto survival = sched::survival_curve(eval, 0.8);
  ASSERT_EQ(survival.size(), 3u);
  EXPECT_GE(survival[0], survival[1]);
  EXPECT_GE(survival[1], survival[2]);
  for (double v : survival) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Partition, PureOffloadWinsOnSlowDevices) {
  sched::PartitionConfig cfg;
  cfg.device.flops_per_ms = 1e3;  // pitifully slow device
  cfg.server.flops_per_ms = 1e7;
  cfg.link.bytes_per_ms = 1e5;
  cfg.link.rtt_ms = 1.0;
  cfg.input_bytes = 3072;
  const std::vector<double> survival = {0.5, 0.3, 0.0};
  const auto plan = sched::plan_partition(synthetic_stages(), survival, cfg);
  EXPECT_EQ(plan.split, 0u);
  EXPECT_DOUBLE_EQ(plan.offload_probability, 1.0);
}

TEST(Partition, FullyLocalWinsOnFastDevicesWithSlowLinks) {
  sched::PartitionConfig cfg;
  cfg.device.flops_per_ms = 1e7;
  cfg.server.flops_per_ms = 1e7;
  cfg.link.bytes_per_ms = 1.0;  // effectively no link
  cfg.link.rtt_ms = 500.0;
  cfg.input_bytes = 3072;
  const std::vector<double> survival = {0.5, 0.3, 0.0};
  const auto plan = sched::plan_partition(synthetic_stages(), survival, cfg);
  EXPECT_EQ(plan.split, 3u);
  EXPECT_DOUBLE_EQ(plan.upload_ms, 0.0);
  EXPECT_DOUBLE_EQ(plan.server_ms, 0.0);
}

TEST(Partition, EarlyExitProbabilityShiftsTheSplit) {
  // Slow device, slow uplink. When stage-1 confidence almost always clears
  // the exit threshold, running stage 1 locally answers most requests and
  // the planner keeps a local prefix; when exits are rare, everything ships
  // to the server immediately.
  sched::PartitionConfig cfg;
  cfg.device.flops_per_ms = 2e4;   // device 100x slower than server
  cfg.server.flops_per_ms = 2e6;
  cfg.link.bytes_per_ms = 50.0;    // slow uplink
  cfg.link.rtt_ms = 20.0;
  cfg.input_bytes = 3072;

  const std::vector<double> rarely_exits = {0.95, 0.9, 0.0};
  const std::vector<double> usually_exits = {0.05, 0.02, 0.0};
  const auto plan_rare =
      sched::plan_partition(synthetic_stages(), rarely_exits, cfg);
  const auto plan_often =
      sched::plan_partition(synthetic_stages(), usually_exits, cfg);
  EXPECT_EQ(plan_rare.split, 0u) << "rare exits + slow device: pure offload";
  EXPECT_GT(plan_often.split, 0u) << "frequent exits justify a local prefix";
  EXPECT_LT(plan_often.expected_latency_ms, plan_rare.expected_latency_ms);
  EXPECT_LT(plan_often.offload_probability, 0.1);
}

TEST(Partition, DeviceBudgetExcludesInfeasibleSplits) {
  sched::PartitionConfig cfg;
  cfg.device.flops_per_ms = 1e7;
  cfg.device.max_model_bytes = 5000;  // only stage 0 fits
  cfg.server.flops_per_ms = 1e7;
  cfg.link.bytes_per_ms = 1e4;
  const std::vector<double> survival = {0.0, 0.0, 0.0};  // always exits locally
  const auto plans = sched::evaluate_partitions(synthetic_stages(), survival, cfg);
  ASSERT_EQ(plans.size(), 4u);
  EXPECT_TRUE(plans[0].fits_device);
  EXPECT_TRUE(plans[1].fits_device);
  EXPECT_FALSE(plans[2].fits_device);  // 4000+8000 > 5000
  EXPECT_FALSE(plans[3].fits_device);
  const auto best = sched::plan_partition(synthetic_stages(), survival, cfg);
  EXPECT_LE(best.split, 1u);
}

TEST(Partition, StageInfosFromRealModel) {
  nn::StagedResNetConfig cfg;
  cfg.in_channels = 2;
  cfg.height = 8;
  cfg.width = 8;
  cfg.num_classes = 4;
  cfg.stage_channels = {4, 6, 8};
  nn::StagedModel model = nn::build_staged_resnet(cfg);
  Rng rng(2);
  const auto infos =
      sched::stage_infos(model, tensor::Tensor::randn({2, 8, 8}, rng));
  ASSERT_EQ(infos.size(), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_GT(infos[s].flops, 0.0);
    EXPECT_GT(infos[s].param_bytes, 0u);
    EXPECT_GT(infos[s].output_bytes, 0u);
    EXPECT_DOUBLE_EQ(infos[s].flops, model.stage_flops(s));
    EXPECT_EQ(infos[s].param_bytes, model.stage_param_bytes(s));
  }
  // Feature sizes: stage 0 keeps 8x8 at 4 channels; stage 2 is 8ch at 2x2.
  EXPECT_EQ(infos[0].output_bytes, 4u * 8 * 8 * 4);
  EXPECT_EQ(infos[2].output_bytes, 8u * 2 * 2 * 4);
}

// ------------------------------------------------------------ usage meter

TEST(UsageMeter, AccumulatesPerClassAndCharges) {
  serving::UsageMeter meter({10.0, 20.0, 30.0}, {"chatbot", "camera"});

  std::vector<serving::InferenceRequest> requests(3);
  requests[0].service_class = 0;
  requests[1].service_class = 1;
  requests[2].service_class = 0;
  std::vector<serving::InferenceResponse> responses(3);
  responses[0].stages_run = 3;                          // full depth
  responses[1].stages_run = 1;                          // early exit
  responses[2].stages_run = 2;
  responses[2].expired = true;                          // killed at deadline
  meter.record(requests, responses, 3);

  const auto& usage = meter.usage();
  ASSERT_EQ(usage.size(), 2u);
  EXPECT_EQ(usage[0].requests, 2u);
  EXPECT_EQ(usage[0].stages_executed, 5u);
  EXPECT_DOUBLE_EQ(usage[0].compute_ms, (10.0 + 20.0 + 30.0) + (10.0 + 20.0));
  EXPECT_EQ(usage[0].expired, 1u);
  EXPECT_EQ(usage[0].early_exits, 0u);  // the 2-stage one expired, not exited
  EXPECT_EQ(usage[1].early_exits, 1u);
  EXPECT_DOUBLE_EQ(usage[1].compute_ms, 10.0);

  serving::PricingPolicy pricing{0.01, 0.05};
  EXPECT_DOUBLE_EQ(meter.charge(0, pricing), 0.05 * 2 + 0.01 * 90.0);
  EXPECT_DOUBLE_EQ(meter.charge(1, pricing), 0.05 + 0.01 * 10.0);
  EXPECT_DOUBLE_EQ(meter.total_charge(pricing),
                   meter.charge(0, pricing) + meter.charge(1, pricing));
}

TEST(UsageMeter, ValidatesInputs) {
  const std::vector<double> stage_ms{10.0};
  EXPECT_THROW(serving::UsageMeter(stage_ms, {}), InvalidArgument);
  serving::UsageMeter meter(stage_ms, {"a"});
  std::vector<serving::InferenceRequest> requests(1);
  requests[0].service_class = 7;
  std::vector<serving::InferenceResponse> responses(1);
  responses[0].stages_run = 1;
  // A rejected batch counts nowhere: not in the ledger, not in the metrics.
  telemetry::MetricsRegistry& metrics = telemetry::MetricsRegistry::global();
  const std::uint64_t requests_before = metrics.counter("usage.requests").value();
  const std::uint64_t stages_before = metrics.counter("usage.stages_executed").value();
  EXPECT_THROW(meter.record(requests, responses, 1), InvalidArgument);
  EXPECT_EQ(metrics.counter("usage.requests").value(), requests_before);
  EXPECT_EQ(metrics.counter("usage.stages_executed").value(), stages_before);
  EXPECT_EQ(meter.usage()[0].requests, 0u);
}

// -------------------------------------------------------------- pool guard

TEST(PoolGuard, FlagsTheLabelFlippingContributor) {
  data::SyntheticImageConfig dc;
  dc.num_classes = 4;
  dc.channels = 2;
  dc.height = 8;
  dc.width = 8;
  dc.noise_stddev = 0.15;
  Rng rng(3);

  std::vector<labeling::Contribution> pool;
  for (std::size_t device = 0; device < 5; ++device) {
    labeling::Contribution c;
    c.device_id = device;
    c.data = data::generate_images(dc, 80, rng);
    pool.push_back(std::move(c));
  }
  // Device 3 goes rogue: flips 60% of its labels (keeping 40% good data
  // "to avoid suspicion", as the paper worries).
  for (std::size_t i = 0; i < pool[3].data.size(); ++i)
    if (i % 5 < 3)
      pool[3].data.labels[i] = (pool[3].data.labels[i] + 1) % 4;

  const auto factory = [](std::uint64_t variant) {
    Rng r(900 + variant);
    nn::Sequential net;
    net.add(std::make_unique<nn::Flatten>())
        .add(std::make_unique<nn::Dense>(2 * 8 * 8, 24, r))
        .add(std::make_unique<nn::ReLU>())
        .add(std::make_unique<nn::Dense>(24, 4, r));
    return net;
  };
  labeling::PoolGuardConfig cfg;
  cfg.training.epochs = 8;
  const auto reports = labeling::screen_pool(pool, factory, cfg);
  ASSERT_EQ(reports.size(), 5u);
  EXPECT_TRUE(reports[3].flagged) << "rate " << reports[3].disagreement_rate;
  for (std::size_t d : {0u, 1u, 2u, 4u})
    EXPECT_FALSE(reports[d].flagged) << "device " << d << " rate "
                                     << reports[d].disagreement_rate;
  EXPECT_GT(reports[3].disagreement_rate, reports[0].disagreement_rate + 0.2);

  const data::Dataset cleaned = labeling::clean_pool(pool, reports);
  EXPECT_EQ(cleaned.size(), 4u * 80u);
}

TEST(PoolGuard, RequiresEnoughContributors) {
  std::vector<labeling::Contribution> two(2);
  EXPECT_THROW(
      labeling::screen_pool(two, [](std::uint64_t) { return nn::Sequential(); }, {}),
      InvalidArgument);
}

// -------------------------------------------------------------- staged MLP

TEST(StagedMlp, BuildsAndLearnsTimeSeries) {
  data::TimeSeriesConfig ts;
  ts.num_classes = 4;
  ts.channels = 3;
  ts.length = 32;
  Rng rng(4);
  const data::Dataset train = data::generate_series(ts, 250, rng);
  const data::Dataset test = data::generate_series(ts, 120, rng);

  nn::StagedMlpConfig cfg;
  cfg.input_dim = 3 * 32;
  cfg.num_classes = 4;
  cfg.stage_widths = {24, 24, 24};
  nn::StagedModel model = nn::build_staged_mlp(cfg);
  EXPECT_EQ(model.num_stages(), 3u);

  nn::StagedTrainConfig tcfg;
  tcfg.epochs = 8;
  nn::StagedTrainer trainer(model, tcfg);
  trainer.fit(train.samples, train.labels);
  const double acc =
      nn::StagedTrainer::evaluate_accuracy(model, test.samples, test.labels, 2);
  EXPECT_GT(acc, 0.6) << "4-class time series; chance is 0.25";

  // Multi-exit structure works end to end: stage outputs are distributions.
  const auto outputs = model.forward_all(test.samples[0]);
  ASSERT_EQ(outputs.size(), 3u);
  for (const auto& out : outputs) EXPECT_EQ(out.probs.size(), 4u);
}

}  // namespace
}  // namespace eugene
