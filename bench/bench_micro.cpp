// Google-benchmark microbenchmarks for Eugene's hot paths: tensor kernels,
// staged-model inference and each of its layers, one training sample, GP vs
// piecewise-linear confidence queries, scheduler pick overhead,
// process_batch on a pool of peer workers, and checkpoint durability (CRC32
// throughput, v2 save/load, the atomic-write tax).
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/failpoint.hpp"
#include "common/histogram.hpp"
#include "common/thread_annotations.hpp"
#include "common/trace.hpp"
#include "gp/confidence_curve.hpp"
#include "nn/loss.hpp"
#include "nn/residual.hpp"
#include "nn/serialize.hpp"
#include "nn/staged_model.hpp"
#include "sched/policy.hpp"
#include "serving/registry.hpp"
#include "serving/server.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace eugene;

void BM_Matmul(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  const tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(tensor::matmul(a, b));
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128);

// The raw GEMM core at a forced ISA arm (DESIGN.md §14): gemm_with_isa on
// row-major operands, the call arena-backed inference makes. The
// scalar/avx2 row pair is the per-machine SIMD speedup.
void BM_GemmKernel(benchmark::State& state) {
  const auto isa = static_cast<tensor::GemmIsa>(state.range(0));
  if (!tensor::gemm_isa_available(isa)) {
    state.SkipWithError("isa not available on this machine");
    return;
  }
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  Rng rng(12);
  const tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  const tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
  tensor::Tensor c({n, n});
  for (auto _ : state) {
    tensor::gemm_with_isa(isa, n, n, n, a.raw(), n, false, b.raw(), n, false,
                          0.0f, c.raw(), n);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetLabel(tensor::gemm_isa_name(isa));
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmKernel)
    ->Args({0, 128})
    ->Args({0, 256})
    ->Args({1, 128})
    ->Args({1, 256})
    ->ArgNames({"isa", "n"});

// The zero-alloc patch unroll feeding every conv GEMM: im2col into caller
// storage. Pure memory traffic — the bytes/s counter is the number to watch.
void BM_Im2colInto(benchmark::State& state) {
  const std::size_t c = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  tensor::Conv2dGeometry g;
  g.in_channels = c;
  g.out_channels = c;
  g.in_height = 16;
  g.in_width = 16;
  const tensor::Tensor img = tensor::Tensor::randn({c, 16, 16}, rng);
  std::vector<float> frame(tensor::im2col_frame_floats(g));
  std::vector<float> cols(c * 9 * g.out_height() * g.out_width());
  for (auto _ : state) {
    tensor::im2col_into(img.raw(), g, frame.data(), cols.data());
    benchmark::DoNotOptimize(cols.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * cols.size() * sizeof(float)));
}
BENCHMARK(BM_Im2colInto)->Arg(8)->Arg(16)->Arg(32);

void BM_StagedForward(benchmark::State& state) {
  nn::StagedResNetConfig cfg;
  nn::StagedModel model = nn::build_staged_resnet(cfg);
  Rng rng(3);
  const tensor::Tensor input = tensor::Tensor::randn({3, 16, 16}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(model.forward_all(input));
}
BENCHMARK(BM_StagedForward);

void BM_StagedFirstStageOnly(benchmark::State& state) {
  nn::StagedResNetConfig cfg;
  nn::StagedModel model = nn::build_staged_resnet(cfg);
  Rng rng(4);
  const tensor::Tensor input = tensor::Tensor::randn({3, 16, 16}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(model.run_stage(0, input));
}
BENCHMARK(BM_StagedFirstStageOnly);

// One training sample of the default StagedResNetConfig, shaped like
// StagedTrainer's: every stage's trunk and head forward with its head's
// loss, then backward from the last stage to the first, joining each
// trunk's gradient into the stage before it. servebench's setup.train_s
// pays this 6,400 times per setup (800 samples × 8 epochs); here gradients
// accumulate and no optimizer steps.
void BM_TrainSample(benchmark::State& state) {
  nn::StagedModel model = nn::build_staged_resnet(nn::StagedResNetConfig{});
  Rng rng(9);
  const tensor::Tensor image = tensor::Tensor::randn({3, 16, 16}, rng);
  const std::size_t label = 3;
  const std::size_t stages = model.num_stages();
  std::vector<tensor::Tensor> features(stages), grad_logits(stages);
  for (auto _ : state) {
    const tensor::Tensor* current = &image;
    for (std::size_t s = 0; s < stages; ++s) {
      features[s] = model.trunk(s).forward(*current);
      grad_logits[s] = nn::cross_entropy_with_entropy_reg(
                           model.head(s).forward(features[s]), label)
                           .grad_logits;
      current = &features[s];
    }
    tensor::Tensor grad_from_next;
    for (std::size_t s = stages; s-- > 0;) {
      tensor::Tensor grad_features = model.head(s).backward(grad_logits[s]);
      if (grad_from_next.numel() > 0) grad_features += grad_from_next;
      grad_from_next = model.trunk(s).backward(grad_features);
    }
    benchmark::DoNotOptimize(grad_from_next.raw());
  }
}
BENCHMARK(BM_TrainSample);

// Layer-by-layer rows of the served model (DESIGN.md §14): the staged
// ResNet servebench serves (StagedResNetConfig defaults, head_hidden 24),
// one row per layer run_stage runs, trunk then head, each registered as
// BM_StagedLayer/<stage>/<trunk|head>/<layer name>, so a new row shifts no
// other row's name. A residual block's row is followed by rows for its
// parts on the block's own activations: conv1, norm1+relu (norm1 with the
// ReLU folded in), conv2 and norm2+shortcut+relu, which together are what
// the block's infer() runs. Each row is one infer on a warm, reset arena;
// the GFLOP counter reads against BM_GemmKernel/isa:1/n:256 from the same
// run.
using InferFn =
    std::function<nn::ActivationView(const nn::ActivationView&, nn::ScratchArena&)>;

struct LayerProbe {
  std::string name;
  tensor::Tensor input;
  InferFn infer;
  double flops = 0.0;
};

InferFn infer_of(const nn::Layer& layer) {
  return [&layer](const nn::ActivationView& in, nn::ScratchArena& arena) {
    return layer.infer(in, arena);
  };
}

std::vector<LayerProbe> staged_layer_probes() {
  nn::StagedResNetConfig cfg;
  cfg.head_hidden = 24;
  static nn::StagedModel model = nn::build_staged_resnet(cfg);
  std::vector<LayerProbe> probes;
  Rng rng(6);
  tensor::Tensor x =
      tensor::Tensor::randn({cfg.in_channels, cfg.height, cfg.width}, rng);
  for (std::size_t s = 0; s < model.num_stages(); ++s) {
    tensor::Tensor features;
    for (nn::Sequential* part : {&model.trunk(s), &model.head(s)}) {
      const bool trunk = part == &model.trunk(s);
      const std::string prefix = std::to_string(s) + (trunk ? "/trunk/" : "/head/");
      for (std::size_t i = 0; i < part->size(); ++i) {
        const nn::Layer& layer = part->layer(i);
        const std::string name = prefix + layer.name();
        probes.push_back({name, x, infer_of(layer), layer.flops()});
        if (const auto* block = dynamic_cast<const nn::ResidualBlock*>(&layer)) {
          const nn::ChannelNorm& norm1 = block->norm1();
          const nn::ChannelNorm& norm2 = block->norm2();
          const tensor::Tensor c1 = nn::infer(block->conv1(), x);
          const tensor::Tensor r1 = nn::infer(nn::ReLU(), nn::infer(norm1, c1));
          const tensor::Tensor c2 = nn::infer(block->conv2(), r1);
          probes.push_back({name + "/conv1", x, infer_of(block->conv1()),
                            block->conv1().flops()});
          probes.push_back({name + "/norm1+relu", c1,
                            [&norm1](const nn::ActivationView& in,
                                     nn::ScratchArena& arena) {
                              return norm1.infer_folded(in, arena, /*relu=*/true);
                            }});
          probes.push_back({name + "/conv2", r1, infer_of(block->conv2()),
                            block->conv2().flops()});
          probes.push_back({name + "/norm2+shortcut+relu", c2,
                            [&norm2, shortcut = x](const nn::ActivationView& in,
                                                   nn::ScratchArena& arena) {
                              return norm2.infer_folded(in, arena, /*relu=*/true,
                                                        shortcut.raw());
                            }});
        }
        x = nn::infer(layer, x);
      }
      if (trunk) features = x;
    }
    x = features;
  }
  return probes;
}

void BM_StagedLayer(benchmark::State& state, const LayerProbe& probe) {
  const nn::ActivationView in = nn::ActivationView::of(probe.input);
  nn::ScratchArena arena;
  probe.infer(in, arena);  // warm the arena to this layer's size
  for (auto _ : state) {
    arena.reset();
    benchmark::DoNotOptimize(probe.infer(in, arena).data);
    benchmark::ClobberMemory();
  }
  if (probe.flops > 0.0)
    state.counters["GFLOP"] = benchmark::Counter(
        probe.flops * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
}

[[maybe_unused]] const bool kStagedLayerRows = [] {
  for (const LayerProbe& probe : staged_layer_probes())
    benchmark::RegisterBenchmark(("BM_StagedLayer/" + probe.name).c_str(),
                                 BM_StagedLayer, probe);
  return true;
}();

calib::StagedEvaluation make_curve_eval() {
  calib::StagedEvaluation eval;
  eval.records.resize(3);
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    const double c1 = rng.uniform(0.1, 0.9);
    for (std::size_t s = 0; s < 3; ++s) {
      calib::StageRecord r;
      r.confidence = static_cast<float>(std::min(1.0, c1 + 0.2 * (s + rng.uniform(0, 0.1))));
      eval.records[s].push_back(r);
    }
  }
  return eval;
}

gp::ConfidenceCurveModel make_curves() {
  gp::ConfidenceCurveModel curves;
  curves.fit(make_curve_eval());
  return curves;
}

void BM_GpExactPredict(benchmark::State& state) {
  const gp::GaussianProcess1D exact = gp::fit_pair_gp(make_curve_eval(), 0, 2);
  double x = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact.predict(x));
    x = x < 0.9 ? x + 0.001 : 0.1;
  }
}
BENCHMARK(BM_GpExactPredict);

void BM_GpPiecewisePredict(benchmark::State& state) {
  const auto curves = make_curves();
  double x = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(curves.predict(0, 2, x));
    x = x < 0.9 ? x + 0.001 : 0.1;
  }
}
BENCHMARK(BM_GpPiecewisePredict);

void BM_GreedyPolicyPick(benchmark::State& state) {
  const std::size_t n_tasks = static_cast<std::size_t>(state.range(0));
  const auto curves = make_curves();
  sched::GpUtilityEstimator estimator(curves);
  sched::GreedyUtilityPolicy policy(estimator, 1);
  std::vector<std::vector<double>> conf(n_tasks);
  std::vector<sched::TaskView> runnable(n_tasks);
  Rng rng(6);
  for (std::size_t i = 0; i < n_tasks; ++i) {
    if (i % 2 == 0) conf[i] = {rng.uniform(0.2, 0.9)};
    runnable[i].task_id = i;
    runnable[i].total_stages = 3;
    runnable[i].stages_done = conf[i].size();
    runnable[i].observed_confidence = conf[i];
  }
  for (auto _ : state) {
    policy.reset();
    benchmark::DoNotOptimize(policy.pick(runnable, 0.0));
  }
}
BENCHMARK(BM_GreedyPolicyPick)->Arg(10)->Arg(100)->Arg(1000);

// The failpoint contract (DESIGN.md §8): a disarmed EUGENE_FAILPOINT must
// cost one relaxed atomic load — under a nanosecond — so production code can
// carry injection sites unconditionally.
void BM_FailpointDisabled(benchmark::State& state) {
  FailpointRegistry::instance().disarm_all();
  for (auto _ : state) EUGENE_FAILPOINT("bench.never.armed");
}
BENCHMARK(BM_FailpointDisabled);

// With a different failpoint armed, every site pays the registry lookup.
// This is the cost of running *under chaos*, not the production overhead.
void BM_FailpointArmedOther(benchmark::State& state) {
  FailpointSpec spec;
  spec.probability = 0.0;  // armed but never fires
  FailpointRegistry::instance().arm("bench.other", spec);
  for (auto _ : state) EUGENE_FAILPOINT("bench.never.armed");
  FailpointRegistry::instance().disarm_all();
}
BENCHMARK(BM_FailpointArmedOther);

// Baseline for the disarmed failpoint's claim: one relaxed atomic load.
void BM_AtomicLoadBaseline(benchmark::State& state) {
  std::atomic<std::uint8_t> flag{0};
  for (auto _ : state)
    benchmark::DoNotOptimize(flag.load(std::memory_order_relaxed));
}
BENCHMARK(BM_AtomicLoadBaseline);

// ---- telemetry (DESIGN.md §12) --------------------------------------------

// Baseline for the histogram's record() claim: one relaxed fetch_add.
void BM_AtomicAddBaseline(benchmark::State& state) {
  std::atomic<std::uint64_t> n{0};
  for (auto _ : state) n.fetch_add(1, std::memory_order_relaxed);
  benchmark::DoNotOptimize(n.load());
}
BENCHMARK(BM_AtomicAddBaseline);

// record() sits on every stage-latency observation (the serving hot path),
// so it must cost about two relaxed fetch_adds plus the bit_cast slot math:
// at most ~2x BM_AtomicAddBaseline.
void BM_HistogramRecord(benchmark::State& state) {
  telemetry::LatencyHistogram h;
  double ms = 0.25;
  for (auto _ : state) {
    h.record(ms);
    ms = ms < 512.0 ? ms * 1.001 : 0.25;  // sweep slots; defeat branch memo
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecord);

// Quantile queries walk at most kSlots bucket counters — O(1) in the sample
// count.
void BM_HistogramQuantile(benchmark::State& state) {
  telemetry::LatencyHistogram h;
  Rng rng(8);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) h.record(rng.uniform(0.5, 50.0));
  for (auto _ : state) benchmark::DoNotOptimize(h.quantile(0.95));
}
BENCHMARK(BM_HistogramQuantile)->Arg(64)->Arg(4096)->ArgName("samples");

// End-to-end tracing tax: a full process_batch with spans recorded for every
// request (arg=1) vs the null-handle fast path (arg=0). The issue's bar:
// traced adds < 5% per-request latency. Metrics are disabled in both arms so
// the rows isolate the tracing delta alone.
void BM_TracedRequest(benchmark::State& state) {
  nn::StagedResNetConfig arch;
  arch.in_channels = 2;
  arch.height = 8;
  arch.width = 8;
  arch.num_classes = 4;
  arch.stage_channels = {3, 4};
  arch.head_hidden = 8;
  auto entry =
      std::make_shared<serving::ModelEntry>("bench", nn::build_staged_resnet(arch));
  calib::StagedEvaluation eval;
  eval.records.resize(2);
  Rng rng(10);
  for (int i = 0; i < 200; ++i) {
    const double base = rng.uniform(0.1, 0.9);
    for (std::size_t s = 0; s < 2; ++s) {
      calib::StageRecord r;
      r.confidence = static_cast<float>(
          std::min(1.0, base + 0.2 * (static_cast<double>(s) + rng.uniform(0.0, 0.1))));
      eval.records[s].push_back(r);
    }
  }
  entry->curves.fit(eval);
  entry->stage_ms = {1.0, 1.0};
  serving::ModelRegistry registry;
  const std::size_t handle = registry.add_entry(std::move(entry));
  const serving::ModelRegistry::ViewPtr view = registry.pin();

  telemetry::TraceRecorder recorder(4096);
  serving::ServerConfig cfg;
  cfg.metrics = nullptr;
  cfg.trace = state.range(0) != 0 ? &recorder : nullptr;
  serving::InferenceServer server(view->entry(handle), cfg);
  std::vector<serving::InferenceRequest> requests;
  for (int i = 0; i < 8; ++i)
    requests.push_back({tensor::Tensor::randn({2, 8, 8}, rng), 0});

  std::size_t batches = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.process_batch(requests));
    ++batches;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(batches * requests.size()));
}
BENCHMARK(BM_TracedRequest)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("traced")
    ->Unit(benchmark::kMillisecond);

// The worker pool on the service path: one process_batch of 256 requests at
// full depth on the quickstart resnet, run by `workers` peer workers (the
// calling thread plus workers - 1 helpers). items/s is requests per second;
// workers=1 is the inline loop, so the ratio of rows is what the pool buys.
void BM_InferBatchWorkers(benchmark::State& state) {
  auto entry = std::make_shared<serving::ModelEntry>(
      "bench", nn::build_staged_resnet(nn::StagedResNetConfig{}));
  entry->curves = make_curves();
  serving::ModelRegistry registry;
  const std::size_t handle = registry.add_entry(std::move(entry));
  const serving::ModelRegistry::ViewPtr view = registry.pin();
  serving::ServerConfig cfg;
  cfg.early_exit_confidence = 2.0;  // full depth
  cfg.metrics = nullptr;
  cfg.workers = static_cast<std::size_t>(state.range(0));
  serving::InferenceServer server(view->entry(handle), cfg);
  Rng rng(15);
  std::vector<serving::InferenceRequest> requests;
  for (int i = 0; i < 256; ++i)
    requests.push_back({tensor::Tensor::randn({3, 16, 16}, rng), 0});

  for (auto _ : state) benchmark::DoNotOptimize(server.process_batch(requests));
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * requests.size()));
}
BENCHMARK(BM_InferBatchWorkers)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->ArgName("workers")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---- lock-rank checker (DESIGN.md §10) ------------------------------------

// The zero-overhead claim for the deadlock-order analysis: in builds with
// EUGENE_LOCK_RANK_CHECKS=0 (the Release preset) eugene::Mutex::lock() must
// compile down to std::mutex::lock() — compare against BM_StdMutexLock below.
// In checked builds the delta is the per-thread held-stack bookkeeping, which
// is the price every non-Release preset pays for inversion detection.
void BM_MutexRankedLock(benchmark::State& state) {
  Mutex mu(LockRank::kEngine, "bench_mutex");
  for (auto _ : state) {
    mu.lock();
    mu.unlock();
  }
}
BENCHMARK(BM_MutexRankedLock);

// Baseline: the raw standard-library mutex the wrapper is built on.
void BM_StdMutexLock(benchmark::State& state) {
  std::mutex mu;
  for (auto _ : state) {
    mu.lock();
    mu.unlock();
  }
}
BENCHMARK(BM_StdMutexLock);

// ---- durability (DESIGN.md §9) --------------------------------------------

// The integrity tax on every checkpoint byte: raw CRC32 throughput.
void BM_Crc32(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> data(n);
  Rng rng(6);
  for (auto& b : data)
    b = static_cast<std::uint8_t>(rng.uniform(0.0, 255.0));
  for (auto _ : state) benchmark::DoNotOptimize(crc32(data.data(), data.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_Crc32)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

nn::StagedModel bench_checkpoint_model() {
  nn::StagedResNetConfig cfg;  // default: the quickstart architecture
  return nn::build_staged_resnet(cfg);
}

// v2 checkpoint encode: body serialization + CRC, no disk. The delta
// against BM_Crc32 at the same byte count is the pure framing cost.
void BM_CheckpointSaveV2(benchmark::State& state) {
  const nn::StagedModel model = bench_checkpoint_model();
  const nn::ParamValues params = model.param_values();
  const std::size_t bytes = nn::serialized_size_bytes(params);
  for (auto _ : state) {
    std::ostringstream out(std::ios::binary);
    nn::save_params(params, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_CheckpointSaveV2);

// v2 checkpoint decode: a chunked read of the whole stream, the blob checks
// (magic, version, length, CRC), and the shape-checked copy into live
// tensors.
void BM_CheckpointLoadV2(benchmark::State& state) {
  nn::StagedModel model = bench_checkpoint_model();
  const auto params = model.params();
  std::ostringstream out(std::ios::binary);
  nn::save_params(model.param_values(), out);
  const std::string bytes = out.str();
  for (auto _ : state) {
    std::istringstream in(bytes, std::ios::binary);
    nn::load_params(params, in);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * bytes.size()));
}
BENCHMARK(BM_CheckpointLoadV2);

// Full durable round trip through the atomic writer: temp file + fsync +
// rename. The gap against BM_CheckpointSaveV2 is what crash safety costs.
void BM_CheckpointSaveFileAtomic(benchmark::State& state) {
  const nn::StagedModel model = bench_checkpoint_model();
  const nn::ParamValues params = model.param_values();
  const std::string path =
      "/tmp/eugene_bench_ckpt_" + std::to_string(::getpid()) + ".params";
  for (auto _ : state) nn::save_params_file(params, path);
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * nn::serialized_size_bytes(params)));
  std::remove(path.c_str());
}
BENCHMARK(BM_CheckpointSaveFileAtomic);

// ---- epoch-pinned registry reads (DESIGN.md §13) --------------------------

serving::ModelRegistry& bench_registry() {
  static serving::ModelRegistry* registry = [] {
    auto* r = new serving::ModelRegistry();  // leaked on purpose: bench-lived
    nn::StagedResNetConfig cfg;
    cfg.stage_channels = {4, 8};
    r->add("bench", nn::build_staged_resnet(cfg));
    return r;
  }();
  return *registry;
}

// The per-request read the serving path performs: pin the current epoch
// (a shared_ptr copy under the registry's view mutex) and touch the entry.
// This is the hot half of the zero-downtime design. Its win is independence,
// not raw latency: a writer cloning and building the next epoch never makes
// this read wait; only the publish's pointer swap can, and that is a
// critical section as short as this one.
void BM_RegistryEpochRead(benchmark::State& state) {
  serving::ModelRegistry& registry = bench_registry();
  for (auto _ : state) {
    const serving::ModelRegistry::ViewPtr view = registry.pin();
    benchmark::DoNotOptimize(view->entry(0).calibrated);
  }
}
BENCHMARK(BM_RegistryEpochRead);

}  // namespace

// BENCHMARK_MAIN plus the GEMM kernel level every benchmark ran on, in the
// JSON report's context block, where scripts/bench_snapshot.py records it.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("gemm_isa",
                              tensor::gemm_isa_name(tensor::active_gemm_isa()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
