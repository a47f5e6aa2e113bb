// Scratch-arena and inference tests (DESIGN.md §14): bump-allocator
// mechanics, bitwise equivalence of every layer's infer() with its training
// forward and of run_stage_batch with run_stage, and the zero-heap-allocation
// steady state of run_stage_batch.
//
// This binary overrides global operator new/delete with counting versions,
// which is why it lives in its own test executable: the counters must see
// every allocation the measured region performs, and nothing else in the
// process may be confounded by the override.
#include <gtest/gtest.h>

// GCC pairs the replaced operator new with the *default* delete when
// diagnosing, so every free() below trips -Wmismatched-new-delete even
// though new/delete here are consistently malloc/free-backed.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "nn/arena.hpp"
#include "nn/residual.hpp"
#include "nn/staged_model.hpp"
#include "tensor/gemm.hpp"

namespace {
std::atomic<std::size_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_heap_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace eugene::nn {
namespace {

using tensor::Tensor;

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  ScratchArena arena;
  float* a = arena.alloc(7);
  float* b = arena.alloc(100);
  float* c = arena.alloc(1);
  for (float* p : {a, b, c})
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
  // 7 floats round up to one 16-float unit; no overlap with the next block.
  EXPECT_GE(b, a + 16);
  EXPECT_GE(c, b + 100);
  EXPECT_EQ(arena.used_floats(), 16u + 112u + 16u);
  // A zero request is a unique pointer too: it takes one unit, on a fresh
  // arena and on this warm one alike.
  ScratchArena fresh;
  for (ScratchArena* ar : {&fresh, &arena}) {
    float* zero = ar->alloc(0);
    float* next = ar->alloc(1);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(zero) % 64, 0u);
    EXPECT_GE(next, zero + 16);
  }
  EXPECT_EQ(fresh.used_floats(), 16u + 16u);
  EXPECT_EQ(arena.used_floats(), 16u + 112u + 16u + 16u + 16u);
}

TEST(Arena, ResetRecyclesWithoutNewBlocks) {
  ScratchArena arena;
  arena.alloc(1000);
  arena.alloc(3000);
  arena.reset();
  const std::size_t heap_after_warmup = arena.heap_allocations();
  for (int round = 0; round < 5; ++round) {
    arena.alloc(1000);
    arena.alloc(3000);
    arena.reset();
  }
  EXPECT_EQ(arena.heap_allocations(), heap_after_warmup);
  EXPECT_EQ(arena.used_floats(), 0u);
  EXPECT_GE(arena.high_water_floats(), 4000u);
}

TEST(Arena, CoalescesFragmentedBlocksOnReset) {
  // Force fragmentation: a small first block, then an allocation too big
  // for it. After reset the combined capacity must serve both at once.
  ScratchArena arena(64);
  arena.alloc(60);
  arena.alloc(100000);
  arena.reset();
  const std::size_t heap_after = arena.heap_allocations();
  float* big = arena.alloc(100000);
  float* more = arena.alloc(60);
  EXPECT_NE(big, nullptr);
  EXPECT_NE(more, nullptr);
  EXPECT_EQ(arena.heap_allocations(), heap_after);
}

std::vector<Tensor> random_batch(const tensor::Shape& shape, std::size_t n,
                                 Rng& rng) {
  std::vector<Tensor> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(Tensor::randn(shape, rng));
  return out;
}

TEST(Arena, PackBatchRejectsMismatchedShapes) {
  // run_stage_batch runs its inputs one at a time, so an input whose shape
  // the stage cannot take is rejected by the first layer it reaches.
  StagedResNetConfig cfg;
  cfg.in_channels = 2;
  cfg.height = 8;
  cfg.width = 8;
  cfg.num_classes = 3;
  cfg.stage_channels = {4};
  const StagedModel model = build_staged_resnet(cfg);
  Rng rng(4);
  const Tensor a = Tensor::randn({2, 8, 8}, rng);
  const Tensor b = Tensor::randn({2, 8, 7}, rng);
  ScratchArena arena;
  const Tensor* samples[] = {&a, &b};
  std::vector<StageBatchItem> items(2);
  EXPECT_THROW(model.run_stage_batch(0, samples, items, arena), InvalidArgument);
  EXPECT_THROW(model.run_stage_batch(0, samples, std::span(items).first(1), arena),
               InvalidArgument);
  // Inference views its input in place, so it checks the rank an
  // ActivationView can hold before any layer runs.
  const Tensor rank5 = Tensor::randn({1, 2, 1, 2, 2}, rng);
  EXPECT_THROW(infer(ReLU(), rank5), InvalidArgument);
  StagedMlpConfig mlp;
  mlp.input_dim = rank5.numel();
  EXPECT_THROW(build_staged_mlp(mlp).run_stage(0, rank5), InvalidArgument);
}

// ------------------------------------------------- inference equivalence

/// Asserts infer(layer, sample) is bitwise-equal to the layer's training
/// forward of the same sample (the Layer::infer contract), for each sample.
void expect_infer_matches_forward(Layer& layer, const std::vector<Tensor>& samples) {
  for (std::size_t b = 0; b < samples.size(); ++b) {
    const Tensor got = infer(layer, samples[b]);
    const Tensor want = layer.forward(samples[b]);
    ASSERT_TRUE(got.same_shape(want)) << layer.name();
    for (std::size_t i = 0; i < want.numel(); ++i)
      EXPECT_EQ(got.data()[i], want.data()[i])
          << layer.name() << " sample " << b << " element " << i;
  }
}

TEST(BatchedForward, Conv2dMatchesPerSample) {
  Rng rng(11);
  struct Case {
    std::size_t in_c, out_c, h, w, kernel, stride, pad;
  };
  const Case cases[] = {
      // out_width 7 < 8: the explicit im2col + GEMM branch.
      {3, 5, 9, 7, 3, 1, 1},
      // Stride 1 and out_width >= 8: the implicit-im2col branch every served
      // stage-0 and stage-1 conv takes.
      {3, 8, 10, 10, 3, 1, 1},
      // Implicit im2col at other frame offsets: no padding, wider and
      // narrower kernels.
      {2, 6, 12, 12, 5, 1, 0},
      {4, 7, 9, 10, 1, 1, 0},
      // Stride 2: explicit im2col.
      {3, 5, 11, 17, 3, 2, 1},
      // m above gemm_rows_max_m(): the packed GEMM with arena workspace.
      {3, 64, 8, 9, 3, 1, 1},
  };
  ASSERT_GT(64u, tensor::gemm_rows_max_m());
  for (const Case& c : cases) {
    tensor::Conv2dGeometry g;
    g.in_channels = c.in_c;
    g.out_channels = c.out_c;
    g.in_height = c.h;
    g.in_width = c.w;
    g.kernel = c.kernel;
    g.stride = c.stride;
    g.padding = c.pad;
    Conv2d conv(g, rng);
    expect_infer_matches_forward(conv, random_batch({c.in_c, c.h, c.w}, 3, rng));
  }
}

TEST(BatchedForward, DenseMatchesPerSample) {
  Rng rng(12);
  Dense dense(13, 6, rng);
  expect_infer_matches_forward(dense, random_batch({13}, 5, rng));
}

TEST(BatchedForward, ActivationAndNormLayersMatchPerSample) {
  Rng rng(13);
  ReLU relu;
  expect_infer_matches_forward(relu, random_batch({2, 4, 4}, 3, rng));
  ChannelNorm norm(4);
  expect_infer_matches_forward(norm, random_batch({4, 5, 3}, 3, rng));
  MaxPool2 pool;
  expect_infer_matches_forward(pool, random_batch({2, 6, 8}, 3, rng));
  GlobalAvgPool gap;
  expect_infer_matches_forward(gap, random_batch({3, 4, 4}, 3, rng));
  Flatten flatten;
  expect_infer_matches_forward(flatten, random_batch({2, 3, 4}, 3, rng));
  // Dropout's training forward drops units; its inference is the identity.
  const Dropout dropout(0.5f, 99);
  for (const Tensor& sample : random_batch({2, 3, 3}, 3, rng)) {
    const Tensor got = infer(dropout, sample);
    for (std::size_t i = 0; i < sample.numel(); ++i)
      EXPECT_EQ(got.data()[i], sample.data()[i]) << "element " << i;
  }
}

TEST(BatchedForward, ResidualBlockMatchesPerSample) {
  Rng rng(14);
  ResidualBlock block(4, 6, 6, rng);
  expect_infer_matches_forward(block, random_batch({4, 6, 6}, 3, rng));
}

TEST(BatchedForward, RunStageBatchMatchesRunStageResnet) {
  StagedResNetConfig cfg;
  cfg.in_channels = 2;
  cfg.height = 8;
  cfg.width = 8;
  cfg.num_classes = 4;
  cfg.stage_channels = {4, 6};
  cfg.head_hidden = 5;
  cfg.head_dropout = 0.1f;  // exercised as inference identity
  StagedModel model = build_staged_resnet(cfg);

  Rng rng(16);
  std::vector<Tensor> inputs = random_batch({2, 8, 8}, 5, rng);
  ScratchArena arena;
  std::vector<const Tensor*> ptrs;
  for (const Tensor& t : inputs) ptrs.push_back(&t);
  std::vector<StageBatchItem> items(inputs.size());

  for (std::size_t s = 0; s < model.num_stages(); ++s) {
    arena.reset();
    model.run_stage_batch(s, ptrs, items, arena);
    for (std::size_t b = 0; b < inputs.size(); ++b) {
      const StageOutput want = model.run_stage(s, *ptrs[b]);
      EXPECT_EQ(items[b].predicted_label, want.predicted_label) << s << "/" << b;
      EXPECT_EQ(items[b].confidence, want.confidence) << s << "/" << b;
      ASSERT_EQ(items[b].probs.size(), want.probs.size());
      for (std::size_t c = 0; c < want.probs.size(); ++c)
        EXPECT_EQ(items[b].probs[c], want.probs[c]) << s << "/" << b << "/" << c;
      ASSERT_EQ(items[b].features.numel(), want.features.numel());
      for (std::size_t i = 0; i < want.features.numel(); ++i)
        EXPECT_EQ(items[b].features.data()[i], want.features.data()[i])
            << s << "/" << b << "/" << i;
    }
    // Chain stage s's batched features into stage s+1 per sample.
    inputs.clear();
    for (StageBatchItem& item : items) inputs.push_back(item.features);
    ptrs.clear();
    for (const Tensor& t : inputs) ptrs.push_back(&t);
  }
}

TEST(BatchedForward, RunStageBatchMatchesRunStageMlp) {
  StagedMlpConfig cfg;
  cfg.input_dim = 2 * 3 * 4;
  cfg.num_classes = 3;
  cfg.stage_widths = {10, 8};
  StagedModel model = build_staged_mlp(cfg);

  Rng rng(17);
  const std::vector<Tensor> inputs = random_batch({2, 3, 4}, 4, rng);
  ScratchArena arena;
  std::vector<const Tensor*> ptrs;
  for (const Tensor& t : inputs) ptrs.push_back(&t);
  std::vector<StageBatchItem> items(inputs.size());
  model.run_stage_batch(0, ptrs, items, arena);
  for (std::size_t b = 0; b < inputs.size(); ++b) {
    const StageOutput want = model.run_stage(0, *ptrs[b]);
    EXPECT_EQ(items[b].predicted_label, want.predicted_label) << b;
    EXPECT_EQ(items[b].confidence, want.confidence) << b;
  }
}

TEST(BatchedForward, SingleSampleBatchMatchesPerSample) {
  StagedResNetConfig cfg;
  cfg.in_channels = 1;
  cfg.height = 8;
  cfg.width = 8;
  cfg.num_classes = 3;
  cfg.stage_channels = {4};
  StagedModel model = build_staged_resnet(cfg);
  Rng rng(18);
  const Tensor input = Tensor::randn({1, 8, 8}, rng);
  ScratchArena arena;
  const Tensor* ptrs[] = {&input};
  std::vector<StageBatchItem> items(1);
  model.run_stage_batch(0, ptrs, items, arena);
  const StageOutput want = model.run_stage(0, input);
  EXPECT_EQ(items[0].confidence, want.confidence);
  EXPECT_EQ(items[0].predicted_label, want.predicted_label);
}

// ------------------------------------------------- zero-alloc steady state

TEST(Arena, SecondBatchedRunAllocatesNothing) {
  StagedResNetConfig cfg;
  cfg.in_channels = 2;
  cfg.height = 8;
  cfg.width = 8;
  cfg.num_classes = 4;
  cfg.stage_channels = {4, 6};
  StagedModel model = build_staged_resnet(cfg);

  Rng rng(19);
  std::vector<Tensor> warm = random_batch({2, 8, 8}, 4, rng);
  std::vector<Tensor> steady = random_batch({2, 8, 8}, 4, rng);
  std::vector<const Tensor*> warm_ptrs, steady_ptrs;
  for (const Tensor& t : warm) warm_ptrs.push_back(&t);
  for (const Tensor& t : steady) steady_ptrs.push_back(&t);

  ScratchArena arena;
  std::vector<StageBatchItem> items(warm.size());
  // Warm-up: grows the arena to its high-water mark and sizes the items'
  // feature/probs storage.
  arena.reset();
  model.run_stage_batch(0, warm_ptrs, items, arena);
  arena.reset();
  model.run_stage_batch(0, warm_ptrs, items, arena);

  // Steady state: a fresh batch of the same shape must touch the heap
  // exactly zero times — neither through the arena nor anywhere else.
  const std::size_t arena_heap_before = arena.heap_allocations();
  const std::size_t global_heap_before = g_heap_allocs.load();
  arena.reset();
  model.run_stage_batch(0, steady_ptrs, items, arena);
  EXPECT_EQ(arena.heap_allocations(), arena_heap_before)
      << "arena grew after warm-up";
  EXPECT_EQ(g_heap_allocs.load(), global_heap_before)
      << "steady-state run_stage_batch hit operator new";
  // And the outputs are still right.
  const StageOutput want = model.run_stage(0, steady[0]);
  EXPECT_EQ(items[0].confidence, want.confidence);
}

}  // namespace
}  // namespace eugene::nn
