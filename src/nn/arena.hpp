// Zero-allocation inference scratch: a bump-allocator arena plus the
// feature-major batched activation view that inference threads through
// Layer::forward_batch — a packed batch in StagedModel::run_stage_batch, one
// sample viewed in place in nn::infer.
//
// Ownership rules (DESIGN.md §14): an arena belongs to exactly one inference
// thread — nn::infer (and so StagedModel::run_stage) uses a thread-local
// one, and a caller of run_stage_batch owns its own. The *owner* resets it,
// once per inference call, before the first layer runs; layers only
// allocate. Allocations are 64-byte aligned and live until that reset —
// nothing is freed piecemeal, which is what makes steady-state inference
// allocation-free once the arena has grown to the model's high-water mark
// (Arena.SecondBatchedRunAllocatesNothing pins it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "tensor/tensor.hpp"

namespace eugene::nn {

/// Bump allocator for float scratch. Grows geometrically while warming up;
/// reset() recycles everything and coalesces multi-block episodes into one
/// block, so a warmed arena serves any same-shaped workload without
/// touching the heap again.
class ScratchArena {
 public:
  ScratchArena() = default;
  explicit ScratchArena(std::size_t initial_floats) {
    if (initial_floats > 0) add_block(initial_floats);
  }

  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// 64-byte-aligned uninitialized scratch of `n` floats, valid until
  /// reset(). n == 0 returns a valid unique pointer into the arena.
  float* alloc(std::size_t n) {
    const std::size_t need = round_up(n);
    if (current_ >= blocks_.size() || !fits(blocks_[current_], need)) {
      if (!advance_to_fitting_block(need)) {
        add_block(std::max({need, total_capacity_, kMinBlockFloats}));
        current_ = blocks_.size() - 1;
      }
    }
    Block& blk = blocks_[current_];
    float* out = blk.aligned + blk.used;
    blk.used += need;
    used_ += need;
    if (used_ > high_water_) high_water_ = used_;
    return out;
  }

  /// alloc() plus zero fill.
  float* alloc_zeroed(std::size_t n) {
    float* out = alloc(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = 0.0f;
    return out;
  }

  /// `n` pointer-sized slots riding on the float arena (the 64-byte
  /// alignment covers any pointer type). Conv layers use this for the
  /// B-row pointer tables of tensor::gemm_rows.
  const float** alloc_ptrs(std::size_t n) {
    static_assert(sizeof(const float*) % sizeof(float) == 0);
    constexpr std::size_t kPerPtr = sizeof(const float*) / sizeof(float);
    return reinterpret_cast<const float**>(alloc(n * kPerPtr));
  }

  /// Recycles every allocation. A fragmented arena (more than one block —
  /// only possible while warming up) is coalesced into a single block of
  /// the combined capacity, so subsequent same-sized episodes fit without
  /// heap traffic.
  void reset() {
    if (blocks_.size() > 1) {
      const std::size_t total = total_capacity_;
      blocks_.clear();
      total_capacity_ = 0;
      add_block(total);
    }
    for (Block& blk : blocks_) blk.used = 0;
    current_ = 0;
    used_ = 0;
  }

  /// Floats handed out since the last reset (aligned sizes).
  std::size_t used_floats() const { return used_; }
  /// Largest used_floats() ever observed.
  std::size_t high_water_floats() const { return high_water_; }
  /// Total block capacity currently held.
  std::size_t capacity_floats() const { return total_capacity_; }
  /// Heap allocations performed over the arena's lifetime. Constant across
  /// warmed-up episodes — the zero-steady-state-allocation assertion.
  std::size_t heap_allocations() const { return heap_allocations_; }

 private:
  // 64 bytes = 16 floats: one cache line, and enough for any SIMD level the
  // GEMM kernels use.
  static constexpr std::size_t kAlignFloats = 16;
  static constexpr std::size_t kMinBlockFloats = 4096;

  struct Block {
    std::unique_ptr<float[]> storage;
    float* aligned = nullptr;
    std::size_t capacity = 0;  ///< usable floats starting at `aligned`
    std::size_t used = 0;
  };

  static std::size_t round_up(std::size_t n) {
    return (n + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
  }

  static bool fits(const Block& blk, std::size_t need) {
    return blk.capacity - blk.used >= need;
  }

  bool advance_to_fitting_block(std::size_t need) {
    for (std::size_t i = current_ + 1; i < blocks_.size(); ++i) {
      if (fits(blocks_[i], need)) {
        current_ = i;
        return true;
      }
    }
    return false;
  }

  void add_block(std::size_t capacity_floats) {
    Block blk;
    blk.storage =
        std::make_unique_for_overwrite<float[]>(capacity_floats + kAlignFloats);
    ++heap_allocations_;
    const auto addr = reinterpret_cast<std::uintptr_t>(blk.storage.get());
    const std::uintptr_t aligned =
        (addr + kAlignFloats * sizeof(float) - 1) &
        ~static_cast<std::uintptr_t>(kAlignFloats * sizeof(float) - 1);
    // storage over-allocates one alignment unit, so `aligned + capacity`
    // stays in bounds.
    blk.aligned = blk.storage.get() + (aligned - addr) / sizeof(float);
    blk.capacity = capacity_floats;
    blocks_.push_back(std::move(blk));
    total_capacity_ += capacity_floats;
  }

  std::vector<Block> blocks_;
  std::size_t current_ = 0;
  std::size_t used_ = 0;
  std::size_t high_water_ = 0;
  std::size_t total_capacity_ = 0;
  std::size_t heap_allocations_ = 0;
};

/// A batch of B same-shaped samples in feature-major, batch-minor layout:
/// for sample shape [d0, d1, …], element (i0, b, rest) lives at
/// ((i0·B + b)·rest_numel + rest_index). Concretely: a CHW batch stores
/// sample b's channel-c plane contiguously at (c·B + b)·H·W, and a rank-1
/// feature batch is a plain [features, B] matrix — exactly the right-hand
/// side one wide GEMM consumes per convolution or dense layer. The struct
/// is POD (fixed-extent dims, no Shape vector) so views can be created in
/// the hot path without allocating.
struct BatchedView {
  static constexpr std::size_t kMaxRank = 4;

  float* data = nullptr;
  std::size_t dims[kMaxRank] = {0, 0, 0, 0};
  std::size_t rank = 0;
  std::size_t batch = 0;

  std::size_t dim(std::size_t d) const {
    EUGENE_REQUIRE(d < rank, "BatchedView: dim index out of range");
    return dims[d];
  }
  /// Product of dims[1..rank) — the per-d0 contiguous extent.
  std::size_t rest_numel() const {
    std::size_t r = 1;
    for (std::size_t d = 1; d < rank; ++d) r *= dims[d];
    return r;
  }
  std::size_t sample_numel() const {
    return rank == 0 ? 0 : dims[0] * rest_numel();
  }
  std::size_t total_numel() const { return sample_numel() * batch; }

  /// View descriptor with the same batch over different sample dims,
  /// pointing at freshly arena-allocated storage.
  static BatchedView make(std::span<const std::size_t> sample_dims,
                          std::size_t batch, ScratchArena& arena) {
    EUGENE_REQUIRE(sample_dims.size() >= 1 && sample_dims.size() <= kMaxRank,
                   "BatchedView: sample rank outside [1, 4]");
    EUGENE_REQUIRE(batch >= 1, "BatchedView: empty batch");
    BatchedView v;
    v.rank = sample_dims.size();
    for (std::size_t d = 0; d < v.rank; ++d) v.dims[d] = sample_dims[d];
    v.batch = batch;
    v.data = arena.alloc(v.total_numel());
    return v;
  }
};

/// Packs same-shaped sample tensors into a feature-major batch allocated
/// from `arena`.
inline BatchedView pack_batch(std::span<const tensor::Tensor* const> samples,
                              ScratchArena& arena) {
  EUGENE_REQUIRE(!samples.empty(), "pack_batch: empty batch");
  const tensor::Tensor& first = *samples.front();
  EUGENE_REQUIRE(first.rank() >= 1 && first.rank() <= BatchedView::kMaxRank,
                 "pack_batch: sample rank outside [1, 4]");
  for (const tensor::Tensor* t : samples)
    EUGENE_REQUIRE(t != nullptr && t->same_shape(first),
                   "pack_batch: mismatched sample shapes");
  BatchedView v;
  v.rank = first.rank();
  for (std::size_t d = 0; d < v.rank; ++d) v.dims[d] = first.dim(d);
  v.batch = samples.size();
  v.data = arena.alloc(v.total_numel());
  const std::size_t d0 = v.dims[0];
  const std::size_t rest = v.rest_numel();
  const std::size_t batch = v.batch;
  for (std::size_t b = 0; b < batch; ++b) {
    const float* src = samples[b]->raw();
    for (std::size_t i0 = 0; i0 < d0; ++i0) {
      float* dst = v.data + (i0 * batch + b) * rest;
      const float* s = src + i0 * rest;
      for (std::size_t r = 0; r < rest; ++r) dst[r] = s[r];
    }
  }
  return v;
}

/// Extracts sample `b` of a batched view into a standalone tensor
/// (allocates — boundary use only, never inside forward_batch chains).
inline tensor::Tensor unpack_sample(const BatchedView& view, std::size_t b) {
  EUGENE_REQUIRE(b < view.batch, "unpack_sample: batch index out of range");
  tensor::Shape shape(view.dims, view.dims + view.rank);
  tensor::Tensor out(std::move(shape));
  const std::size_t rest = view.rest_numel();
  float* dst = out.raw();
  for (std::size_t i0 = 0; i0 < view.dims[0]; ++i0) {
    const float* src = view.data + (i0 * view.batch + b) * rest;
    float* d = dst + i0 * rest;
    for (std::size_t r = 0; r < rest; ++r) d[r] = src[r];
  }
  return out;
}

}  // namespace eugene::nn
