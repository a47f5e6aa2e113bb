// Zero-allocation inference scratch: a bump-allocator arena plus the
// one-sample activation view that inference threads through Layer::infer.
//
// Ownership rules (DESIGN.md §14): an arena belongs to exactly one inference
// thread — nn::infer and StagedModel::run_stage share this thread's
// thread_arena(), and a caller that passes its own arena owns that one. The
// *owner* resets it before the first layer runs (a stage resets it again
// between trunk and head); layers only allocate. Allocations are 64-byte
// aligned and live until that reset — nothing is freed piecemeal, which is
// what makes steady-state inference allocation-free once the arena has grown
// to the model's high-water mark (Arena.SecondBatchedRunAllocatesNothing
// pins it).
#pragma once

#include <algorithm>
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
  /// reset(). n == 0 returns a valid unique pointer into the arena: a zero
  /// request takes one alignment unit, so the next allocation cannot alias it.
  float* alloc(std::size_t n) {
    const std::size_t need = round_up(std::max<std::size_t>(n, 1));
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

/// One sample's activation: a row-major tensor of rank 1–4 over `data` (a
/// CHW image stores channel c's plane at c·H·W). The struct is POD
/// (fixed-extent dims, no Shape vector) so views can be created in the hot
/// path without allocating.
struct ActivationView {
  static constexpr std::size_t kMaxRank = 4;

  float* data = nullptr;
  std::size_t dims[kMaxRank] = {0, 0, 0, 0};
  std::size_t rank = 0;

  std::size_t numel() const {
    std::size_t n = 1;
    for (std::size_t d = 0; d < rank; ++d) n *= dims[d];
    return n;
  }

  /// A view of `dims` over freshly arena-allocated storage.
  static ActivationView make(std::span<const std::size_t> dims,
                             ScratchArena& arena) {
    EUGENE_REQUIRE(dims.size() >= 1 && dims.size() <= kMaxRank,
                   "ActivationView: rank outside [1, 4]");
    ActivationView v;
    v.rank = dims.size();
    for (std::size_t d = 0; d < v.rank; ++d) v.dims[d] = dims[d];
    v.data = arena.alloc(v.numel());
    return v;
  }

  /// Views `t` in place, for reading only. `data` is float* because layers
  /// write their outputs through it, but Layer::infer never writes its
  /// input view. Throws InvalidArgument when t's rank is outside [1, 4].
  static ActivationView of(const tensor::Tensor& t) {
    EUGENE_REQUIRE(t.rank() >= 1 && t.rank() <= kMaxRank,
                   "ActivationView: rank outside [1, 4]");
    ActivationView v;
    v.rank = t.rank();
    for (std::size_t d = 0; d < v.rank; ++d) v.dims[d] = t.dim(d);
    v.data = const_cast<float*>(t.raw());
    return v;
  }
};

/// This thread's inference arena: nn::infer and StagedModel::run_stage both
/// use it, so an inference thread holds one arena.
inline ScratchArena& thread_arena() {
  thread_local ScratchArena arena;
  return arena;
}

}  // namespace eugene::nn
