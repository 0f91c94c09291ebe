// Packed, cache-blocked GEMM micro-kernel with runtime SIMD dispatch.
//
// One templated micro-kernel body is instantiated per lane — scalar
// (std::fmaf), AVX2/FMA (__m256) and AVX-512 (__m512) — so every lane
// executes the same arithmetic in the same order. The accumulation-order
// contract that makes that possible:
//
//   Every output element C[i][j] is produced by a single unbroken chain of
//   fused multiply-adds over k = 0..K-1 in ascending order, seeded from
//   the existing C value when accumulating and from +0.0f otherwise.
//
// A fused multiply-add is exactly rounded (one rounding of a*b+c), and the
// chain for an element only ever involves that element, so the result is
// byte-identical regardless of vector width, register tiling, packing
// layout, row partitioning across threads, or whether the small-shape
// shortcut fires. tests/nn/test_kernel_differential.cpp enforces this by
// byte-comparing every compiled lane against a naive fmaf reference over
// an exhaustive small-shape sweep plus a seeded large-shape fuzz loop.
//
// The packed path follows the classic panel scheme: the right-hand side is
// packed once into zero-padded column tiles (PackedB), each row range
// packs its left-hand panel into MR-row tiles, and an MR x NR register
// tile runs the full-K fma chains. Zero padding is harmless because a
// padded lane never feeds a stored element's chain.
#pragma once

#include <cstddef>
#include <vector>

namespace odn::nn {

// SIMD lane selection. kAuto resolves to the widest lane both compiled in
// and supported by the running CPU.
enum class GemmLane { kAuto, kScalar, kAvx2, kAvx512 };

// Operand layouts of the three public GEMM entry points (see gemm.h):
// kNormal A(MxK)·B(KxN); kATrans A stored (KxM); kBTrans B stored (NxK).
enum class GemmOp { kNormal, kATrans, kBTrans };

// Lane compiled into this binary (compile flags / ODN_DISABLE_AVX2)?
bool gemm_lane_compiled(GemmLane lane) noexcept;
// Compiled AND supported by the running CPU?
bool gemm_lane_available(GemmLane lane) noexcept;
// The concrete lane kAuto resolves to right now (never kAuto itself).
// Throws std::invalid_argument on an unknown ODN_GEMM_LANE name.
GemmLane gemm_resolve_lane();
// Test/bench hook: pin every subsequent GEMM to one lane (also disables
// the small-shape shortcut so the packed path is exercised on any shape).
// Returns false and leaves the setting unchanged if the lane is not
// available; set kAuto to restore dispatch.
bool set_gemm_lane(GemmLane lane) noexcept;
GemmLane gemm_forced_lane() noexcept;
const char* gemm_lane_name(GemmLane lane) noexcept;
// Every lane usable on this build+CPU, widest last.
std::vector<GemmLane> gemm_available_lanes();

namespace kernel {

// Right-hand side packed into zero-padded NR-column tiles for one lane.
// Pack once, then run any number of gemm_rows calls over the same (n, k)
// — the packing is read-only afterwards, so disjoint row ranges can share
// it across pool workers.
class PackedB {
 public:
  PackedB() = default;
  void pack(GemmOp op, std::size_t n, std::size_t k, const float* b,
            GemmLane lane);

  GemmLane lane() const noexcept { return lane_; }
  std::size_t n() const noexcept { return n_; }
  std::size_t k() const noexcept { return k_; }
  std::size_t tile_cols() const noexcept { return tile_cols_; }
  const float* tile(std::size_t jt) const noexcept {
    return data_.data() + jt * k_ * tile_cols_;
  }

 private:
  std::vector<float> data_;
  std::size_t n_ = 0;
  std::size_t k_ = 0;
  std::size_t tile_cols_ = 0;  // NR of the lane the panel was packed for
  GemmLane lane_ = GemmLane::kScalar;
};

// Computes rows [i0, i1) of C(MxN) over the full K extent against a
// pre-packed right-hand side, honouring the accumulation-order contract.
// `a` is the raw left-hand operand in the op's layout (packing of the row
// panel happens inside, in per-thread scratch).
void gemm_rows(GemmOp op, std::size_t i0, std::size_t i1, std::size_t m,
               std::size_t n, std::size_t k, const float* a,
               const PackedB& bp, float* c, bool accumulate);

// Unpacked single-call path for shapes too small to amortize packing.
// Same contract, same bytes — just no panel setup.
void gemm_small(GemmOp op, std::size_t m, std::size_t n, std::size_t k,
                const float* a, const float* b, float* c, bool accumulate);

}  // namespace kernel

}  // namespace odn::nn
