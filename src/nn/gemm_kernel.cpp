#include "nn/gemm_kernel.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#if defined(__AVX2__) && defined(__FMA__) && !defined(ODN_DISABLE_AVX2)
#define ODN_GEMM_HAVE_AVX2 1
#endif
#if defined(__AVX512F__) && !defined(ODN_DISABLE_AVX2)
#define ODN_GEMM_HAVE_AVX512 1
#endif

#if defined(ODN_GEMM_HAVE_AVX2) || defined(ODN_GEMM_HAVE_AVX512)
#include <immintrin.h>
#endif

namespace odn::nn {
namespace {

std::atomic<GemmLane> g_forced_lane{GemmLane::kAuto};

bool cpu_supports(GemmLane lane) noexcept {
  switch (lane) {
    case GemmLane::kScalar:
      return true;
#if defined(__x86_64__) || defined(__i386__)
    case GemmLane::kAvx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case GemmLane::kAvx512:
      return __builtin_cpu_supports("avx512f");
#else
    case GemmLane::kAvx2:
    case GemmLane::kAvx512:
      return false;
#endif
    case GemmLane::kAuto:
      return true;
  }
  return false;
}

// ODN_GEMM_LANE=scalar|avx2|avx512 pins the lane without a rebuild (the
// no-AVX2 CI sweep and the EXPERIMENTS.md lane tables use it). Unset,
// empty or "auto" means auto dispatch, and so does a known lane this CPU
// or build lacks; any other name throws std::invalid_argument.
GemmLane env_lane() {
  static const GemmLane lane = [] {
    const char* value = std::getenv("ODN_GEMM_LANE");
    const std::string name = value == nullptr ? "" : value;
    GemmLane requested = GemmLane::kAuto;
    if (name == "scalar") requested = GemmLane::kScalar;
    else if (name == "avx2") requested = GemmLane::kAvx2;
    else if (name == "avx512") requested = GemmLane::kAvx512;
    else if (!name.empty() && name != "auto")
      throw std::invalid_argument(
          "ODN_GEMM_LANE: unknown lane '" + name +
          "' (want scalar|avx2|avx512|auto)");
    return gemm_lane_available(requested) ? requested : GemmLane::kAuto;
  }();
  return lane;
}

// ---- Lane traits -----------------------------------------------------------
//
// One micro-kernel template below is instantiated per trait struct; the
// per-element fma chains are identical across lanes because an IEEE fused
// multiply-add is exactly rounded whatever the register width.

struct ScalarLane {
  static constexpr std::size_t kWidth = 1;
  static constexpr std::size_t kMr = 4;
  static constexpr std::size_t kNv = 4;  // NR = 4
  using Vec = float;
  static Vec load(const float* p) noexcept { return *p; }
  static void store(float* p, Vec v) noexcept { *p = v; }
  static Vec zero() noexcept { return 0.0f; }
  static Vec broadcast(float x) noexcept { return x; }
  static Vec fma(Vec a, Vec b, Vec c) noexcept { return std::fmaf(a, b, c); }
};

#ifdef ODN_GEMM_HAVE_AVX2
struct Avx2Lane {
  static constexpr std::size_t kWidth = 8;
  static constexpr std::size_t kMr = 4;
  static constexpr std::size_t kNv = 2;  // NR = 16: 8 accumulator registers
  using Vec = __m256;
  static Vec load(const float* p) noexcept { return _mm256_loadu_ps(p); }
  static void store(float* p, Vec v) noexcept { _mm256_storeu_ps(p, v); }
  static Vec zero() noexcept { return _mm256_setzero_ps(); }
  static Vec broadcast(float x) noexcept { return _mm256_set1_ps(x); }
  static Vec fma(Vec a, Vec b, Vec c) noexcept {
    return _mm256_fmadd_ps(a, b, c);
  }
};
#endif

#ifdef ODN_GEMM_HAVE_AVX512
struct Avx512Lane {
  static constexpr std::size_t kWidth = 16;
  static constexpr std::size_t kMr = 8;
  static constexpr std::size_t kNv = 2;  // NR = 32: 16 of the 32 zmm regs
  using Vec = __m512;
  static Vec load(const float* p) noexcept { return _mm512_loadu_ps(p); }
  static void store(float* p, Vec v) noexcept { _mm512_storeu_ps(p, v); }
  static Vec zero() noexcept { return _mm512_setzero_ps(); }
  static Vec broadcast(float x) noexcept { return _mm512_set1_ps(x); }
  static Vec fma(Vec a, Vec b, Vec c) noexcept {
    return _mm512_fmadd_ps(a, b, c);
  }
};
#endif

std::size_t lane_tile_cols(GemmLane lane) noexcept {
  switch (lane) {
#ifdef ODN_GEMM_HAVE_AVX2
    case GemmLane::kAvx2:
      return Avx2Lane::kWidth * Avx2Lane::kNv;
#endif
#ifdef ODN_GEMM_HAVE_AVX512
    case GemmLane::kAvx512:
      return Avx512Lane::kWidth * Avx512Lane::kNv;
#endif
    default:
      return ScalarLane::kWidth * ScalarLane::kNv;
  }
}

// ---- Operand accessors -----------------------------------------------------

inline float a_at(GemmOp op, const float* a, std::size_t m, std::size_t k,
                  std::size_t i, std::size_t kk) noexcept {
  return op == GemmOp::kATrans ? a[kk * m + i] : a[i * k + kk];
}

inline float b_at(GemmOp op, const float* b, std::size_t n, std::size_t k,
                  std::size_t kk, std::size_t j) noexcept {
  return op == GemmOp::kBTrans ? b[j * k + kk] : b[kk * n + j];
}

// ---- Micro-kernel ----------------------------------------------------------

// One MR x NR register tile over the full K extent. ap is the packed row
// panel tile ([k][MR] interleaved), bp the packed column tile ([k][NR]).
// Seeds every accumulator from C (the caller pre-zeroes the seed buffer
// when not accumulating), runs the ascending-k fma chains, stores back.
template <class L>
void micro_tile(std::size_t k, const float* ap, const float* bp, float* c,
                std::size_t ldc) {
  constexpr std::size_t MR = L::kMr;
  constexpr std::size_t NV = L::kNv;
  constexpr std::size_t W = L::kWidth;
  typename L::Vec acc[MR][NV];
  for (std::size_t r = 0; r < MR; ++r)
    for (std::size_t v = 0; v < NV; ++v)
      acc[r][v] = L::load(c + r * ldc + v * W);
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* b_row = bp + kk * (NV * W);
    typename L::Vec b[NV];
    for (std::size_t v = 0; v < NV; ++v) b[v] = L::load(b_row + v * W);
    const float* a_col = ap + kk * MR;
    for (std::size_t r = 0; r < MR; ++r) {
      const typename L::Vec a = L::broadcast(a_col[r]);
      for (std::size_t v = 0; v < NV; ++v)
        acc[r][v] = L::fma(a, b[v], acc[r][v]);
    }
  }
  for (std::size_t r = 0; r < MR; ++r)
    for (std::size_t v = 0; v < NV; ++v)
      L::store(c + r * ldc + v * W, acc[r][v]);
}

// Packs rows [i0, i1) of the left-hand operand into MR-row interleaved
// tiles ([tile][kk][MR]), zero-padding the ragged final tile. Zero rows
// feed only discarded lanes, never a stored element's chain.
template <class L>
void pack_a_panel(GemmOp op, const float* a, std::size_t i0, std::size_t i1,
                  std::size_t m, std::size_t k, std::vector<float>& out) {
  constexpr std::size_t MR = L::kMr;
  const std::size_t rows = i1 - i0;
  const std::size_t tiles = (rows + MR - 1) / MR;
  out.resize(tiles * k * MR);
  for (std::size_t t = 0; t < tiles; ++t) {
    float* tile = out.data() + t * k * MR;
    const std::size_t base = i0 + t * MR;
    const std::size_t live = std::min(MR, i1 - base);
    for (std::size_t kk = 0; kk < k; ++kk) {
      float* col = tile + kk * MR;
      for (std::size_t r = 0; r < live; ++r)
        col[r] = a_at(op, a, m, k, base + r, kk);
      for (std::size_t r = live; r < MR; ++r) col[r] = 0.0f;
    }
  }
}

template <class L>
void gemm_rows_impl(GemmOp op, std::size_t i0, std::size_t i1, std::size_t m,
                    std::size_t n, std::size_t k, const float* a,
                    const kernel::PackedB& bp, float* c, bool accumulate) {
  constexpr std::size_t MR = L::kMr;
  constexpr std::size_t NR = L::kNv * L::kWidth;

  thread_local std::vector<float> a_panel;
  pack_a_panel<L>(op, a, i0, i1, m, k, a_panel);

  const std::size_t row_tiles = (i1 - i0 + MR - 1) / MR;
  const std::size_t col_tiles = (n + NR - 1) / NR;
  float edge[MR * NR];

  for (std::size_t jt = 0; jt < col_tiles; ++jt) {
    const float* b_tile = bp.tile(jt);
    const std::size_t j0 = jt * NR;
    const std::size_t cols = std::min(NR, n - j0);
    for (std::size_t it = 0; it < row_tiles; ++it) {
      const float* a_tile = a_panel.data() + it * k * MR;
      const std::size_t r0 = i0 + it * MR;
      const std::size_t rows = std::min(MR, i1 - r0);
      float* c_tile = c + r0 * n + j0;
      if (rows == MR && cols == NR) {
        if (!accumulate) {
          // Seed the chains from +0 in place, then run the register tile.
          for (std::size_t r = 0; r < MR; ++r)
            std::memset(c_tile + r * n, 0, NR * sizeof(float));
        }
        micro_tile<L>(k, a_tile, b_tile, c_tile, n);
      } else {
        // Ragged edge: stage the tile in a contiguous buffer. Padding
        // lanes run chains over zeros and are never copied back.
        std::memset(edge, 0, sizeof(edge));
        if (accumulate) {
          for (std::size_t r = 0; r < rows; ++r)
            std::memcpy(edge + r * NR, c_tile + r * n, cols * sizeof(float));
        }
        micro_tile<L>(k, a_tile, b_tile, edge, NR);
        for (std::size_t r = 0; r < rows; ++r)
          std::memcpy(c_tile + r * n, edge + r * NR, cols * sizeof(float));
      }
    }
  }
}

}  // namespace

bool gemm_lane_compiled(GemmLane lane) noexcept {
  switch (lane) {
    case GemmLane::kAuto:
    case GemmLane::kScalar:
      return true;
    case GemmLane::kAvx2:
#ifdef ODN_GEMM_HAVE_AVX2
      return true;
#else
      return false;
#endif
    case GemmLane::kAvx512:
#ifdef ODN_GEMM_HAVE_AVX512
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool gemm_lane_available(GemmLane lane) noexcept {
  return gemm_lane_compiled(lane) && cpu_supports(lane);
}

GemmLane gemm_resolve_lane() {
  const GemmLane forced = g_forced_lane.load(std::memory_order_relaxed);
  if (forced != GemmLane::kAuto) return forced;
  const GemmLane pinned = env_lane();
  if (pinned != GemmLane::kAuto) return pinned;
  if (gemm_lane_available(GemmLane::kAvx512)) return GemmLane::kAvx512;
  if (gemm_lane_available(GemmLane::kAvx2)) return GemmLane::kAvx2;
  return GemmLane::kScalar;
}

bool set_gemm_lane(GemmLane lane) noexcept {
  if (lane != GemmLane::kAuto && !gemm_lane_available(lane)) return false;
  g_forced_lane.store(lane, std::memory_order_relaxed);
  return true;
}

GemmLane gemm_forced_lane() noexcept {
  return g_forced_lane.load(std::memory_order_relaxed);
}

const char* gemm_lane_name(GemmLane lane) noexcept {
  switch (lane) {
    case GemmLane::kAuto:
      return "auto";
    case GemmLane::kScalar:
      return "scalar";
    case GemmLane::kAvx2:
      return "avx2";
    case GemmLane::kAvx512:
      return "avx512";
  }
  return "unknown";
}

std::vector<GemmLane> gemm_available_lanes() {
  std::vector<GemmLane> lanes{GemmLane::kScalar};
  if (gemm_lane_available(GemmLane::kAvx2)) lanes.push_back(GemmLane::kAvx2);
  if (gemm_lane_available(GemmLane::kAvx512))
    lanes.push_back(GemmLane::kAvx512);
  return lanes;
}

namespace kernel {

void PackedB::pack(GemmOp op, std::size_t n, std::size_t k, const float* b,
                   GemmLane lane) {
  if (lane == GemmLane::kAuto) lane = gemm_resolve_lane();
  lane_ = lane;
  n_ = n;
  k_ = k;
  tile_cols_ = lane_tile_cols(lane);
  const std::size_t tiles = (n + tile_cols_ - 1) / tile_cols_;
  data_.resize(tiles * k * tile_cols_);
  for (std::size_t jt = 0; jt < tiles; ++jt) {
    float* tile = data_.data() + jt * k * tile_cols_;
    const std::size_t j0 = jt * tile_cols_;
    const std::size_t live = std::min(tile_cols_, n - j0);
    for (std::size_t kk = 0; kk < k; ++kk) {
      float* row = tile + kk * tile_cols_;
      for (std::size_t jr = 0; jr < live; ++jr)
        row[jr] = b_at(op, b, n, k, kk, j0 + jr);
      for (std::size_t jr = live; jr < tile_cols_; ++jr) row[jr] = 0.0f;
    }
  }
}

void gemm_rows(GemmOp op, std::size_t i0, std::size_t i1, std::size_t m,
               std::size_t n, std::size_t k, const float* a, const PackedB& bp,
               float* c, bool accumulate) {
  if (i0 >= i1 || n == 0) return;
  switch (bp.lane()) {
#ifdef ODN_GEMM_HAVE_AVX2
    case GemmLane::kAvx2:
      gemm_rows_impl<Avx2Lane>(op, i0, i1, m, n, k, a, bp, c, accumulate);
      return;
#endif
#ifdef ODN_GEMM_HAVE_AVX512
    case GemmLane::kAvx512:
      gemm_rows_impl<Avx512Lane>(op, i0, i1, m, n, k, a, bp, c, accumulate);
      return;
#endif
    default:
      gemm_rows_impl<ScalarLane>(op, i0, i1, m, n, k, a, bp, c, accumulate);
      return;
  }
}

void gemm_small(GemmOp op, std::size_t m, std::size_t n, std::size_t k,
                const float* a, const float* b, float* c, bool accumulate) {
  for (std::size_t i = 0; i < m; ++i) {
    float* c_row = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      float acc = accumulate ? c_row[j] : 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk)
        acc = std::fmaf(a_at(op, a, m, k, i, kk), b_at(op, b, n, k, kk, j),
                        acc);
      c_row[j] = acc;
    }
  }
}

}  // namespace kernel
}  // namespace odn::nn
