#include "tensor/kernels.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/logging.h"
#include "runtime/runtime.h"
#include "tensor/aligned_buffer.h"
#include "tensor/arena.h"
#include "tensor/kernel_registry.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TABREP_KERNELS_X86 1
#include <immintrin.h>
#else
#define TABREP_KERNELS_X86 0
#endif

namespace tabrep::kernels {

namespace {

/// Multiply-add budget per ParallelFor chunk (the PR-1 MatMulGrain
/// constant, now owned by the kernel layer).
constexpr int64_t kChunkFlops = 1 << 15;

/// Register tile of the AVX2 matmul microkernel: 6 rows x 16 columns
/// (12 fp accumulator registers + 2 panel registers + 1 broadcast).
constexpr int64_t kMR = 6;
constexpr int64_t kNR = 16;

/// Group id of the padding lanes past the sequence end in a partition
/// plan (context is -1, groups count up from 0).
constexpr int32_t kPadGroup = -2;

/// Transpose / packing block edge: a 32x32 float block is 4 KiB per
/// side, so both the row-major reads and the column-major writes of a
/// block stay inside L1.
constexpr int64_t kTransposeBlock = 32;

/// Thread-local scratch for packed-B panels. Packed on the calling
/// thread before the parallel region and read-only inside it, so
/// worker lanes never touch each other's buffers.
AlignedBuffer& PackScratch(size_t n) {
  thread_local AlignedBuffer buf;
  if (buf.size() < n) buf = AlignedBuffer(n);
  return buf;
}

/// Second thread-local packing scratch, for kernels that hold two
/// packed operands at once (fused attention packs K^T and V).
AlignedBuffer& PackScratch2(size_t n) {
  thread_local AlignedBuffer buf;
  if (buf.size() < n) buf = AlignedBuffer(n);
  return buf;
}

/// Thread-local scratch for a block of attention score rows (only used
/// when the caller does not want the probabilities kept), and for the
/// tied-softmax loss's block of logits plus its per-row state (never
/// the thread arena: the loss must not grow the arenas the encoder
/// sizes).
AlignedBuffer& RowScratch(size_t n) {
  thread_local AlignedBuffer buf;
  if (buf.size() < n) buf = AlignedBuffer(n);
  return buf;
}

/// Thread-local scratch for one additive bias row that a mask rule
/// computes on the fly.
AlignedBuffer& BiasRowScratch(size_t n) {
  thread_local AlignedBuffer buf;
  if (buf.size() < n) buf = AlignedBuffer(n);
  return buf;
}

/// Bias-row sources for the dense attention sweep. A source maps query
/// row i to its additive [tk] bias row, or to null for no bias. The
/// sweep adds the row with the same arithmetic whatever its source, so
/// a rule computed from ids is bitwise equal to its materialized tensor.
struct DenseBiasRows {
  const float* bias;
  int64_t tk;
  const float* operator()(int64_t i) const {
    return bias != nullptr ? bias + i * tk : nullptr;
  }
};

/// kRowOrColumn's bias row for query i, keys [j0, t): MaskVisible
/// unrolled into a branch-free loop over the ids (the AVX2 tier runs
/// the same logic eight keys at a time, RowOrColumnBiasRowAvx2).
void RowOrColumnBiasRow(const MaskView& m, int64_t i, int64_t j0, int64_t t,
                        float* __restrict out) {
  const int32_t ri = m.row[i], ci = m.column[i];
  // A non-positive id names no row (column), so it matches nothing.
  const int32_t use_r = ri > 0 ? -1 : 0;
  const int32_t use_c = ci > 0 ? -1 : 0;
  const bool context = ri == 0 && ci == 0;
  for (int64_t j = j0; j < t; ++j) {
    const int32_t rj = m.row[j], cj = m.column[j];
    const bool visible = context || (rj | cj) == 0 ||
                         ((rj == ri ? -1 : 0) & use_r) != 0 ||
                         ((cj == ci ? -1 : 0) & use_c) != 0;
    out[j] = visible ? 0.0f : kMaskedScore;
  }
  out[i] = 0.0f;
}

/// Fills a query's additive bias row from a mask rule: the bias-row
/// source the kRowOrColumn sweeps use (see DenseBiasRows).
using BiasRowFill = void (*)(const MaskView&, int64_t i, int64_t t,
                             float* out);

void MaskBiasRowScalar(const MaskView& m, int64_t i, int64_t t, float* out) {
  if (m.rule == MaskRule::kRowOrColumn) {
    RowOrColumnBiasRow(m, i, 0, t, out);
    return;
  }
  for (int64_t j = 0; j < t; ++j) {
    out[j] = MaskVisible(m, i, j) ? 0.0f : kMaskedScore;
  }
}

struct MaskBiasRows {
  const MaskView* mask;
  int64_t t;
  BiasRowFill fill = &MaskBiasRowScalar;
  const float* operator()(int64_t i) const {
    float* row = BiasRowScratch(static_cast<size_t>(t)).data();
    fill(*mask, i, t, row);
    return row;
  }
};

SimdLevel DetectSimdLevel() {
  SimdLevel best = SimdLevel::kScalar;
#if TABREP_KERNELS_X86
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    best = SimdLevel::kAvx2;
  }
#endif
  const char* env = std::getenv("TABREP_SIMD");
  if (env == nullptr || *env == '\0') return best;
  std::string v(env);
  for (char& c : v) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (v == "auto" || v == "detect") return best;
  if (v == "avx2") {
    if (best != SimdLevel::kAvx2) {
      TABREP_LOG(Warning) << "TABREP_SIMD=avx2 requested but "
                          << (Avx2CompiledIn() ? "the cpu" : "this build")
                          << " lacks AVX2/FMA; falling back to "
                          << SimdLevelName(best);
    }
    return best;
  }
  if (v == "0" || v == "off" || v == "false" || v == "scalar" || v == "none") {
    return SimdLevel::kScalar;
  }
  if (v == "naive") return SimdLevel::kNaive;
  TABREP_LOG(Warning) << "TABREP_SIMD=" << env
                      << " is not a recognized level (accepted: auto, detect, "
                         "avx2, scalar, 0, off, false, none, naive); "
                         "auto-detecting "
                      << SimdLevelName(best);
  return best;
}

// ======================================================================
// Scalar paths. Plain loops over __restrict pointers; the compiler
// auto-vectorizes the inner loops at the baseline ISA, which is the
// portable fallback the contract asks for.
// ======================================================================

void MatMulRowsScalar(const float* __restrict a, const float* __restrict b,
                      float* __restrict c, int64_t k, int64_t n, int64_t lo,
                      int64_t hi) {
  for (int64_t i = lo; i < hi; ++i) {
    float* crow = c + i * n;
    std::fill_n(crow, n, 0.0f);
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = a[i * k + kk];
      const float* brow = b + kk * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void MatMulTBRowScalar(const float* __restrict arow,
                       const float* __restrict b, float* __restrict crow,
                       int64_t k, int64_t n) {
  for (int64_t j = 0; j < n; ++j) {
    const float* brow = b + j * k;
    float acc = 0.0f;
    for (int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
    crow[j] = acc;
  }
}

void SoftmaxRowScalar(float* __restrict row, int64_t n) {
  float mx = row[0];
  for (int64_t i = 1; i < n; ++i) mx = std::max(mx, row[i]);
  float sum = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    row[i] = std::exp(row[i] - mx);
    sum += row[i];
  }
  const float inv = 1.0f / sum;
  for (int64_t i = 0; i < n; ++i) row[i] *= inv;
}

void LogSoftmaxRowScalar(float* __restrict row, int64_t n) {
  float mx = row[0];
  for (int64_t i = 1; i < n; ++i) mx = std::max(mx, row[i]);
  float sum = 0.0f;
  for (int64_t i = 0; i < n; ++i) sum += std::exp(row[i] - mx);
  const float lse = mx + std::log(sum);
  for (int64_t i = 0; i < n; ++i) row[i] -= lse;
}

void LayerNormRowScalar(float* __restrict row, const float* __restrict g,
                        const float* __restrict b, int64_t n, float eps) {
  float mean = 0.0f;
  for (int64_t i = 0; i < n; ++i) mean += row[i];
  mean /= static_cast<float>(n);
  float var = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    const float d = row[i] - mean;
    var += d * d;
  }
  var /= static_cast<float>(n);
  const float inv = 1.0f / std::sqrt(var + eps);
  for (int64_t i = 0; i < n; ++i) row[i] = (row[i] - mean) * inv * g[i] + b[i];
}

float DotScalar(const float* __restrict a, const float* __restrict b,
                int64_t n) {
  float acc = 0.0f;
  for (int64_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void AxpyScalar(float* __restrict y, const float* __restrict x, float scale,
                int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += scale * x[i];
}

inline float GeluScalar(float x) {
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  const float inner = kC * (x + 0.044715f * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(inner));
}

void GeluBackwardScalar(float* dx, const float* g, const float* x,
                        int64_t n) {
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  for (int64_t i = 0; i < n; ++i) {
    const float v = x[i];
    const float t = std::tanh(kC * (v + 0.044715f * v * v * v));
    const float du = kC * (1.0f + 3.0f * 0.044715f * v * v);
    dx[i] = g[i] * (0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du);
  }
}

/// One row of LayerNorm backward: xhat = (x - mean)·inv, y = γ·xhat + β;
/// dx = inv·(dxhat - mean(dxhat) - xhat·mean(dxhat·xhat)), dxhat = g·γ.
void LayerNormBackwardRowScalar(const float* __restrict x,
                                const float* __restrict g,
                                const float* __restrict gamma, int64_t n,
                                float eps, float* __restrict dx,
                                float* __restrict dgamma,
                                float* __restrict dbeta) {
  float mean = 0.0f;
  for (int64_t i = 0; i < n; ++i) mean += x[i];
  mean /= static_cast<float>(n);
  float var = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    const float d = x[i] - mean;
    var += d * d;
  }
  var /= static_cast<float>(n);
  const float inv = 1.0f / std::sqrt(var + eps);
  float sum_dxhat = 0.0f;
  float sum_dxhat_xhat = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    const float xhat = (x[i] - mean) * inv;
    const float dxhat = g[i] * gamma[i];
    sum_dxhat += dxhat;
    sum_dxhat_xhat += dxhat * xhat;
    dgamma[i] += g[i] * xhat;
    dbeta[i] += g[i];
  }
  const float invn = 1.0f / static_cast<float>(n);
  for (int64_t i = 0; i < n; ++i) {
    const float xhat = (x[i] - mean) * inv;
    const float dxhat = g[i] * gamma[i];
    dx[i] = inv * (dxhat - invn * sum_dxhat - xhat * invn * sum_dxhat_xhat);
  }
}

/// p[i] = exp(p[i] - shift) in place; returns Σ p[i] (the tied-softmax
/// loss's online-softmax step).
float ExpShiftSumScalar(float* p, int64_t n, float shift) {
  float sum = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    p[i] = std::exp(p[i] - shift);
    sum += p[i];
  }
  return sum;
}

// ======================================================================
// AVX2/FMA path. Every function carrying intrinsics is tagged with
// __attribute__((target)) so the translation unit itself stays at the
// baseline ISA and the binary remains runnable on non-AVX2 hardware
// (dispatch never reaches these without cpu support).
// ======================================================================

#if TABREP_KERNELS_X86

__attribute__((target("avx2"))) inline float HSum256(__m256 v) {
  // Fixed pairwise reduction order: (lo+hi), then halves, then lanes.
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(v),
                        _mm256_extractf128_ps(v, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

__attribute__((target("avx2"))) inline float HMax256(__m256 v) {
  __m128 s = _mm_max_ps(_mm256_castps256_ps128(v),
                        _mm256_extractf128_ps(v, 1));
  s = _mm_max_ps(s, _mm_movehl_ps(s, s));
  s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

/// Vectorized exp (Cephes polynomial, the classic avx_mathfun layout):
/// exp(x) = 2^floor(x·log2e + 0.5) · e^r with a degree-5 minimax
/// polynomial for e^r, |relative error| ≲ 2e-7 over the float range.
__attribute__((target("avx2,fma"))) inline __m256 Exp256(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  x = _mm256_min_ps(x, _mm256_set1_ps(88.3762626647950f));
  x = _mm256_max_ps(x, _mm256_set1_ps(-88.3762626647949f));
  __m256 fx = _mm256_fmadd_ps(x, _mm256_set1_ps(1.44269504088896341f),
                              _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);
  // x -= fx * ln2, split in two for extra precision.
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693359375f), x);
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.12194440e-4f), x);
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, z, x);
  y = _mm256_add_ps(y, one);
  __m256i imm = _mm256_cvttps_epi32(fx);
  imm = _mm256_add_epi32(imm, _mm256_set1_epi32(0x7f));
  imm = _mm256_slli_epi32(imm, 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(imm));
}

/// tanh(x) = 1 - 2/(e^{2x}+1), saturating past |x| = 9 where the float
/// result is exactly ±1 anyway.
__attribute__((target("avx2,fma"))) inline __m256 Tanh256(__m256 x) {
  const __m256 limit = _mm256_set1_ps(9.0f);
  const __m256 one = _mm256_set1_ps(1.0f);
  x = _mm256_max_ps(_mm256_min_ps(x, limit),
                    _mm256_sub_ps(_mm256_setzero_ps(), limit));
  const __m256 e = Exp256(_mm256_add_ps(x, x));
  return _mm256_div_ps(_mm256_sub_ps(e, one), _mm256_add_ps(e, one));
}

/// RowOrColumnBiasRow eight keys at a time (integer compares; the bias
/// values are exact, so the tier cannot change the sweep's bits).
__attribute__((target("avx2"))) void RowOrColumnBiasRowAvx2(
    const MaskView& m, int64_t i, int64_t t, float* out) {
  const int32_t ri = m.row[i], ci = m.column[i];
  if (ri == 0 && ci == 0) {
    std::fill_n(out, t, 0.0f);
    return;
  }
  const __m256i zero = _mm256_setzero_si256();
  const __m256i vri = _mm256_set1_epi32(ri);
  const __m256i vci = _mm256_set1_epi32(ci);
  const __m256i use_r = _mm256_set1_epi32(ri > 0 ? -1 : 0);
  const __m256i use_c = _mm256_set1_epi32(ci > 0 ? -1 : 0);
  const __m256 masked = _mm256_set1_ps(kMaskedScore);
  int64_t j = 0;
  for (; j + 8 <= t; j += 8) {
    const __m256i rj =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m.row + j));
    const __m256i cj =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m.column + j));
    __m256i visible = _mm256_cmpeq_epi32(_mm256_or_si256(rj, cj), zero);
    visible = _mm256_or_si256(
        visible, _mm256_and_si256(_mm256_cmpeq_epi32(rj, vri), use_r));
    visible = _mm256_or_si256(
        visible, _mm256_and_si256(_mm256_cmpeq_epi32(cj, vci), use_c));
    _mm256_storeu_ps(out + j,
                     _mm256_andnot_ps(_mm256_castsi256_ps(visible), masked));
  }
  // The tail runs baseline SSE code: leave the upper halves clean first
  // (GCC omits the vzeroupper before a tail call, and the sweep that
  // resumes afterwards is SSE code too).
  _mm256_zeroupper();
  RowOrColumnBiasRow(m, i, j, t, out);
}

/// The partition kernel's scale-and-mask pass over `n` lanes (a multiple
/// of 8) of a compact score row whose keys have plan groups `groups`: a
/// query in group g >= 0 keeps context and group-g keys, a context query
/// (g = -1) keeps every key but the padding. Kept lanes become s·scale
/// (the dense kernel's product), the rest kMaskedScore.
__attribute__((target("avx2"))) void MaskScaleLanesAvx2(
    float* s, const int32_t* groups, int64_t n, int32_t g, float scale) {
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256 masked = _mm256_set1_ps(kMaskedScore);
  const __m256i vg = _mm256_set1_epi32(g);
  const __m256i context = _mm256_set1_epi32(-1);
  const __m256i pad = _mm256_set1_epi32(kPadGroup);
  for (int64_t l = 0; l < n; l += 8) {
    const __m256i gp =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(groups + l));
    const __m256 x = _mm256_mul_ps(_mm256_loadu_ps(s + l), vscale);
    __m256 keep;
    if (g < 0) {
      keep = _mm256_castsi256_ps(_mm256_xor_si256(
          _mm256_cmpeq_epi32(gp, pad), _mm256_set1_epi32(-1)));
    } else {
      keep = _mm256_castsi256_ps(_mm256_or_si256(
          _mm256_cmpeq_epi32(gp, vg), _mm256_cmpeq_epi32(gp, context)));
    }
    _mm256_storeu_ps(s + l, _mm256_blendv_ps(masked, x, keep));
  }
}

/// Stores the 16 accumulated columns of one output row, trimming to
/// the panel's valid width.
__attribute__((target("avx2"))) inline void StoreRow16(float* c, __m256 v0,
                                                       __m256 v1,
                                                       int64_t ncols) {
  if (ncols == kNR) {
    _mm256_storeu_ps(c, v0);
    _mm256_storeu_ps(c + 8, v1);
    return;
  }
  alignas(32) float buf[kNR];
  _mm256_store_ps(buf, v0);
  _mm256_store_ps(buf + 8, v1);
  for (int64_t j = 0; j < ncols; ++j) c[j] = buf[j];
}

/// 6x16 register-tiled microkernel: C[6,ncols] = A[6,k] · panel, where
/// `bp` is a packed k-major 16-wide panel (zero-padded columns). Each
/// output element accumulates over kk in ascending order, so results
/// never depend on how row blocks were assigned to threads. With
/// kAccumulate the tile starts from the 16 columns already in C
/// (ncols must be kNR): the masked attention kernel sums P·V over two
/// key ranges this way. With kTransA, row r of the A tile is column r
/// of a k-row matrix (element (r, kk) at a[kk·lda + r]): the Aᵀ·B
/// kernel reads A^T this way instead of materializing it.
template <bool kAccumulate = false, bool kTransA = false>
__attribute__((target("avx2,fma"))) void MicroKernel6x16(
    const float* a, int64_t lda, const float* bp, int64_t k, float* c,
    int64_t ldc, int64_t ncols) {
  __m256 acc00 = _mm256_setzero_ps(), acc01 = _mm256_setzero_ps();
  __m256 acc10 = _mm256_setzero_ps(), acc11 = _mm256_setzero_ps();
  __m256 acc20 = _mm256_setzero_ps(), acc21 = _mm256_setzero_ps();
  __m256 acc30 = _mm256_setzero_ps(), acc31 = _mm256_setzero_ps();
  __m256 acc40 = _mm256_setzero_ps(), acc41 = _mm256_setzero_ps();
  __m256 acc50 = _mm256_setzero_ps(), acc51 = _mm256_setzero_ps();
  if constexpr (kAccumulate) {
    acc00 = _mm256_loadu_ps(c + 0 * ldc);
    acc01 = _mm256_loadu_ps(c + 0 * ldc + 8);
    acc10 = _mm256_loadu_ps(c + 1 * ldc);
    acc11 = _mm256_loadu_ps(c + 1 * ldc + 8);
    acc20 = _mm256_loadu_ps(c + 2 * ldc);
    acc21 = _mm256_loadu_ps(c + 2 * ldc + 8);
    acc30 = _mm256_loadu_ps(c + 3 * ldc);
    acc31 = _mm256_loadu_ps(c + 3 * ldc + 8);
    acc40 = _mm256_loadu_ps(c + 4 * ldc);
    acc41 = _mm256_loadu_ps(c + 4 * ldc + 8);
    acc50 = _mm256_loadu_ps(c + 5 * ldc);
    acc51 = _mm256_loadu_ps(c + 5 * ldc + 8);
  }
  // Address of A-tile element (r, kk).
  auto at = [a, lda](int64_t r, int64_t kk) {
    return kTransA ? a + kk * lda + r : a + r * lda + kk;
  };
  for (int64_t kk = 0; kk < k; ++kk) {
    const __m256 b0 = _mm256_load_ps(bp + kk * kNR);
    const __m256 b1 = _mm256_load_ps(bp + kk * kNR + 8);
    __m256 av;
    av = _mm256_broadcast_ss(at(0, kk));
    acc00 = _mm256_fmadd_ps(av, b0, acc00);
    acc01 = _mm256_fmadd_ps(av, b1, acc01);
    av = _mm256_broadcast_ss(at(1, kk));
    acc10 = _mm256_fmadd_ps(av, b0, acc10);
    acc11 = _mm256_fmadd_ps(av, b1, acc11);
    av = _mm256_broadcast_ss(at(2, kk));
    acc20 = _mm256_fmadd_ps(av, b0, acc20);
    acc21 = _mm256_fmadd_ps(av, b1, acc21);
    av = _mm256_broadcast_ss(at(3, kk));
    acc30 = _mm256_fmadd_ps(av, b0, acc30);
    acc31 = _mm256_fmadd_ps(av, b1, acc31);
    av = _mm256_broadcast_ss(at(4, kk));
    acc40 = _mm256_fmadd_ps(av, b0, acc40);
    acc41 = _mm256_fmadd_ps(av, b1, acc41);
    av = _mm256_broadcast_ss(at(5, kk));
    acc50 = _mm256_fmadd_ps(av, b0, acc50);
    acc51 = _mm256_fmadd_ps(av, b1, acc51);
  }
  StoreRow16(c + 0 * ldc, acc00, acc01, ncols);
  StoreRow16(c + 1 * ldc, acc10, acc11, ncols);
  StoreRow16(c + 2 * ldc, acc20, acc21, ncols);
  StoreRow16(c + 3 * ldc, acc30, acc31, ncols);
  StoreRow16(c + 4 * ldc, acc40, acc41, ncols);
  StoreRow16(c + 5 * ldc, acc50, acc51, ncols);
}

/// 1x16 edge kernel for the m % 6 tail rows. A's k elements sit
/// `astride` floats apart (1 for a row, lda for a column of A^T).
__attribute__((target("avx2,fma"))) void MicroKernel1x16(
    const float* a, const float* bp, int64_t k, float* c, int64_t ncols,
    int64_t astride = 1) {
  __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
  for (int64_t kk = 0; kk < k; ++kk) {
    const __m256 av = _mm256_broadcast_ss(a + kk * astride);
    acc0 = _mm256_fmadd_ps(av, _mm256_load_ps(bp + kk * kNR), acc0);
    acc1 = _mm256_fmadd_ps(av, _mm256_load_ps(bp + kk * kNR + 8), acc1);
  }
  StoreRow16(c, acc0, acc1, ncols);
}

__attribute__((target("avx2,fma"))) float DotAvx2(const float* a,
                                                  const float* b, int64_t n) {
  const int64_t n8 = n & ~int64_t(7);
  __m256 acc = _mm256_setzero_ps();
  for (int64_t i = 0; i < n8; i += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc);
  }
  float s = HSum256(acc);
  for (int64_t i = n8; i < n; ++i) s += a[i] * b[i];
  return s;
}

__attribute__((target("avx2,fma"))) void AxpyAvx2(float* y, const float* x,
                                                  float scale, int64_t n) {
  const __m256 sv = _mm256_set1_ps(scale);
  const int64_t n8 = n & ~int64_t(7);
  for (int64_t i = 0; i < n8; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(sv, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
  }
  for (int64_t i = n8; i < n; ++i) y[i] += scale * x[i];
}

__attribute__((target("avx2"))) void AddAvx2(float* out, const float* a,
                                             const float* b, int64_t n) {
  const int64_t n8 = n & ~int64_t(7);
  for (int64_t i = 0; i < n8; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(a + i),
                                            _mm256_loadu_ps(b + i)));
  }
  for (int64_t i = n8; i < n; ++i) out[i] = a[i] + b[i];
}

__attribute__((target("avx2"))) void MulAvx2(float* out, const float* a,
                                             const float* b, int64_t n) {
  const int64_t n8 = n & ~int64_t(7);
  for (int64_t i = 0; i < n8; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                            _mm256_loadu_ps(b + i)));
  }
  for (int64_t i = n8; i < n; ++i) out[i] = a[i] * b[i];
}

__attribute__((target("avx2"))) void ScaleAvx2(float* p, int64_t n, float s) {
  const __m256 sv = _mm256_set1_ps(s);
  const int64_t n8 = n & ~int64_t(7);
  for (int64_t i = 0; i < n8; i += 8) {
    _mm256_storeu_ps(p + i, _mm256_mul_ps(sv, _mm256_loadu_ps(p + i)));
  }
  for (int64_t i = n8; i < n; ++i) p[i] *= s;
}

__attribute__((target("avx2,fma"))) void TanhAvx2(float* out, const float* x,
                                                  int64_t lo, int64_t hi) {
  int64_t i = lo;
  for (; i + 8 <= hi; i += 8) {
    _mm256_storeu_ps(out + i, Tanh256(_mm256_loadu_ps(x + i)));
  }
  for (; i < hi; ++i) out[i] = std::tanh(x[i]);
}

__attribute__((target("avx2,fma"))) void GeluAvx2(float* out, const float* x,
                                                  int64_t lo, int64_t hi) {
  const __m256 kC = _mm256_set1_ps(0.7978845608028654f);
  const __m256 kB = _mm256_set1_ps(0.044715f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.0f);
  int64_t i = lo;
  for (; i + 8 <= hi; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 v3 = _mm256_mul_ps(_mm256_mul_ps(v, v), v);
    const __m256 inner = _mm256_mul_ps(kC, _mm256_fmadd_ps(kB, v3, v));
    const __m256 t = Tanh256(inner);
    _mm256_storeu_ps(
        out + i,
        _mm256_mul_ps(_mm256_mul_ps(half, v), _mm256_add_ps(one, t)));
  }
  for (; i < hi; ++i) out[i] = GeluScalar(x[i]);
}

__attribute__((target("avx2,fma"))) void SoftmaxRowAvx2(float* row,
                                                        int64_t n) {
  const int64_t n8 = n & ~int64_t(7);
  float mx;
  if (n8 > 0) {
    __m256 vmax = _mm256_loadu_ps(row);
    for (int64_t i = 8; i < n8; i += 8) {
      vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(row + i));
    }
    mx = HMax256(vmax);
    for (int64_t i = n8; i < n; ++i) mx = std::max(mx, row[i]);
  } else {
    mx = row[0];
    for (int64_t i = 1; i < n; ++i) mx = std::max(mx, row[i]);
  }
  const __m256 vmx = _mm256_set1_ps(mx);
  __m256 vsum = _mm256_setzero_ps();
  for (int64_t i = 0; i < n8; i += 8) {
    const __m256 e = Exp256(_mm256_sub_ps(_mm256_loadu_ps(row + i), vmx));
    _mm256_storeu_ps(row + i, e);
    vsum = _mm256_add_ps(vsum, e);
  }
  float sum = HSum256(vsum);
  for (int64_t i = n8; i < n; ++i) {
    row[i] = std::exp(row[i] - mx);
    sum += row[i];
  }
  const float inv = 1.0f / sum;
  ScaleAvx2(row, n, inv);
}

__attribute__((target("avx2,fma"))) void LogSoftmaxRowAvx2(float* row,
                                                           int64_t n) {
  const int64_t n8 = n & ~int64_t(7);
  float mx;
  if (n8 > 0) {
    __m256 vmax = _mm256_loadu_ps(row);
    for (int64_t i = 8; i < n8; i += 8) {
      vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(row + i));
    }
    mx = HMax256(vmax);
    for (int64_t i = n8; i < n; ++i) mx = std::max(mx, row[i]);
  } else {
    mx = row[0];
    for (int64_t i = 1; i < n; ++i) mx = std::max(mx, row[i]);
  }
  const __m256 vmx = _mm256_set1_ps(mx);
  __m256 vsum = _mm256_setzero_ps();
  for (int64_t i = 0; i < n8; i += 8) {
    vsum = _mm256_add_ps(
        vsum, Exp256(_mm256_sub_ps(_mm256_loadu_ps(row + i), vmx)));
  }
  float sum = HSum256(vsum);
  for (int64_t i = n8; i < n; ++i) sum += std::exp(row[i] - mx);
  const float lse = mx + std::log(sum);
  const __m256 vlse = _mm256_set1_ps(lse);
  for (int64_t i = 0; i < n8; i += 8) {
    _mm256_storeu_ps(row + i, _mm256_sub_ps(_mm256_loadu_ps(row + i), vlse));
  }
  for (int64_t i = n8; i < n; ++i) row[i] -= lse;
}

__attribute__((target("avx2,fma"))) void LayerNormRowAvx2(
    float* row, const float* g, const float* b, int64_t n, float eps) {
  const int64_t n8 = n & ~int64_t(7);
  __m256 vsum = _mm256_setzero_ps();
  for (int64_t i = 0; i < n8; i += 8) {
    vsum = _mm256_add_ps(vsum, _mm256_loadu_ps(row + i));
  }
  float mean = HSum256(vsum);
  for (int64_t i = n8; i < n; ++i) mean += row[i];
  mean /= static_cast<float>(n);
  const __m256 vmean = _mm256_set1_ps(mean);
  __m256 vvar = _mm256_setzero_ps();
  for (int64_t i = 0; i < n8; i += 8) {
    const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(row + i), vmean);
    vvar = _mm256_fmadd_ps(d, d, vvar);
  }
  float var = HSum256(vvar);
  for (int64_t i = n8; i < n; ++i) {
    const float d = row[i] - mean;
    var += d * d;
  }
  var /= static_cast<float>(n);
  const float inv = 1.0f / std::sqrt(var + eps);
  const __m256 vinv = _mm256_set1_ps(inv);
  for (int64_t i = 0; i < n8; i += 8) {
    const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(row + i), vmean);
    const __m256 y = _mm256_fmadd_ps(_mm256_mul_ps(d, vinv),
                                     _mm256_loadu_ps(g + i),
                                     _mm256_loadu_ps(b + i));
    _mm256_storeu_ps(row + i, y);
  }
  for (int64_t i = n8; i < n; ++i) {
    row[i] = (row[i] - mean) * inv * g[i] + b[i];
  }
}

__attribute__((target("avx2,fma"))) void GeluBackwardAvx2(float* dx,
                                                          const float* g,
                                                          const float* x,
                                                          int64_t n) {
  const __m256 kC = _mm256_set1_ps(0.7978845608028654f);
  const __m256 kB = _mm256_set1_ps(0.044715f);
  const __m256 kB3 = _mm256_set1_ps(3.0f * 0.044715f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 v2 = _mm256_mul_ps(v, v);
    const __m256 t = Tanh256(
        _mm256_mul_ps(kC, _mm256_fmadd_ps(kB, _mm256_mul_ps(v2, v), v)));
    const __m256 du = _mm256_mul_ps(kC, _mm256_fmadd_ps(kB3, v2, one));
    // 0.5·(1 + t) + 0.5·v·(1 - t²)·du
    const __m256 sech2 = _mm256_fnmadd_ps(t, t, one);
    const __m256 d = _mm256_fmadd_ps(_mm256_mul_ps(half, v),
                                     _mm256_mul_ps(sech2, du),
                                     _mm256_mul_ps(half, _mm256_add_ps(one, t)));
    _mm256_storeu_ps(dx + i, _mm256_mul_ps(_mm256_loadu_ps(g + i), d));
  }
  GeluBackwardScalar(dx + i, g + i, x + i, n - i);
}

__attribute__((target("avx2,fma"))) void LayerNormBackwardRowAvx2(
    const float* x, const float* g, const float* gamma, int64_t n, float eps,
    float* dx, float* dgamma, float* dbeta) {
  const int64_t n8 = n & ~int64_t(7);
  __m256 vsum = _mm256_setzero_ps();
  for (int64_t i = 0; i < n8; i += 8) {
    vsum = _mm256_add_ps(vsum, _mm256_loadu_ps(x + i));
  }
  float mean = HSum256(vsum);
  for (int64_t i = n8; i < n; ++i) mean += x[i];
  mean /= static_cast<float>(n);
  const __m256 vmean = _mm256_set1_ps(mean);
  __m256 vvar = _mm256_setzero_ps();
  for (int64_t i = 0; i < n8; i += 8) {
    const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(x + i), vmean);
    vvar = _mm256_fmadd_ps(d, d, vvar);
  }
  float var = HSum256(vvar);
  for (int64_t i = n8; i < n; ++i) {
    const float d = x[i] - mean;
    var += d * d;
  }
  var /= static_cast<float>(n);
  const float inv = 1.0f / std::sqrt(var + eps);
  const __m256 vinv = _mm256_set1_ps(inv);
  __m256 vs = _mm256_setzero_ps(), vsx = _mm256_setzero_ps();
  for (int64_t i = 0; i < n8; i += 8) {
    const __m256 gi = _mm256_loadu_ps(g + i);
    const __m256 xhat =
        _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(x + i), vmean), vinv);
    const __m256 dxhat = _mm256_mul_ps(gi, _mm256_loadu_ps(gamma + i));
    vs = _mm256_add_ps(vs, dxhat);
    vsx = _mm256_fmadd_ps(dxhat, xhat, vsx);
    _mm256_storeu_ps(dgamma + i,
                     _mm256_fmadd_ps(gi, xhat, _mm256_loadu_ps(dgamma + i)));
    _mm256_storeu_ps(dbeta + i, _mm256_add_ps(gi, _mm256_loadu_ps(dbeta + i)));
  }
  float sum_dxhat = HSum256(vs);
  float sum_dxhat_xhat = HSum256(vsx);
  for (int64_t i = n8; i < n; ++i) {
    const float xhat = (x[i] - mean) * inv;
    const float dxhat = g[i] * gamma[i];
    sum_dxhat += dxhat;
    sum_dxhat_xhat += dxhat * xhat;
    dgamma[i] += g[i] * xhat;
    dbeta[i] += g[i];
  }
  const float invn = 1.0f / static_cast<float>(n);
  const float a = invn * sum_dxhat;
  const float b = invn * sum_dxhat_xhat;
  const __m256 va = _mm256_set1_ps(a), vb = _mm256_set1_ps(b);
  for (int64_t i = 0; i < n8; i += 8) {
    const __m256 xhat =
        _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(x + i), vmean), vinv);
    const __m256 dxhat =
        _mm256_mul_ps(_mm256_loadu_ps(g + i), _mm256_loadu_ps(gamma + i));
    const __m256 r = _mm256_fnmadd_ps(xhat, vb, _mm256_sub_ps(dxhat, va));
    _mm256_storeu_ps(dx + i, _mm256_mul_ps(vinv, r));
  }
  for (int64_t i = n8; i < n; ++i) {
    const float xhat = (x[i] - mean) * inv;
    dx[i] = inv * (g[i] * gamma[i] - a - xhat * b);
  }
}

__attribute__((target("avx2,fma"))) float ExpShiftSumAvx2(float* p,
                                                         int64_t n,
                                                         float shift) {
  const int64_t n8 = n & ~int64_t(7);
  const __m256 vs = _mm256_set1_ps(shift);
  __m256 vsum = _mm256_setzero_ps();
  for (int64_t i = 0; i < n8; i += 8) {
    const __m256 e = Exp256(_mm256_sub_ps(_mm256_loadu_ps(p + i), vs));
    _mm256_storeu_ps(p + i, e);
    vsum = _mm256_add_ps(vsum, e);
  }
  float sum = HSum256(vsum);
  for (int64_t i = n8; i < n; ++i) {
    p[i] = std::exp(p[i] - shift);
    sum += p[i];
  }
  return sum;
}

/// Packs B[k,n] into 16-wide k-major panels with zero-padded tail
/// columns: panel p holds bp[(p·k + kk)·16 + lane] = B[kk, p·16+lane].
/// Each panel pass reads exactly one cache line per B row (the panel's
/// 16 columns), the packing-side incarnation of the 32x32 blocked
/// transpose below. With `rows`, row kk of the packed operand is B's
/// row rows[kk] (a gather in the masked attention kernel's key order).
void PackB(const float* b, int64_t k, int64_t n, float* bp,
           const int32_t* rows = nullptr) {
  const int64_t panels = (n + kNR - 1) / kNR;
  for (int64_t p = 0; p < panels; ++p) {
    const int64_t j0 = p * kNR;
    const int64_t w = std::min(kNR, n - j0);
    float* dst = bp + p * k * kNR;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float* src = b + (rows != nullptr ? rows[kk] : kk) * n + j0;
      float* d = dst + kk * kNR;
      int64_t j = 0;
      for (; j < w; ++j) d[j] = src[j];
      for (; j < kNR; ++j) d[j] = 0.0f;
    }
  }
}

/// Packs B^T into 16-wide k-major panels: dst panel p holds
/// bp[(p*k_rows... )] such that lane = row index of `b` ([rows, k]
/// row-major), k-major over k. This is PackB applied to the transpose
/// of `b` without materializing it: the attention score pass
/// multiplies Q[*,dk] against K^T via these panels. With `order`, lane
/// r of the packed operand is row order[r] of `b`.
void PackBT(const float* b, int64_t rows, int64_t k, float* bp,
            const int32_t* order = nullptr) {
  const int64_t panels = (rows + kNR - 1) / kNR;
  for (int64_t p = 0; p < panels; ++p) {
    const int64_t r0 = p * kNR;
    const int64_t w = std::min(kNR, rows - r0);
    float* dst = bp + p * k * kNR;
    for (int64_t kk = 0; kk < k; ++kk) {
      float* d = dst + kk * kNR;
      int64_t lane = 0;
      if (order == nullptr) {
        for (; lane < w; ++lane) d[lane] = b[(r0 + lane) * k + kk];
      } else {
        for (; lane < w; ++lane) d[lane] = b[order[r0 + lane] * k + kk];
      }
      for (; lane < kNR; ++lane) d[lane] = 0.0f;
    }
  }
}

/// C = A · packed B over k, where `bp` holds B's 16-wide k-major panels
/// (PackB / PackBT) and A is row-major [m,k] with row stride lda, or
/// with kTransA the transpose of a row-major [k,m] matrix with row
/// stride lda. PackedGemmBlocksAvx2 runs row blocks [blk_lo, blk_hi) of
/// kMR rows through the 6x16 microkernel, PackedGemmTailAvx2 the m % 6
/// tail rows, PackedGemmAvx2 both with the blocks in parallel.
template <bool kTransA>
void PackedGemmBlocksAvx2(const float* a, int64_t lda, const float* bp,
                          float* c, int64_t k, int64_t n, int64_t blk_lo,
                          int64_t blk_hi) {
  const int64_t panels = (n + kNR - 1) / kNR;
  for (int64_t blk = blk_lo; blk < blk_hi; ++blk) {
    const int64_t i0 = blk * kMR;
    const float* arow = kTransA ? a + i0 : a + i0 * lda;
    for (int64_t p = 0; p < panels; ++p) {
      const int64_t j0 = p * kNR;
      MicroKernel6x16<false, kTransA>(arow, lda, bp + p * k * kNR, k,
                                      c + i0 * n + j0, n,
                                      std::min(kNR, n - j0));
    }
  }
}

template <bool kTransA>
void PackedGemmTailAvx2(const float* a, int64_t lda, const float* bp,
                        float* c, int64_t m, int64_t k, int64_t n) {
  const int64_t panels = (n + kNR - 1) / kNR;
  for (int64_t i = m / kMR * kMR; i < m; ++i) {
    const float* arow = kTransA ? a + i : a + i * lda;
    for (int64_t p = 0; p < panels; ++p) {
      const int64_t j0 = p * kNR;
      MicroKernel1x16(arow, bp + p * k * kNR, k, c + i * n + j0,
                      std::min(kNR, n - j0), kTransA ? lda : 1);
    }
  }
}

template <bool kTransA>
void PackedGemmAvx2(const float* a, int64_t lda, const float* bp, float* c,
                    int64_t m, int64_t k, int64_t n) {
  const int64_t grain = GrainForFlopsPerRow(kMR * k * n);
  runtime::ParallelFor(0, m / kMR, grain, [&](int64_t lo, int64_t hi) {
    PackedGemmBlocksAvx2<kTransA>(a, lda, bp, c, k, n, lo, hi);
  });
  // Tail rows (< kMR of them) on the calling thread.
  PackedGemmTailAvx2<kTransA>(a, lda, bp, c, m, k, n);
}

void MatMulAvx2(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n) {
  const int64_t panels = (n + kNR - 1) / kNR;
  AlignedBuffer& pack = PackScratch(static_cast<size_t>(panels * k * kNR));
  PackB(b, k, n, pack.data());
  PackedGemmAvx2<false>(a, k, pack.data(), c, m, k, n);
}

/// A · B^T: B's rows become the packed panels' lanes (PackBT), then the
/// MatMul microkernel; no transposed copy of B.
void MatMulTBAvx2(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n) {
  const int64_t panels = (n + kNR - 1) / kNR;
  AlignedBuffer& pack = PackScratch(static_cast<size_t>(panels * k * kNR));
  PackBT(b, n, k, pack.data());
  PackedGemmAvx2<false>(a, k, pack.data(), c, m, k, n);
}

/// A^T · B for A [m,k], B [m,n]: the contraction runs over m. B packs
/// as is; the microkernel reads A's columns as the tile rows.
void MatMulTAAvx2(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n) {
  const int64_t panels = (n + kNR - 1) / kNR;
  AlignedBuffer& pack = PackScratch(static_cast<size_t>(panels * m * kNR));
  PackB(b, m, n, pack.data());
  PackedGemmAvx2<true>(a, k, pack.data(), c, k, m, n);
}

/// AVX2 fused attention: query rows in blocks of kMR through the same
/// 6x16 microkernels as MatMul — score tiles against packed-K^T
/// panels, softmax rows in place, context tiles against packed-V
/// panels. Only kMR score rows are live at a time unless the caller
/// captures them. `bias_rows` supplies each query row's additive bias
/// (DenseBiasRows / MaskBiasRows).
template <typename BiasRows>
void FusedAttentionAvx2Sweep(const float* q, const float* k, const float* v,
                             BiasRows bias_rows, float scale, int64_t tq,
                             int64_t tk, int64_t dk, int64_t dv, float* out,
                             float* probs_out) {
  const int64_t kpanels = (tk + kNR - 1) / kNR;
  const int64_t vpanels = (dv + kNR - 1) / kNR;
  // Both packs happen once, on the calling thread, before the parallel
  // region; workers only read them.
  AlignedBuffer& kp_buf = PackScratch(static_cast<size_t>(kpanels * dk * kNR));
  PackBT(k, tk, dk, kp_buf.data());
  AlignedBuffer& vp_buf =
      PackScratch2(static_cast<size_t>(vpanels * tk * kNR));
  PackB(v, tk, dv, vp_buf.data());
  const float* kp = kp_buf.data();
  const float* vp = vp_buf.data();

  auto process_rows = [&](int64_t i0, int64_t nrows) {
    float* srows = probs_out != nullptr
                       ? probs_out + i0 * tk
                       : RowScratch(static_cast<size_t>(kMR * tk)).data();
    if (nrows == kMR) {
      for (int64_t p = 0; p < kpanels; ++p) {
        MicroKernel6x16(q + i0 * dk, dk, kp + p * dk * kNR, dk,
                        srows + p * kNR, tk, std::min(kNR, tk - p * kNR));
      }
    } else {
      for (int64_t r = 0; r < nrows; ++r) {
        for (int64_t p = 0; p < kpanels; ++p) {
          MicroKernel1x16(q + (i0 + r) * dk, kp + p * dk * kNR, dk,
                          srows + r * tk + p * kNR,
                          std::min(kNR, tk - p * kNR));
        }
      }
    }
    for (int64_t r = 0; r < nrows; ++r) {
      float* s = srows + r * tk;
      if (const float* brow = bias_rows(i0 + r)) {
        for (int64_t j = 0; j < tk; ++j) s[j] = s[j] * scale + brow[j];
      } else {
        for (int64_t j = 0; j < tk; ++j) s[j] *= scale;
      }
      SoftmaxRowAvx2(s, tk);
    }
    if (nrows == kMR) {
      for (int64_t p = 0; p < vpanels; ++p) {
        MicroKernel6x16(srows, tk, vp + p * tk * kNR, tk,
                        out + i0 * dv + p * kNR, dv,
                        std::min(kNR, dv - p * kNR));
      }
    } else {
      for (int64_t r = 0; r < nrows; ++r) {
        for (int64_t p = 0; p < vpanels; ++p) {
          MicroKernel1x16(srows + r * tk, vp + p * tk * kNR, tk,
                          out + (i0 + r) * dv + p * kNR,
                          std::min(kNR, dv - p * kNR));
        }
      }
    }
  };

  const int64_t full_blocks = tq / kMR;
  const int64_t grain = GrainForFlopsPerRow(kMR * tk * (dk + dv));
  runtime::ParallelFor(0, full_blocks, grain, [&](int64_t lo, int64_t hi) {
    for (int64_t blk = lo; blk < hi; ++blk) process_rows(blk * kMR, kMR);
  });
  const int64_t tail0 = full_blocks * kMR;
  if (tail0 < tq) process_rows(tail0, tq - tail0);
}

void FusedAttentionAvx2(const float* q, const float* k, const float* v,
                        const float* bias, float scale, int64_t tq,
                        int64_t tk, int64_t dk, int64_t dv, float* out,
                        float* probs_out) {
  FusedAttentionAvx2Sweep(q, k, v, DenseBiasRows{bias, tk}, scale, tq, tk, dk,
                          dv, out, probs_out);
}

/// Token order of a partition rule (kSameRow, kSameColumn, kSameGroup):
/// context tokens first, then the groups in ascending id, then the
/// tokens the rule puts in no group (headers under kSameRow, separators
/// under kSameColumn) as singletons; sequence order inside each. A
/// non-context query at position p sees exactly the positions
/// [0, num_context) ∪ [lo[p], hi[p]); a context query sees all of them.
/// Lives in the calling thread's plan scratch; built before the
/// parallel region, read-only inside it.
struct PartitionPlan {
  int64_t num_context = 0;
  int32_t* order = nullptr;  // position -> token index
  int32_t* lo = nullptr;     // position -> first position of its group
  int32_t* hi = nullptr;     // position -> one past its group's last
  /// position -> group id, -1 = context; padded to whole 16-key panels
  /// with kPadGroup, which no query's group equals.
  int32_t* group = nullptr;
};

PartitionPlan BuildPartitionPlan(const MaskView& m, int64_t t) {
  constexpr int64_t kContext = std::numeric_limits<int64_t>::min();
  constexpr int64_t kSingleton = std::numeric_limits<int64_t>::max();
  thread_local std::vector<int64_t> keys;
  thread_local std::vector<int32_t> ids, counts;
  const size_t n = static_cast<size_t>(t);
  const size_t padded = (n + kNR - 1) / kNR * kNR;
  if (keys.size() < n) keys.resize(n);
  if (ids.size() < 3 * n + padded) ids.resize(3 * n + padded);
  int64_t* key = keys.data();
  PartitionPlan plan;
  plan.order = ids.data();
  plan.lo = plan.order + n;
  plan.hi = plan.lo + n;
  plan.group = plan.hi + n;
  int64_t min_id = std::numeric_limits<int64_t>::max();
  int64_t max_id = std::numeric_limits<int64_t>::min();
  for (int64_t i = 0; i < t; ++i) {
    const int32_t r = m.row[i], c = m.column[i];
    if (m.rule == MaskRule::kSameGroup) {
      key[i] = c;
    } else if (r == 0 && c == 0) {
      key[i] = kContext;
    } else {
      const int32_t id = m.rule == MaskRule::kSameRow ? r : c;
      key[i] = id > 0 ? id : kSingleton;
    }
    if (key[i] != kContext && key[i] != kSingleton) {
      min_id = std::min(min_id, key[i]);
      max_id = std::max(max_id, key[i]);
    }
  }
  // Order by (key, index). Table row and column ids count up from 1, so
  // a stable counting sort over the id range does it in O(t); ids
  // spread wider than that fall back to a comparison sort.
  if (max_id < min_id || max_id - min_id < 4 * t) {
    const int64_t range = max_id < min_id ? 0 : max_id - min_id + 1;
    auto bucket = [&](int64_t i) -> int64_t {
      if (key[i] == kContext) return 0;
      if (key[i] == kSingleton) return range + 1;
      return 1 + key[i] - min_id;
    };
    counts.assign(static_cast<size_t>(range + 3), 0);
    for (int64_t i = 0; i < t; ++i) ++counts[bucket(i) + 1];
    for (int64_t b = 1; b < range + 3; ++b) counts[b] += counts[b - 1];
    for (int64_t i = 0; i < t; ++i) {
      plan.order[counts[bucket(i)]++] = static_cast<int32_t>(i);
    }
  } else {
    for (int64_t i = 0; i < t; ++i) plan.order[i] = static_cast<int32_t>(i);
    std::sort(plan.order, plan.order + t, [key](int32_t a, int32_t b) {
      return key[a] != key[b] ? key[a] < key[b] : a < b;
    });
  }
  int32_t gid = -1;
  for (int64_t p = 0; p < t; ++p) {
    const int64_t kp = key[plan.order[p]];
    if (kp == kContext) {
      plan.group[p] = -1;
      ++plan.num_context;
      continue;
    }
    if (p == 0 || kp == kSingleton || kp != key[plan.order[p - 1]]) ++gid;
    plan.group[p] = gid;
  }
  std::fill(plan.group + t, plan.group + padded, kPadGroup);
  for (int64_t p = 0; p < t;) {
    int64_t e = p + 1;
    while (e < t && plan.group[e] == plan.group[p]) ++e;
    for (int64_t x = p; x < e; ++x) {
      plan.lo[x] = static_cast<int32_t>(p);
      plan.hi[x] = static_cast<int32_t>(e);
    }
    p = e;
  }
  return plan;
}

/// AVX2 partition-rule attention. K^T and V are packed once in the
/// plan's order, so context keys fill the first panels and each group's
/// keys are contiguous. Queries run in blocks of kMR consecutive plan
/// positions: context queries sweep every panel, the rest score only
/// the context panels plus the panels spanning their block's groups
/// (about 6 of 32 panels for a MATE row head at T=512), mask the lanes
/// outside each query's group, and sum P·V over the same two panel
/// ranges. In sequence order this saves nothing: a context separator
/// every row puts a visible key in every 16-key panel.
void MaskedAttentionPartitionAvx2(const float* q, const float* k,
                                  const float* v, const MaskView& mask,
                                  float scale, int64_t t, int64_t dk,
                                  int64_t dv, float* out, float* probs_out) {
  const PartitionPlan plan = BuildPartitionPlan(mask, t);
  const int64_t kpanels = (t + kNR - 1) / kNR;
  const int64_t vpanels = (dv + kNR - 1) / kNR;
  const int64_t dvp = vpanels * kNR;
  AlignedBuffer& kp_buf = PackScratch(static_cast<size_t>(kpanels * dk * kNR));
  PackBT(k, t, dk, kp_buf.data(), plan.order);
  AlignedBuffer& vp_buf = PackScratch2(static_cast<size_t>(vpanels * t * kNR));
  PackB(v, t, dv, vp_buf.data(), plan.order);
  const float* kp = kp_buf.data();
  const float* vp = vp_buf.data();
  const int64_t nctx = plan.num_context;
  const int64_t ctx_panels = (nctx + kNR - 1) / kNR;
  const int64_t ctx_blocks = (nctx + kMR - 1) / kMR;
  const int64_t blocks = ctx_blocks + (t - nctx + kMR - 1) / kMR;

  auto process_block = [&](int64_t blk) {
    const bool ctx = blk < ctx_blocks;
    const int64_t p0 = ctx ? blk * kMR : nctx + (blk - ctx_blocks) * kMR;
    const int64_t nrows = std::min(kMR, (ctx ? nctx : t) - p0);
    // Key panels [0, a1) ∪ [b0, b1), in score-row order.
    int64_t a1 = kpanels, b0 = 0, b1 = 0;
    if (!ctx) {
      a1 = ctx_panels;
      b0 = plan.lo[p0] / kNR;
      b1 = (plan.hi[p0 + nrows - 1] + kNR - 1) / kNR;
      if (b0 <= a1) {
        a1 = std::max(a1, b1);
        b0 = b1 = 0;
      }
    }
    const int64_t width = (a1 + b1 - b0) * kNR;
    float* srows =
        RowScratch(static_cast<size_t>(kMR * (kpanels * kNR + dk + dvp)))
            .data();
    float* qrows = srows + kMR * width;
    float* orows = qrows + kMR * dk;
    // Short blocks pad with zero queries; each row of the 6x16 tile is
    // independent, so padding never changes the real rows' bits.
    for (int64_t r = 0; r < kMR; ++r) {
      float* dst = qrows + r * dk;
      if (r < nrows) {
        std::memcpy(dst, q + plan.order[p0 + r] * dk,
                    static_cast<size_t>(dk) * sizeof(float));
      } else {
        std::fill_n(dst, dk, 0.0f);
      }
    }
    auto position = [&](int64_t lane) {
      return lane < a1 * kNR ? lane : b0 * kNR + lane - a1 * kNR;
    };
    for (int64_t p = 0; p < a1; ++p) {
      MicroKernel6x16(qrows, dk, kp + p * dk * kNR, dk, srows + p * kNR,
                      width, kNR);
    }
    for (int64_t p = b0; p < b1; ++p) {
      MicroKernel6x16(qrows, dk, kp + p * dk * kNR, dk,
                      srows + (a1 + p - b0) * kNR, width, kNR);
    }
    for (int64_t r = 0; r < kMR; ++r) {
      const int32_t g = ctx ? -1 : plan.group[p0 + std::min(r, nrows - 1)];
      float* s = srows + r * width;
      MaskScaleLanesAvx2(s, plan.group, a1 * kNR, g, scale);
      MaskScaleLanesAvx2(s + a1 * kNR, plan.group + b0 * kNR,
                         (b1 - b0) * kNR, g, scale);
      SoftmaxRowAvx2(s, width);
    }
    const int64_t a_len = std::min(a1 * kNR, t);
    const int64_t b_len = b1 > b0 ? std::min(b1 * kNR, t) - b0 * kNR : 0;
    for (int64_t p = 0; p < vpanels; ++p) {
      const float* panel = vp + p * t * kNR;
      MicroKernel6x16(srows, width, panel, a_len, orows + p * kNR, dvp, kNR);
      if (b_len > 0) {
        MicroKernel6x16<true>(srows + a1 * kNR, width, panel + b0 * kNR * kNR,
                              b_len, orows + p * kNR, dvp, kNR);
      }
    }
    for (int64_t r = 0; r < nrows; ++r) {
      const int64_t tok = plan.order[p0 + r];
      std::memcpy(out + tok * dv, orows + r * dvp,
                  static_cast<size_t>(dv) * sizeof(float));
      if (probs_out == nullptr) continue;
      float* prow = probs_out + tok * t;
      std::fill_n(prow, t, 0.0f);
      const float* s = srows + r * width;
      for (int64_t lane = 0; lane < width; ++lane) {
        const int64_t pos = position(lane);
        if (pos < t) prow[plan.order[pos]] = s[lane];
      }
    }
  };

  const int64_t grain =
      GrainForFlopsPerRow(kMR * (ctx_panels + 2) * kNR * (dk + dv));
  runtime::ParallelFor(0, blocks, grain, [&](int64_t lo, int64_t hi) {
    for (int64_t blk = lo; blk < hi; ++blk) process_block(blk);
  });
}

void MaskedAttentionAvx2(const float* q, const float* k, const float* v,
                         const MaskView& mask, float scale, int64_t t,
                         int64_t dk, int64_t dv, float* out,
                         float* probs_out) {
  if (mask.rule == MaskRule::kRowOrColumn) {
    FusedAttentionAvx2Sweep(q, k, v,
                            MaskBiasRows{&mask, t, &RowOrColumnBiasRowAvx2},
                            scale, t, t, dk, dv, out, probs_out);
  } else {
    MaskedAttentionPartitionAvx2(q, k, v, mask, scale, t, dk, dv, out,
                                 probs_out);
  }
}

#endif  // TABREP_KERNELS_X86

void ContextRowScalar(const float* __restrict s, const float* __restrict v,
                      float* __restrict orow, int64_t tk, int64_t dv) {
  std::fill_n(orow, static_cast<size_t>(dv), 0.0f);
  for (int64_t j = 0; j < tk; ++j) {
    const float w = s[j];
    const float* vrow = v + j * dv;
    for (int64_t c = 0; c < dv; ++c) orow[c] += w * vrow[c];
  }
}

// ======================================================================
// Registry variants. Full-signature wrappers around the scalar/AVX2
// helpers above, one per (op, tier), so every implementation has a
// name the dispatch registry can resolve and enumerate. Parallelism
// lives inside the variant (or in the public wrapper for row/range
// ops), never in the caller.
// ======================================================================

void ScaleScalar(float* p, int64_t n, float s) {
  for (int64_t i = 0; i < n; ++i) p[i] *= s;
}

void AddScalar(float* out, const float* a, const float* b, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void MulScalar(float* out, const float* a, const float* b, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void TanhRangeScalar(float* out, const float* a, int64_t lo, int64_t hi) {
  for (int64_t i = lo; i < hi; ++i) out[i] = std::tanh(a[i]);
}

void GeluRangeScalar(float* out, const float* a, int64_t lo, int64_t hi) {
  for (int64_t i = lo; i < hi; ++i) out[i] = GeluScalar(a[i]);
}

void MatMulScalarPar(const float* a, const float* b, float* c, int64_t m,
                     int64_t k, int64_t n) {
  runtime::ParallelFor(0, m, GrainForFlopsPerRow(k * n),
                       [&](int64_t lo, int64_t hi) {
                         MatMulRowsScalar(a, b, c, k, n, lo, hi);
                       });
}

void MatMulTBScalarPar(const float* a, const float* b, float* c, int64_t m,
                       int64_t k, int64_t n) {
  runtime::ParallelFor(0, m, GrainForFlopsPerRow(k * n),
                       [&](int64_t lo, int64_t hi) {
                         for (int64_t i = lo; i < hi; ++i) {
                           MatMulTBRowScalar(a + i * k, b, c + i * n, k, n);
                         }
                       });
}


void MatMulTAScalarPar(const float* a, const float* b, float* c, int64_t m,
                       int64_t k, int64_t n) {
  runtime::ParallelFor(0, k, GrainForFlopsPerRow(m * n),
                       [&](int64_t lo, int64_t hi) {
                         for (int64_t i = lo; i < hi; ++i) {
                           float* __restrict crow = c + i * n;
                           std::fill_n(crow, n, 0.0f);
                           for (int64_t kk = 0; kk < m; ++kk) {
                             AxpyScalar(crow, b + kk * n, a[kk * k + i], n);
                           }
                         }
                       });
}

void TransposeBlocked(const float* a, float* out, int64_t m, int64_t n) {
  for (int64_t i0 = 0; i0 < m; i0 += kTransposeBlock) {
    const int64_t i1 = std::min(m, i0 + kTransposeBlock);
    for (int64_t j0 = 0; j0 < n; j0 += kTransposeBlock) {
      const int64_t j1 = std::min(n, j0 + kTransposeBlock);
      for (int64_t i = i0; i < i1; ++i) {
        const float* src = a + i * n;
        for (int64_t j = j0; j < j1; ++j) out[j * m + i] = src[j];
      }
    }
  }
}

// ======================================================================
// Blocked tied-softmax loss. One template over a tier's serial GEMM
// primitives (the loss blocks the vocabulary itself and runs inside the
// trainer's batch-parallel region, so it never opens a ParallelFor).
// ======================================================================

struct NaiveGemms {
  static void ABt(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n) {
    naive::MatMulTransposedB(a, b, c, m, k, n);
  }
  static void AtB(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n) {
    naive::MatMulTransposedA(a, b, c, m, k, n);
  }
  static void AB(const float* a, const float* b, float* c, int64_t m,
                 int64_t k, int64_t n) {
    naive::MatMul(a, b, c, m, k, n);
  }
  static float ExpShiftSum(float* p, int64_t n, float shift) {
    return ExpShiftSumScalar(p, n, shift);
  }
};

struct ScalarGemms : NaiveGemms {
  static void ABt(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n) {
    for (int64_t i = 0; i < m; ++i) {
      MatMulTBRowScalar(a + i * k, b, c + i * n, k, n);
    }
  }
  static void AB(const float* a, const float* b, float* c, int64_t m,
                 int64_t k, int64_t n) {
    MatMulRowsScalar(a, b, c, k, n, 0, m);
  }
};

#if TABREP_KERNELS_X86
struct Avx2Gemms {
  static void ABt(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n) {
    float* bp = PackScratch(static_cast<size_t>((n + kNR - 1) / kNR * k * kNR))
                    .data();
    PackBT(b, n, k, bp);
    PackedGemmBlocksAvx2<false>(a, k, bp, c, k, n, 0, m / kMR);
    PackedGemmTailAvx2<false>(a, k, bp, c, m, k, n);
  }
  static void AtB(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n) {
    float* bp = PackScratch(static_cast<size_t>((n + kNR - 1) / kNR * m * kNR))
                    .data();
    PackB(b, m, n, bp);
    PackedGemmBlocksAvx2<true>(a, k, bp, c, m, n, 0, k / kMR);
    PackedGemmTailAvx2<true>(a, k, bp, c, k, m, n);
  }
  static void AB(const float* a, const float* b, float* c, int64_t m,
                 int64_t k, int64_t n) {
    float* bp = PackScratch(static_cast<size_t>((n + kNR - 1) / kNR * k * kNR))
                    .data();
    PackB(b, k, n, bp);
    PackedGemmBlocksAvx2<false>(a, k, bp, c, k, n, 0, m / kMR);
    PackedGemmTailAvx2<false>(a, k, bp, c, m, k, n);
  }
  static float ExpShiftSum(float* p, int64_t n, float shift) {
    return ExpShiftSumAvx2(p, n, shift);
  }
};
#endif

/// z[r,vb] = h · w[v0 : v0+vb]^T + b[v0 : v0+vb].
template <typename G>
void TiedLogitsBlock(const float* h, const float* w, const float* b,
                     int64_t r, int64_t d, int64_t v0, int64_t vb, float* z) {
  G::ABt(h, w + v0 * d, z, r, d, vb);
  for (int64_t i = 0; i < r; ++i) {
    float* __restrict row = z + i * vb;
    for (int64_t j = 0; j < vb; ++j) row[j] += b[v0 + j];
  }
}

template <typename G>
void TiedSoftmaxForwardT(const float* h, const float* w, const float* b,
                         const int32_t* targets, int64_t r, int64_t d,
                         int64_t v, float* lse, float* target_logit,
                         int32_t* argmax) {
  const int64_t block = std::min(kTiedSoftmaxBlock, v);
  float* z = RowScratch(static_cast<size_t>(r * block + r)).data();
  float* sum = z + r * block;
  // lse[i] holds row i's running max until the final log.
  for (int64_t v0 = 0; v0 < v; v0 += block) {
    const int64_t vb = std::min(block, v - v0);
    TiedLogitsBlock<G>(h, w, b, r, d, v0, vb, z);
    for (int64_t i = 0; i < r; ++i) {
      float* row = z + i * vb;
      const int64_t t = targets[i];
      if (t >= v0 && t < v0 + vb) target_logit[i] = row[t - v0];
      int64_t best = 0;
      for (int64_t j = 1; j < vb; ++j) {
        if (row[j] > row[best]) best = j;
      }
      if (v0 == 0) {
        sum[i] = 0.0f;
        lse[i] = row[best];
        argmax[i] = static_cast<int32_t>(best);
      } else if (row[best] > lse[i]) {
        sum[i] *= std::exp(lse[i] - row[best]);
        lse[i] = row[best];
        argmax[i] = static_cast<int32_t>(v0 + best);
      }
      sum[i] += G::ExpShiftSum(row, vb, lse[i]);
    }
  }
  for (int64_t i = 0; i < r; ++i) lse[i] += std::log(sum[i]);
}

template <typename G>
void TiedSoftmaxBackwardT(const float* h, const float* w, const float* b,
                          const int32_t* targets, const float* lse,
                          float scale, int64_t r, int64_t d, int64_t v,
                          float* dh, float* dw, float* db) {
  const int64_t block = std::min(kTiedSoftmaxBlock, v);
  float* z = RowScratch(static_cast<size_t>(r * block + r * d)).data();
  float* part = z + r * block;  // one block's dz · w
  for (int64_t v0 = 0; v0 < v; v0 += block) {
    const int64_t vb = std::min(block, v - v0);
    TiedLogitsBlock<G>(h, w, b, r, d, v0, vb, z);
    for (int64_t i = 0; i < r; ++i) {
      float* __restrict row = z + i * vb;
      G::ExpShiftSum(row, vb, lse[i]);
      for (int64_t j = 0; j < vb; ++j) row[j] *= scale;
      const int64_t t = targets[i];
      if (t >= v0 && t < v0 + vb) row[t - v0] -= scale;
    }
    if (db != nullptr) {
      float* __restrict out = db + v0;
      std::copy(z, z + vb, out);
      for (int64_t i = 1; i < r; ++i) {
        const float* __restrict row = z + i * vb;
        for (int64_t j = 0; j < vb; ++j) out[j] += row[j];
      }
    }
    if (dw != nullptr) G::AtB(z, h, dw + v0 * d, r, vb, d);
    if (dh != nullptr) {
      G::AB(z, w + v0 * d, v0 == 0 ? dh : part, r, vb, d);
      if (v0 > 0) {
        for (int64_t i = 0; i < r * d; ++i) dh[i] += part[i];
      }
    }
  }
}

template <typename BiasRows>
void FusedAttentionScalarSweep(const float* q, const float* k, const float* v,
                               BiasRows bias_rows, float scale, int64_t tq,
                               int64_t tk, int64_t dk, int64_t dv, float* out,
                               float* probs_out) {
  const int64_t grain = GrainForFlopsPerRow(tk * (dk + dv));
  runtime::ParallelFor(0, tq, grain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      // The score row lives either directly in the caller's probs
      // buffer or in thread-local scratch; the arithmetic is identical
      // either way, so capturing probabilities never perturbs outputs.
      float* s = probs_out != nullptr
                     ? probs_out + i * tk
                     : RowScratch(static_cast<size_t>(tk)).data();
      MatMulTBRowScalar(q + i * dk, k, s, dk, tk);
      if (const float* brow = bias_rows(i)) {
        for (int64_t j = 0; j < tk; ++j) s[j] = s[j] * scale + brow[j];
      } else {
        for (int64_t j = 0; j < tk; ++j) s[j] *= scale;
      }
      SoftmaxRowScalar(s, tk);
      ContextRowScalar(s, v, out + i * dv, tk, dv);
    }
  });
}

void FusedAttentionScalarPar(const float* q, const float* k, const float* v,
                             const float* bias, float scale, int64_t tq,
                             int64_t tk, int64_t dk, int64_t dv, float* out,
                             float* probs_out) {
  FusedAttentionScalarSweep(q, k, v, DenseBiasRows{bias, tk}, scale, tq, tk,
                            dk, dv, out, probs_out);
}

/// The portable tier keeps the dense sweep for every rule, with bias
/// rows computed from the ids: bitwise equal to FusedAttentionScalarPar
/// on the materialized bias. Panel skipping is the AVX2 tier's.
void MaskedAttentionScalar(const float* q, const float* k, const float* v,
                           const MaskView& mask, float scale, int64_t t,
                           int64_t dk, int64_t dv, float* out,
                           float* probs_out) {
  FusedAttentionScalarSweep(q, k, v, MaskBiasRows{&mask, t}, scale, t, t, dk,
                            dv, out, probs_out);
}

// ======================================================================
// The dispatch registry. One OpEntry per op, resolved once against
// ActiveSimdLevel() on first use; every kernel call below goes through
// its entry's resolved pointer.
// ======================================================================

struct Registry {
  detail::OpEntry<void (*)(float*, int64_t, float)> scale;
  detail::OpEntry<void (*)(float*, const float*, float, int64_t)> axpy;
  detail::OpEntry<void (*)(float*, const float*, const float*, int64_t)> add;
  detail::OpEntry<void (*)(float*, const float*, const float*, int64_t)> mul;
  detail::OpEntry<void (*)(float*, const float*, int64_t, int64_t)> tanh_range;
  detail::OpEntry<void (*)(float*, const float*, int64_t, int64_t)> gelu_range;
  detail::OpEntry<float (*)(const float*, const float*, int64_t)> dot;
  detail::OpEntry<void (*)(const float*, const float*, float*, int64_t,
                           int64_t, int64_t)>
      matmul;
  detail::OpEntry<void (*)(const float*, const float*, float*, int64_t,
                           int64_t, int64_t)>
      matmul_tb;
  detail::OpEntry<void (*)(const float*, const float*, float*, int64_t,
                           int64_t, int64_t)>
      matmul_ta;
  detail::OpEntry<void (*)(const float*, float*, int64_t, int64_t)> transpose;
  detail::OpEntry<void (*)(float*, int64_t)> softmax_row;
  detail::OpEntry<void (*)(float*, int64_t)> log_softmax_row;
  detail::OpEntry<void (*)(float*, const float*, const float*, int64_t, float)>
      layernorm_row;
  detail::OpEntry<void (*)(float*, const float*, const float*, int64_t)>
      gelu_backward;
  detail::OpEntry<void (*)(const float*, const float*, const float*, int64_t,
                           float, float*, float*, float*)>
      layernorm_backward_row;
  detail::OpEntry<void (*)(const float*, const float*, const float*,
                           const int32_t*, int64_t, int64_t, int64_t, float*,
                           float*, int32_t*)>
      tied_softmax_forward;
  detail::OpEntry<void (*)(const float*, const float*, const float*,
                           const int32_t*, const float*, float, int64_t,
                           int64_t, int64_t, float*, float*, float*)>
      tied_softmax_backward;
  detail::OpEntry<void (*)(const float*, const float*, const float*,
                           const float*, float, int64_t, int64_t, int64_t,
                           int64_t, float*, float*)>
      attention;
  detail::OpEntry<void (*)(const float*, const float*, const float*,
                           const MaskView&, float, int64_t, int64_t, int64_t,
                           float*, float*)>
      masked_attention;

  template <typename V>
  void ForEach(V&& visit) {
    visit(scale);
    visit(axpy);
    visit(add);
    visit(mul);
    visit(tanh_range);
    visit(gelu_range);
    visit(dot);
    visit(matmul);
    visit(matmul_tb);
    visit(matmul_ta);
    visit(transpose);
    visit(softmax_row);
    visit(log_softmax_row);
    visit(layernorm_row);
    visit(gelu_backward);
    visit(layernorm_backward_row);
    visit(tied_softmax_forward);
    visit(tied_softmax_backward);
    visit(attention);
    visit(masked_attention);
  }
};

Registry BuildRegistry() {
  using SL = SimdLevel;
  Registry r;
  r.scale = {"scale", {{SL::kScalar, "scalar", &ScaleScalar}}};
  r.axpy = {"axpy", {{SL::kScalar, "scalar", &AxpyScalar}}};
  r.add = {"add", {{SL::kScalar, "scalar", &AddScalar}}};
  r.mul = {"mul", {{SL::kScalar, "scalar", &MulScalar}}};
  r.tanh_range = {"tanh", {{SL::kScalar, "scalar", &TanhRangeScalar}}};
  r.gelu_range = {"gelu", {{SL::kScalar, "scalar", &GeluRangeScalar}}};
  r.dot = {"dot", {{SL::kScalar, "scalar", &DotScalar}}};
  r.matmul = {"matmul",
              {{SL::kNaive, "naive", &naive::MatMul},
               {SL::kScalar, "scalar", &MatMulScalarPar}}};
  r.matmul_tb = {"matmul_tb",
                 {{SL::kNaive, "naive", &naive::MatMulTransposedB},
                  {SL::kScalar, "scalar", &MatMulTBScalarPar}}};
  r.matmul_ta = {"matmul_ta",
                 {{SL::kNaive, "naive", &naive::MatMulTransposedA},
                  {SL::kScalar, "scalar", &MatMulTAScalarPar}}};
  r.transpose = {"transpose",
                 {{SL::kNaive, "naive", &naive::Transpose},
                  {SL::kScalar, "scalar", &TransposeBlocked}}};
  r.softmax_row = {"softmax_rows", {{SL::kScalar, "scalar", &SoftmaxRowScalar}}};
  r.log_softmax_row = {"log_softmax_rows",
                       {{SL::kScalar, "scalar", &LogSoftmaxRowScalar}}};
  r.layernorm_row = {"layernorm_rows",
                     {{SL::kScalar, "scalar", &LayerNormRowScalar}}};
  r.gelu_backward = {"gelu_backward",
                     {{SL::kScalar, "scalar", &GeluBackwardScalar}}};
  r.layernorm_backward_row = {
      "layernorm_backward_rows",
      {{SL::kScalar, "scalar", &LayerNormBackwardRowScalar}}};
  r.tied_softmax_forward = {
      "tied_softmax_forward",
      {{SL::kNaive, "naive", &TiedSoftmaxForwardT<NaiveGemms>},
       {SL::kScalar, "scalar", &TiedSoftmaxForwardT<ScalarGemms>}}};
  r.tied_softmax_backward = {
      "tied_softmax_backward",
      {{SL::kNaive, "naive", &TiedSoftmaxBackwardT<NaiveGemms>},
       {SL::kScalar, "scalar", &TiedSoftmaxBackwardT<ScalarGemms>}}};
  r.attention = {"attention",
                 {{SL::kNaive, "naive", &naive::FusedAttention},
                  {SL::kScalar, "scalar", &FusedAttentionScalarPar}}};
  r.masked_attention = {"masked_attention",
                        {{SL::kNaive, "naive", &naive::MaskedAttention},
                         {SL::kScalar, "scalar", &MaskedAttentionScalar}}};
#if TABREP_KERNELS_X86
  r.scale.variants.push_back({SL::kAvx2, "avx2", &ScaleAvx2});
  r.axpy.variants.push_back({SL::kAvx2, "avx2", &AxpyAvx2});
  r.add.variants.push_back({SL::kAvx2, "avx2", &AddAvx2});
  r.mul.variants.push_back({SL::kAvx2, "avx2", &MulAvx2});
  r.tanh_range.variants.push_back({SL::kAvx2, "avx2", &TanhAvx2});
  r.gelu_range.variants.push_back({SL::kAvx2, "avx2", &GeluAvx2});
  r.dot.variants.push_back({SL::kAvx2, "avx2", &DotAvx2});
  r.matmul.variants.push_back({SL::kAvx2, "avx2", &MatMulAvx2});
  r.matmul_tb.variants.push_back({SL::kAvx2, "avx2", &MatMulTBAvx2});
  r.matmul_ta.variants.push_back({SL::kAvx2, "avx2", &MatMulTAAvx2});
  r.softmax_row.variants.push_back({SL::kAvx2, "avx2", &SoftmaxRowAvx2});
  r.log_softmax_row.variants.push_back({SL::kAvx2, "avx2", &LogSoftmaxRowAvx2});
  r.layernorm_row.variants.push_back({SL::kAvx2, "avx2", &LayerNormRowAvx2});
  r.gelu_backward.variants.push_back({SL::kAvx2, "avx2", &GeluBackwardAvx2});
  r.layernorm_backward_row.variants.push_back(
      {SL::kAvx2, "avx2", &LayerNormBackwardRowAvx2});
  r.tied_softmax_forward.variants.push_back(
      {SL::kAvx2, "avx2", &TiedSoftmaxForwardT<Avx2Gemms>});
  r.tied_softmax_backward.variants.push_back(
      {SL::kAvx2, "avx2", &TiedSoftmaxBackwardT<Avx2Gemms>});
  r.attention.variants.push_back({SL::kAvx2, "avx2", &FusedAttentionAvx2});
  r.masked_attention.variants.push_back(
      {SL::kAvx2, "avx2", &MaskedAttentionAvx2});
#endif
  const SimdLevel cap = ActiveSimdLevel();
  r.ForEach([cap](auto& entry) { entry.Resolve(cap); });
  return r;
}

Registry& Reg() {
  static Registry r = BuildRegistry();
  return r;
}

std::vector<detail::VariantProvider>& Providers() {
  static std::vector<detail::VariantProvider> providers;
  return providers;
}

[[maybe_unused]] const bool kF32VariantsRegistered = [] {
  detail::RegisterVariantProvider([](std::vector<OpVariants>* out) {
    Reg().ForEach([out](auto& entry) { entry.Describe(out); });
  });
  return true;
}();

}  // namespace

SimdLevel ActiveSimdLevel() {
  static const SimdLevel level = DetectSimdLevel();
  return level;
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kNaive:
      return "naive";
    case SimdLevel::kScalar:
    default:
      return "scalar";
  }
}

bool Avx2CompiledIn() { return TABREP_KERNELS_X86 != 0; }

namespace detail {

void RegisterVariantProvider(VariantProvider provider) {
  for (VariantProvider p : Providers()) {
    if (p == provider) return;
  }
  Providers().push_back(provider);
}

}  // namespace detail

std::vector<OpVariants> ActiveVariantTable() {
  std::vector<OpVariants> out;
  for (detail::VariantProvider p : Providers()) p(&out);
  std::sort(out.begin(), out.end(),
            [](const OpVariants& a, const OpVariants& b) { return a.op < b.op; });
  return out;
}

std::string VariantTableJson() {
  std::string out = "{";
  bool first = true;
  for (const OpVariants& entry : ActiveVariantTable()) {
    if (!first) out += ",";
    first = false;
    out += "\"" + entry.op + "\":{\"active\":\"" + entry.active +
           "\",\"available\":[";
    for (size_t i = 0; i < entry.available.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"" + entry.available[i] + "\"";
    }
    out += "]}";
  }
  out += "}";
  return out;
}

int64_t GrainForFlopsPerRow(int64_t flops_per_row) {
  return std::max<int64_t>(1, kChunkFlops / std::max<int64_t>(flops_per_row, 1));
}

void Fill(float* p, int64_t n, float value) {
  std::fill_n(p, static_cast<size_t>(n), value);
}

void Scale(float* p, int64_t n, float s) { Reg().scale.fn(p, n, s); }

void Axpy(float* y, const float* x, float scale, int64_t n) {
  Reg().axpy.fn(y, x, scale, n);
}

void Add(float* out, const float* a, const float* b, int64_t n) {
  Reg().add.fn(out, a, b, n);
}

void Mul(float* out, const float* a, const float* b, int64_t n) {
  Reg().mul.fn(out, a, b, n);
}

void Tanh(float* out, const float* a, int64_t n) {
  // ~20 flops per element once the polynomial exp is inlined.
  const auto fn = Reg().tanh_range.fn;
  const int64_t grain = GrainForFlopsPerRow(20);
  runtime::ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
    fn(out, a, lo, hi);
  });
}

void Gelu(float* out, const float* a, int64_t n) {
  const auto fn = Reg().gelu_range.fn;
  const int64_t grain = GrainForFlopsPerRow(30);
  runtime::ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
    fn(out, a, lo, hi);
  });
}

float Dot(const float* a, const float* b, int64_t n) {
  return Reg().dot.fn(a, b, n);
}

void MatMul(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n) {
  if (m <= 0 || n <= 0) return;
  Reg().matmul.fn(a, b, c, m, k, n);
}

void MatMulTransposedB(const float* a, const float* b, float* c, int64_t m,
                       int64_t k, int64_t n) {
  if (m <= 0 || n <= 0) return;
  Reg().matmul_tb.fn(a, b, c, m, k, n);
}

void MatMulTransposedA(const float* a, const float* b, float* c, int64_t m,
                       int64_t k, int64_t n) {
  if (k <= 0 || n <= 0) return;
  Reg().matmul_ta.fn(a, b, c, m, k, n);
}

void Transpose(const float* a, float* out, int64_t m, int64_t n) {
  Reg().transpose.fn(a, out, m, n);
}

void SoftmaxRows(float* p, int64_t rows, int64_t n) {
  if (rows <= 0 || n <= 0) return;
  const auto fn = Reg().softmax_row.fn;
  runtime::ParallelFor(0, rows, GrainForFlopsPerRow(4 * n),
                       [&](int64_t lo, int64_t hi) {
                         for (int64_t r = lo; r < hi; ++r) fn(p + r * n, n);
                       });
}

void LogSoftmaxRows(float* p, int64_t rows, int64_t n) {
  if (rows <= 0 || n <= 0) return;
  const auto fn = Reg().log_softmax_row.fn;
  runtime::ParallelFor(0, rows, GrainForFlopsPerRow(4 * n),
                       [&](int64_t lo, int64_t hi) {
                         for (int64_t r = lo; r < hi; ++r) fn(p + r * n, n);
                       });
}

void LayerNormRows(float* p, const float* gamma, const float* beta,
                   int64_t rows, int64_t n, float eps) {
  if (rows <= 0 || n <= 0) return;
  const auto fn = Reg().layernorm_row.fn;
  runtime::ParallelFor(0, rows, GrainForFlopsPerRow(6 * n),
                       [&](int64_t lo, int64_t hi) {
                         for (int64_t r = lo; r < hi; ++r) {
                           fn(p + r * n, gamma, beta, n, eps);
                         }
                       });
}

void GeluBackward(float* dx, const float* g, const float* x, int64_t n) {
  Reg().gelu_backward.fn(dx, g, x, n);
}

void LayerNormBackwardRows(const float* x, const float* g,
                           const float* gamma, int64_t rows, int64_t n,
                           float eps, float* dx, float* dgamma,
                           float* dbeta) {
  const auto fn = Reg().layernorm_backward_row.fn;
  for (int64_t r = 0; r < rows; ++r) {
    fn(x + r * n, g + r * n, gamma, n, eps, dx + r * n, dgamma, dbeta);
  }
}

void TiedSoftmaxForward(const float* h, const float* w, const float* b,
                        const int32_t* targets, int64_t r, int64_t d,
                        int64_t v, float* lse, float* target_logit,
                        int32_t* argmax) {
  Reg().tied_softmax_forward.fn(h, w, b, targets, r, d, v, lse, target_logit,
                                argmax);
}

void TiedSoftmaxBackward(const float* h, const float* w, const float* b,
                         const int32_t* targets, const float* lse,
                         float scale, int64_t r, int64_t d, int64_t v,
                         float* dh, float* dw, float* db) {
  Reg().tied_softmax_backward.fn(h, w, b, targets, lse, scale, r, d, v, dh,
                                 dw, db);
}

void FusedAttention(const float* q, const float* k, const float* v,
                    const float* bias, float scale, int64_t tq, int64_t tk,
                    int64_t dk, int64_t dv, float* out, float* probs_out) {
  if (tq <= 0 || tk <= 0) return;
  Reg().attention.fn(q, k, v, bias, scale, tq, tk, dk, dv, out, probs_out);
}

void MaskedAttention(const float* q, const float* k, const float* v,
                     const MaskView& mask, float scale, int64_t t, int64_t dk,
                     int64_t dv, float* out, float* probs_out) {
  if (t <= 0) return;
  if (mask.rule == MaskRule::kNone) {
    FusedAttention(q, k, v, nullptr, scale, t, t, dk, dv, out, probs_out);
    return;
  }
  Reg().masked_attention.fn(q, k, v, mask, scale, t, dk, dv, out, probs_out);
}

// ======================================================================
// Naive references.
// ======================================================================

namespace naive {

void MatMul(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    std::fill_n(crow, static_cast<size_t>(n), 0.0f);
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = a[i * k + kk];
      const float* brow = b + kk * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void MatMulTransposedB(const float* a, const float* b, float* c, int64_t m,
                       int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    MatMulTBRowScalar(a + i * k, b, c + i * n, k, n);
  }
}

void MatMulTransposedA(const float* a, const float* b, float* c, int64_t m,
                       int64_t k, int64_t n) {
  for (int64_t i = 0; i < k; ++i) {
    float* crow = c + i * n;
    std::fill_n(crow, static_cast<size_t>(n), 0.0f);
    for (int64_t kk = 0; kk < m; ++kk) {
      const float av = a[kk * k + i];
      const float* brow = b + kk * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void Transpose(const float* a, float* out, int64_t m, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) out[j * m + i] = a[i * n + j];
  }
}

void SoftmaxRows(float* p, int64_t rows, int64_t n) {
  for (int64_t r = 0; r < rows; ++r) SoftmaxRowScalar(p + r * n, n);
}

void LogSoftmaxRows(float* p, int64_t rows, int64_t n) {
  for (int64_t r = 0; r < rows; ++r) LogSoftmaxRowScalar(p + r * n, n);
}

void LayerNormRows(float* p, const float* gamma, const float* beta,
                   int64_t rows, int64_t n, float eps) {
  for (int64_t r = 0; r < rows; ++r) {
    LayerNormRowScalar(p + r * n, gamma, beta, n, eps);
  }
}

void Tanh(float* out, const float* a, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = std::tanh(a[i]);
}

void Gelu(float* out, const float* a, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = GeluScalar(a[i]);
}

namespace {

template <typename BiasRows>
void AttentionRows(const float* q, const float* k, const float* v,
                   BiasRows bias_rows, float scale, int64_t tq, int64_t tk,
                   int64_t dk, int64_t dv, float* out, float* probs_out) {
  mem::ScratchScope scratch;
  float* scores = mem::ArenaFloats(static_cast<size_t>(tk));
  for (int64_t i = 0; i < tq; ++i) {
    float* s = probs_out != nullptr ? probs_out + i * tk : scores;
    MatMulTBRowScalar(q + i * dk, k, s, dk, tk);
    const float* brow = bias_rows(i);
    for (int64_t j = 0; j < tk; ++j) {
      s[j] = s[j] * scale + (brow != nullptr ? brow[j] : 0.0f);
    }
    SoftmaxRowScalar(s, tk);
    float* orow = out + i * dv;
    std::fill_n(orow, static_cast<size_t>(dv), 0.0f);
    for (int64_t j = 0; j < tk; ++j) AxpyScalar(orow, v + j * dv, s[j], dv);
  }
}

}  // namespace

void FusedAttention(const float* q, const float* k, const float* v,
                    const float* bias, float scale, int64_t tq, int64_t tk,
                    int64_t dk, int64_t dv, float* out, float* probs_out) {
  AttentionRows(q, k, v, DenseBiasRows{bias, tk}, scale, tq, tk, dk, dv, out,
                probs_out);
}

void MaskedAttention(const float* q, const float* k, const float* v,
                     const MaskView& mask, float scale, int64_t t, int64_t dk,
                     int64_t dv, float* out, float* probs_out) {
  AttentionRows(q, k, v, MaskBiasRows{&mask, t}, scale, t, t, dk, dv, out,
                probs_out);
}

}  // namespace naive

}  // namespace tabrep::kernels
