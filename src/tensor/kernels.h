#ifndef TABREP_TENSOR_KERNELS_H_
#define TABREP_TENSOR_KERNELS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tabrep::kernels {

// The vectorized compute layer under tensor/ops.cc: raw-pointer
// kernels over row-major float buffers (64-byte-aligned when they come
// from a Tensor — see tensor/aligned_buffer.h).
//
// Contracts every kernel in this file upholds:
//
//  * Chunking lives here. Kernels that parallelize call
//    runtime::ParallelFor themselves with a grain derived only from
//    the shapes (flops per row), so blocking and chunking decisions
//    sit side by side and callers never pick grains.
//  * Fixed accumulation order per output element. Blocking, packing
//    and chunk boundaries depend only on the shapes, and every output
//    element is produced by exactly one chunk with a loop structure
//    independent of the chunk bounds — results are bitwise identical
//    at any thread count.
//  * One dispatch decision per process. Each op resolves its variant
//    table once (compiled-in support ∧ cpu detection ∧ TABREP_SIMD
//    override) and never changes it, so a fixed build on a fixed
//    machine always takes the same code path. The AVX2/FMA path and
//    the portable path may differ in low-order bits (FMA contraction,
//    polynomial exp/tanh); the naive references below define the
//    semantics both must match to tight tolerance.

/// Instruction/algorithm tiers a kernel dispatch can resolve to,
/// ordered from reference to fastest. The active level caps which
/// variant each op picks; ops without a variant at or below the cap
/// fall back to their lowest registered variant (e.g. elementwise ops
/// have no separate naive algorithm, so kNaive resolves them to
/// scalar).
enum class SimdLevel { kNaive = 0, kScalar = 1, kAvx2 = 2 };

/// The level capping every kernel dispatch in this process. Resolved
/// once on first use from TABREP_SIMD (case-insensitive):
///   auto, detect            — best of compiled-in support ∧ cpu
///   avx2                    — AVX2/FMA (falls back with a logged
///                             warning when the build or cpu lacks it)
///   scalar, 0, off, false, none — portable scalar
///   naive                   — serial reference algorithms
/// Unknown values log a warning and auto-detect.
SimdLevel ActiveSimdLevel();

/// "naive" / "scalar" / "avx2".
const char* SimdLevelName(SimdLevel level);

/// True when this binary carries the AVX2/FMA code path at all.
bool Avx2CompiledIn();

// -- Dispatch registry ---------------------------------------------------
//
// Every op in the kernel layer resolves through a per-op variant table
// built once at startup: the registered variants (naive / scalar /
// avx2 / int8's scalar+avx2 tiers) filtered by compiled-in support,
// capped by ActiveSimdLevel(). The tables are enumerable so tests can
// pin a variant (via TABREP_SIMD) and assert which one is live, the
// benches can label rows, and the net stats plane can report the
// deployed configuration.

/// One op's resolved dispatch entry.
struct OpVariants {
  std::string op;                      // e.g. "matmul"
  std::string active;                  // variant name actually dispatched
  std::vector<std::string> available;  // all compiled-in variants
};

/// Snapshot of every registered op's variant table, sorted by op name.
/// Forces resolution (same function-local-static path the kernels use),
/// so the result reflects exactly what subsequent calls dispatch to.
std::vector<OpVariants> ActiveVariantTable();

/// ActiveVariantTable as a JSON object:
///   {"matmul":{"active":"avx2","available":["naive","scalar","avx2"]},…}
/// Embedded verbatim in the net server's kStats "server" section.
std::string VariantTableJson();

namespace detail {

/// Cross-TU hook: each kernel translation unit (kernels.cc,
/// kernels_int8.cc) registers one provider that appends its resolved
/// op entries. Providers run on every ActiveVariantTable() call; the
/// underlying tables are still resolved exactly once.
using VariantProvider = void (*)(std::vector<OpVariants>*);
void RegisterVariantProvider(VariantProvider provider);

}  // namespace detail

/// Row-partition grain: chunks sized so each covers roughly 2^15
/// multiply-adds, amortizing pool dispatch on small shapes. Depends
/// only on the per-row flops, keeping chunk boundaries shape-only.
int64_t GrainForFlopsPerRow(int64_t flops_per_row);

// -- Elementwise (n = element count; in-place aliasing out==a is OK) ----

void Fill(float* p, int64_t n, float value);
/// p *= s.
void Scale(float* p, int64_t n, float s);
/// y += scale * x.
void Axpy(float* y, const float* x, float scale, int64_t n);
/// out = a + b.
void Add(float* out, const float* a, const float* b, int64_t n);
/// out = a * b.
void Mul(float* out, const float* a, const float* b, int64_t n);
/// out = tanh(a).
void Tanh(float* out, const float* a, int64_t n);
/// out = gelu(a) (tanh approximation).
void Gelu(float* out, const float* a, int64_t n);
/// Σ a[i]·b[i] with a fixed lane-then-tail reduction order.
float Dot(const float* a, const float* b, int64_t n);

// -- Matmul family ------------------------------------------------------

/// C[m,n] = A[m,k] · B[k,n]. Register-tiled 6x16 FMA microkernel over
/// packed-B panels on the AVX2 path; blocked scalar loop otherwise.
/// Parallel over row blocks.
void MatMul(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n);

/// C[m,n] = A[m,k] · B[n,k]^T (the attention Q·K^T pattern). The AVX2
/// path packs B^T into the same 16-wide panels MatMul packs B into
/// (no transposed copy) and runs the 6x16 microkernel. Parallel over
/// row blocks of A.
void MatMulTransposedB(const float* a, const float* b, float* c, int64_t m,
                       int64_t k, int64_t n);

/// C[k,n] = A[m,k]^T · B[m,n] (the weight-gradient pattern X^T·dY of a
/// backward pass). The AVX2 path packs B and runs the 6x16 microkernel
/// reading A column-wise, so A^T is never materialized. Parallel over
/// row blocks of C.
void MatMulTransposedA(const float* a, const float* b, float* c, int64_t m,
                       int64_t k, int64_t n);

/// out[n,m] = a[m,n]^T via 32x32 cache blocks (both sides of the copy
/// stay within a few cache lines per block). Also used by the matmul
/// packing path.
void Transpose(const float* a, float* out, int64_t m, int64_t n);

// -- Row-parallel normalization (in place, `rows` x `n`) ----------------

void SoftmaxRows(float* p, int64_t rows, int64_t n);
void LogSoftmaxRows(float* p, int64_t rows, int64_t n);
void LayerNormRows(float* p, const float* gamma, const float* beta,
                   int64_t rows, int64_t n, float eps);

// -- Backward helpers ---------------------------------------------------
//
// Serial: backward runs per example inside the trainer's batch-parallel
// region, where a ParallelFor would only run inline.

/// dx = g · gelu'(x) for the tanh-approximation GELU (dx may alias g).
void GeluBackward(float* dx, const float* g, const float* x, int64_t n);

/// LayerNorm backward over `rows` rows of width n: writes dx (all of
/// it) and accumulates dgamma/dbeta row by row in ascending order.
void LayerNormBackwardRows(const float* x, const float* g,
                           const float* gamma, int64_t rows, int64_t n,
                           float eps, float* dx, float* dgamma, float* dbeta);

// -- Blocked tied-softmax cross-entropy ---------------------------------
//
// The output layer of a weight-tied LM head, z = h[r,d] · w[v,d]^T +
// b[v], consumed by a softmax cross-entropy without ever holding the
// [r,v] logits: both passes walk the vocabulary kTiedSoftmaxBlock rows
// of w at a time, with the block's [r, block] logits in per-thread
// scratch (grown, never freed, like the matmul packing scratch). The
// backward pass recomputes each block's logits from the forward's
// log-sum-exp, as FlashAttention-2 recomputes P. Both run serially:
// the trainer calls them once per example inside its batch-parallel
// region, where a nested ParallelFor would run inline anyway.

inline constexpr int64_t kTiedSoftmaxBlock = 192;

/// Both passes need r >= 1 and v >= 1. Per row i of z: lse[i] = log Σ_j exp(z[i,j]) (an online max/sum over
/// the blocks, in ascending order), target_logit[i] = z[i,targets[i]],
/// argmax[i] = the first index of the row maximum.
void TiedSoftmaxForward(const float* h, const float* w, const float* b,
                        const int32_t* targets, int64_t r, int64_t d,
                        int64_t v, float* lse, float* target_logit,
                        int32_t* argmax);

/// With dz = (exp(z - lse) - onehot(targets)) · scale, block by block:
/// dh = dz · w [r,d], dw = dz^T · h [v,d], db = Σ_i dz[i,:] [v]. Each
/// output is overwritten in full; a null output is skipped.
void TiedSoftmaxBackward(const float* h, const float* w, const float* b,
                         const int32_t* targets, const float* lse,
                         float scale, int64_t r, int64_t d, int64_t v,
                         float* dh, float* dw, float* db);

// -- Fused scaled-dot-product attention ---------------------------------

/// out[tq,dv] = softmax(scale · Q[tq,dk] · K[tk,dk]^T + bias) · V[tk,dv]
/// without materializing the score matrix: each Q row computes its
/// score row, softmaxes it in registers/scratch, and accumulates into
/// the output row, all inside one pass over K/V. `bias` (tq x tk) and
/// `probs_out` (tq x tk, receives the post-softmax probabilities) may
/// be null. Parallel over Q rows; whether probs_out is captured does
/// not change the arithmetic, so outputs are bitwise identical either
/// way.
void FusedAttention(const float* q, const float* k, const float* v,
                    const float* bias, float scale, int64_t tq, int64_t tk,
                    int64_t dk, int64_t dv, float* out, float* probs_out);

// -- Structure-masked self-attention ------------------------------------

/// Additive pre-softmax score of a masked pair. Dense bias tensors use
/// it for masked entries, and the masked kernels give masked pairs
/// exactly this score, so both routes round masked probabilities to 0.
inline constexpr float kMaskedScore = -1e9f;

/// Which key positions a query may attend to, decided from per-token
/// row and column ids (serialize::TokenInfo: 0 = none). A token with
/// row == column == 0 is *context* (CLS, title, separators): it sees
/// every token and every token sees it, under every rule but kSameGroup.
enum class MaskRule : uint8_t {
  kNone,         // every pair (vanilla, TAPAS)
  kSameRow,      // MATE row heads: same row (> 0), plus context and self
  kSameColumn,   // MATE column heads: same column (> 0), plus context, self
  kRowOrColumn,  // TURL: same row or same column, plus context and self
  kSameGroup,    // equal column ids, nothing else (TaBERT vertical
                 // attention over cells grouped by column)
};

/// Non-owning view of one head's mask over a self-attention sequence:
/// `row` and `column` hold t ids each (unused for kNone).
struct MaskView {
  MaskRule rule = MaskRule::kNone;
  const int32_t* row = nullptr;
  const int32_t* column = nullptr;
};

/// The rule as a predicate: may query i attend to key j? The single
/// definition every kernel tier, Materialize() and the tests share.
inline bool MaskVisible(const MaskView& m, int64_t i, int64_t j) {
  if (m.rule == MaskRule::kNone) return true;
  const int32_t ri = m.row[i], rj = m.row[j];
  const int32_t ci = m.column[i], cj = m.column[j];
  if (m.rule == MaskRule::kSameGroup) return ci == cj;
  if (i == j || (ri == 0 && ci == 0) || (rj == 0 && cj == 0)) return true;
  const bool same_row = ri > 0 && ri == rj;
  const bool same_col = ci > 0 && ci == cj;
  switch (m.rule) {
    case MaskRule::kSameRow:
      return same_row;
    case MaskRule::kSameColumn:
      return same_col;
    default:
      return same_row || same_col;
  }
}

/// Self-attention softmax(scale · Q Kᵀ + mask) · V over t tokens, with
/// the mask given as structure instead of a [t,t] bias tensor:
///   - kNone runs FusedAttention with no bias (bitwise the dense path).
///   - kRowOrColumn sweeps every key like FusedAttention and adds
///     0 / kMaskedScore computed from the ids: bitwise equal to
///     FusedAttention on the materialized bias.
///   - The partition rules (kSameRow, kSameColumn, kSameGroup) give
///     every query the context keys plus its own group. The avx2 tier
///     orders tokens context-first, then by group, packs K^T and V once
///     in that order, and lets each query block score only the key
///     panels that cover context ∪ its groups. Equal to the dense
///     kernel within the naive reference's tolerance (the softmax sum
///     and the context accumulation visit fewer keys in another order).
///     The scalar tier sweeps every key with computed bias rows, like
///     kRowOrColumn.
/// Masked probabilities in `probs_out` (t x t, may be null) are exactly
/// 0. Outputs are bitwise identical at any thread count and with
/// probs_out on or off.
void MaskedAttention(const float* q, const float* k, const float* v,
                     const MaskView& mask, float scale, int64_t t, int64_t dk,
                     int64_t dv, float* out, float* probs_out);

// -- Naive references ---------------------------------------------------
//
// The retained scalar reference semantics: serial triple loops,
// std::exp/std::tanh, no FMA. kernels_test.cc and the BM_*Naive
// microbenches compare the vectorized kernels against these.

namespace naive {

void MatMul(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n);
void MatMulTransposedB(const float* a, const float* b, float* c, int64_t m,
                       int64_t k, int64_t n);
void MatMulTransposedA(const float* a, const float* b, float* c, int64_t m,
                       int64_t k, int64_t n);
void Transpose(const float* a, float* out, int64_t m, int64_t n);
void SoftmaxRows(float* p, int64_t rows, int64_t n);
void LogSoftmaxRows(float* p, int64_t rows, int64_t n);
void LayerNormRows(float* p, const float* gamma, const float* beta,
                   int64_t rows, int64_t n, float eps);
void Tanh(float* out, const float* a, int64_t n);
void Gelu(float* out, const float* a, int64_t n);
void FusedAttention(const float* q, const float* k, const float* v,
                    const float* bias, float scale, int64_t tq, int64_t tk,
                    int64_t dk, int64_t dv, float* out, float* probs_out);
/// naive::FusedAttention on the mask's bias rows (0 / kMaskedScore),
/// built one row at a time: bitwise equal to the dense reference on
/// the materialized [t,t] bias.
void MaskedAttention(const float* q, const float* k, const float* v,
                     const MaskView& mask, float scale, int64_t t, int64_t dk,
                     int64_t dv, float* out, float* probs_out);

}  // namespace naive

}  // namespace tabrep::kernels

#endif  // TABREP_TENSOR_KERNELS_H_
