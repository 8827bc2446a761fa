#ifndef TABREP_TENSOR_OPS_H_
#define TABREP_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/kernels.h"
#include "tensor/tensor.h"

namespace tabrep::ops {

// Forward-only kernels on plain Tensors. The autograd layer
// (tensor/autograd.h) wraps these and adds backward rules; inference
// paths may call them directly.

// -- Elementwise --------------------------------------------------------

/// c = a + b (same shape).
Tensor Add(const Tensor& a, const Tensor& b);
/// c = a - b (same shape).
Tensor Sub(const Tensor& a, const Tensor& b);
/// c = a * b elementwise (same shape).
Tensor Mul(const Tensor& a, const Tensor& b);
/// c = a + s.
Tensor AddScalar(const Tensor& a, float s);
/// c = a * s.
Tensor MulScalar(const Tensor& a, float s);
/// Adds row vector b[n] to every row of a[..., n].
Tensor AddRowBroadcast(const Tensor& a, const Tensor& b);
/// tanh elementwise.
Tensor Tanh(const Tensor& a);
/// ReLU elementwise.
Tensor Relu(const Tensor& a);
/// GELU (tanh approximation) elementwise.
Tensor Gelu(const Tensor& a);
/// Natural exp elementwise.
Tensor Exp(const Tensor& a);
/// Sigmoid elementwise.
Tensor Sigmoid(const Tensor& a);

// -- Linear algebra ------------------------------------------------------

/// C[m,n] = A[m,k] * B[k,n].
Tensor MatMul(const Tensor& a, const Tensor& b);
/// C[m,n] = A[m,k] * B[n,k]^T — matmul with transposed rhs (the common
/// attention pattern Q K^T), avoiding a materialized transpose.
Tensor MatMulTransposedB(const Tensor& a, const Tensor& b);
/// C[k,n] = A[m,k]^T * B[m,n] without a materialized transpose (the
/// backward passes' weight-gradient pattern).
Tensor MatMulTransposedA(const Tensor& a, const Tensor& b);
/// Transpose of a 2-D tensor.
Tensor Transpose(const Tensor& a);

/// Fused scaled-dot-product attention:
///   out[tq,dv] = softmax(scale * Q[tq,dk] * K[tk,dk]^T + bias) * V[tk,dv]
/// in one pass per query row, never materializing the full score
/// matrix unless the caller asks for it. `bias` (shape [tq,tk]) may be
/// null; `probs_out`, if non-null, is overwritten with the
/// post-softmax probabilities [tq,tk]. Capturing probabilities does
/// not change the arithmetic, so outputs are bitwise identical either
/// way.
Tensor ScaledDotAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                          const Tensor* bias, float scale,
                          Tensor* probs_out = nullptr);

/// Self-attention (tq == tk) under a structure mask instead of a bias
/// tensor (kernels::MaskedAttention): masked probabilities in
/// `probs_out` are exactly 0, and a kNone mask is the dense path above
/// with no bias, bit for bit.
Tensor ScaledDotAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                          const kernels::MaskView& mask, float scale,
                          Tensor* probs_out = nullptr);

// -- Reductions / normalization -----------------------------------------

/// Softmax along the last axis.
Tensor Softmax(const Tensor& a);
/// log(Softmax(a)) along the last axis, computed stably.
Tensor LogSoftmax(const Tensor& a);
/// Mean over all elements as a 1-element tensor.
Tensor MeanAll(const Tensor& a);
/// Sum over all elements as a 1-element tensor.
Tensor SumAll(const Tensor& a);
/// Sum over rows of a 2-D tensor -> [cols].
Tensor SumRows(const Tensor& a);
/// Mean over rows of a 2-D tensor -> [cols].
Tensor MeanRows(const Tensor& a);
/// LayerNorm over the last axis with per-feature gain/bias.
/// a[..., n], gamma[n], beta[n].
Tensor LayerNorm(const Tensor& a, const Tensor& gamma, const Tensor& beta,
                 float eps = 1e-5f);

// -- Indexing ------------------------------------------------------------

/// Gathers rows: out[i, :] = table[ids[i], :]. table is [V, D].
Tensor EmbeddingLookup(const Tensor& table, const std::vector<int32_t>& ids);
/// Same gather over a raw id span (lets callers stage ids in arena
/// scratch instead of a heap vector).
Tensor EmbeddingLookup(const Tensor& table, const int32_t* ids, int64_t n);
/// Rows [begin, end) of a 2-D tensor, copied.
Tensor SliceRows(const Tensor& a, int64_t begin, int64_t end);
/// Vertical concatenation of 2-D tensors with equal column counts.
Tensor ConcatRows(const std::vector<Tensor>& parts);
/// Horizontal concatenation of 2-D tensors with equal row counts.
Tensor ConcatCols(const std::vector<Tensor>& parts);

// -- Losses ---------------------------------------------------------------

/// Mean cross-entropy of logits[n, C] against integer targets[n].
/// Positions where targets[i] == ignore_index contribute nothing.
/// Returns a 1-element tensor. `correct_out`, if non-null, receives the
/// number of argmax hits over the non-ignored positions, and
/// `counted_out` the number of non-ignored positions.
Tensor CrossEntropy(const Tensor& logits, const std::vector<int32_t>& targets,
                    int32_t ignore_index = -100, int64_t* correct_out = nullptr,
                    int64_t* counted_out = nullptr);

/// Index of the max element in each row of a 2-D tensor.
std::vector<int32_t> ArgmaxRows(const Tensor& a);

/// Dot product of two equally-sized tensors.
float Dot(const Tensor& a, const Tensor& b);

/// Cosine similarity of two equally-sized tensors (0 when either is 0).
float CosineSimilarity(const Tensor& a, const Tensor& b);

/// L2 norm of all elements.
float Norm(const Tensor& a);

}  // namespace tabrep::ops

#endif  // TABREP_TENSOR_OPS_H_
