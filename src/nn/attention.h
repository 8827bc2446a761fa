#ifndef TABREP_NN_ATTENTION_H_
#define TABREP_NN_ATTENTION_H_

#include <memory>
#include <vector>

#include "nn/layers.h"
#include "nn/module.h"
#include "tensor/kernels.h"

namespace tabrep::nn {

/// Structure-aware visibility for one sequence: the per-token row and
/// column ids plus one kernels::MaskRule per head. This is the single
/// extension point through which the structure-aware models express
/// themselves:
///   - Vanilla/TAPAS: no mask (dense attention),
///   - TURL: kRowOrColumn shared by every head,
///   - MATE: kSameRow on the first half of the heads (row heads),
///     kSameColumn on the rest (column heads),
///   - TaBERT's vertical attention: kSameGroup over cells, by column.
/// The attention kernels read the ids directly; no [T,T] bias tensor
/// exists unless Materialize() builds one.
struct AttentionMask {
  std::vector<int32_t> row;
  std::vector<int32_t> column;
  /// One rule per head, or a single rule every head shares.
  std::vector<kernels::MaskRule> rules;

  int64_t size() const { return static_cast<int64_t>(row.size()); }
  /// The kernel-facing view of `head`'s mask (borrows row/column); no
  /// rules means kNone.
  kernels::MaskView view(int64_t head) const;
  /// `head`'s mask as the additive [T,T] bias it replaces: 0 where
  /// visible, kernels::kMaskedScore where masked.
  Tensor Materialize(int64_t head = 0) const;
  /// Fraction of visible (query, key) pairs under `head`; 1.0 = dense.
  double VisibleFraction(int64_t head = 0) const;
};

/// Multi-head scaled dot-product self-attention over one sequence
/// [T, dim]. Heads use separate Q/K/V projections to dim/num_heads and
/// per-head output projections summed into the residual stream
/// (equivalent to the fused W_O formulation).
class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(int64_t dim, int64_t num_heads, float dropout,
                         Rng& rng);

  /// Runs attention. `mask` may be null for dense attention; its rule
  /// count must be 1 or num_heads. When `attn_probs_out` is non-null it
  /// receives the post-softmax attention matrix averaged over heads
  /// (for visualization).
  ag::Variable Forward(const ag::Variable& x, const AttentionMask* mask,
                       Rng& rng, Tensor* attn_probs_out = nullptr);

  /// Graph-free forward on plain tensors. At kFloat32 it mirrors
  /// Forward's dropout-off path op for op (same per-head ParallelFor,
  /// same head-order reduction, same capture hook), so outputs are
  /// bitwise identical to the graph path at any thread count. At kInt8
  /// the Q/K/V/output projections run quantized (when calibrated);
  /// score and context matmuls stay f32. Must not be called with
  /// dropout active (checked).
  Tensor ForwardInference(
      const Tensor& x, const AttentionMask* mask,
      Tensor* attn_probs_out = nullptr,
      kernels::Precision precision = kernels::Precision::kFloat32);

  int64_t num_heads() const { return num_heads_; }

 private:
  int64_t dim_;
  int64_t num_heads_;
  int64_t head_dim_;
  float dropout_;
  std::vector<std::unique_ptr<Linear>> q_;
  std::vector<std::unique_ptr<Linear>> k_;
  std::vector<std::unique_ptr<Linear>> v_;
  std::vector<std::unique_ptr<Linear>> out_;
  ag::Variable* out_bias_;
};

}  // namespace tabrep::nn

#endif  // TABREP_NN_ATTENTION_H_
