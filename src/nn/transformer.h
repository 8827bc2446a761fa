#ifndef TABREP_NN_TRANSFORMER_H_
#define TABREP_NN_TRANSFORMER_H_

#include <memory>
#include <vector>

#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/module.h"

namespace tabrep::nn {

/// Hyperparameters shared by the encoder stack.
struct TransformerConfig {
  int64_t dim = 64;
  int64_t num_layers = 2;
  int64_t num_heads = 4;
  int64_t ffn_dim = 256;  // typically 4 * dim
  float dropout = 0.1f;
};

/// Post-LN (BERT-style) encoder layer:
///   h = LN(x + Dropout(Attn(x))); out = LN(h + Dropout(FFN(h))).
class TransformerEncoderLayer : public Module {
 public:
  TransformerEncoderLayer(const TransformerConfig& config, Rng& rng);

  ag::Variable Forward(const ag::Variable& x, const AttentionMask* mask,
                       Rng& rng, Tensor* attn_probs_out = nullptr);

  /// Graph-free forward; requires eval mode (dropout would need rng).
  /// `precision` routes to the attention projections and the FFN
  /// Linears; LayerNorms and residual adds stay f32.
  Tensor ForwardInference(
      const Tensor& x, const AttentionMask* mask,
      Tensor* attn_probs_out = nullptr,
      kernels::Precision precision = kernels::Precision::kFloat32);

 private:
  float dropout_;
  MultiHeadSelfAttention attention_;
  LayerNorm ln1_;
  FeedForward ffn_;
  LayerNorm ln2_;
};

/// A stack of encoder layers sharing one AttentionMask.
class TransformerEncoder : public Module {
 public:
  TransformerEncoder(const TransformerConfig& config, Rng& rng);

  /// Runs the stack. When `attn_probs_out` is non-null it receives one
  /// averaged attention matrix per layer.
  ag::Variable Forward(const ag::Variable& x, const AttentionMask* mask,
                       Rng& rng,
                       std::vector<Tensor>* attn_probs_out = nullptr);

  /// Graph-free forward over the stack (eval mode only).
  Tensor ForwardInference(
      const Tensor& x, const AttentionMask* mask,
      std::vector<Tensor>* attn_probs_out = nullptr,
      kernels::Precision precision = kernels::Precision::kFloat32);

  const TransformerConfig& config() const { return config_; }

 private:
  TransformerConfig config_;
  std::vector<std::unique_ptr<TransformerEncoderLayer>> layers_;
};

}  // namespace tabrep::nn

#endif  // TABREP_NN_TRANSFORMER_H_
