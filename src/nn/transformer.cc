#include "nn/transformer.h"

#include "tensor/ops.h"

namespace tabrep::nn {

TransformerEncoderLayer::TransformerEncoderLayer(
    const TransformerConfig& config, Rng& rng)
    : dropout_(config.dropout),
      attention_(config.dim, config.num_heads, config.dropout, rng),
      ln1_(config.dim),
      ffn_(config.dim, config.ffn_dim, rng),
      ln2_(config.dim) {
  RegisterChild("attn", &attention_);
  RegisterChild("ln1", &ln1_);
  RegisterChild("ffn", &ffn_);
  RegisterChild("ln2", &ln2_);
}

ag::Variable TransformerEncoderLayer::Forward(const ag::Variable& x,
                                              const AttentionMask* mask,
                                              Rng& rng,
                                              Tensor* attn_probs_out) {
  ag::Variable attn = attention_.Forward(x, mask, rng, attn_probs_out);
  if (training() && dropout_ > 0.0f) attn = ag::Dropout(attn, dropout_, rng);
  ag::Variable h = ln1_.Forward(ag::Add(x, attn));
  ag::Variable ffn = ffn_.Forward(h);
  if (training() && dropout_ > 0.0f) ffn = ag::Dropout(ffn, dropout_, rng);
  return ln2_.Forward(ag::Add(h, ffn));
}

Tensor TransformerEncoderLayer::ForwardInference(const Tensor& x,
                                                 const AttentionMask* mask,
                                                 Tensor* attn_probs_out,
                                                 kernels::Precision precision) {
  TABREP_CHECK(!(training() && dropout_ > 0.0f))
      << "ForwardInference cannot apply dropout; call SetTraining(false)";
  Tensor attn = attention_.ForwardInference(x, mask, attn_probs_out, precision);
  Tensor h = ln1_.ForwardInference(ops::Add(x, attn));
  Tensor ffn = ffn_.ForwardInference(h, precision);
  return ln2_.ForwardInference(ops::Add(h, ffn));
}

TransformerEncoder::TransformerEncoder(const TransformerConfig& config,
                                       Rng& rng)
    : config_(config) {
  for (int64_t i = 0; i < config.num_layers; ++i) {
    layers_.push_back(std::make_unique<TransformerEncoderLayer>(config, rng));
    RegisterChild("layer" + std::to_string(i), layers_.back().get());
  }
}

ag::Variable TransformerEncoder::Forward(
    const ag::Variable& x, const AttentionMask* mask, Rng& rng,
    std::vector<Tensor>* attn_probs_out) {
  ag::Variable h = x;
  for (auto& layer : layers_) {
    Tensor probs;
    h = layer->Forward(h, mask, rng, attn_probs_out ? &probs : nullptr);
    if (attn_probs_out) attn_probs_out->push_back(std::move(probs));
  }
  return h;
}

Tensor TransformerEncoder::ForwardInference(
    const Tensor& x, const AttentionMask* mask,
    std::vector<Tensor>* attn_probs_out, kernels::Precision precision) {
  Tensor h = x;
  for (auto& layer : layers_) {
    Tensor probs;
    h = layer->ForwardInference(h, mask, attn_probs_out ? &probs : nullptr,
                                precision);
    if (attn_probs_out) attn_probs_out->push_back(std::move(probs));
  }
  return h;
}

}  // namespace tabrep::nn
