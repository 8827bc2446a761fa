#include "models/heads.h"

namespace tabrep::models {

namespace {

/// Gathers the rows of x whose target is not ignored, runs `transform`
/// on them only, and applies the tied-softmax loss.
template <typename Transform>
HeadLoss TiedHeadLoss(const ag::Variable& x,
                      const std::vector<int32_t>& targets,
                      int32_t ignore_index, const ag::Variable& weight,
                      const ag::Variable& bias, Transform&& transform) {
  TABREP_CHECK(x.value().dim() == 2 &&
               static_cast<int64_t>(targets.size()) == x.value().rows())
      << "head loss: " << targets.size() << " targets for "
      << ShapeToString(x.shape());
  std::vector<int32_t> rows, kept;
  for (size_t i = 0; i < targets.size(); ++i) {
    if (targets[i] == ignore_index) continue;
    rows.push_back(static_cast<int32_t>(i));
    kept.push_back(targets[i]);
  }
  HeadLoss out;
  if (rows.empty()) {
    out.loss = ag::Variable::Constant(Tensor::Zeros({1}));
    return out;
  }
  // A differentiable row gather: EmbeddingLookup reads x as its table.
  ag::Variable h = rows.size() == targets.size()
                       ? x
                       : ag::EmbeddingLookup(x, std::move(rows));
  out.counted = static_cast<int64_t>(kept.size());
  out.loss = ag::TiedSoftmaxLoss(transform(h), weight, bias, std::move(kept),
                                 &out.correct);
  return out;
}

}  // namespace

MlmHead::MlmHead(TableEncoderModel* model, Rng& rng)
    : model_(model),
      transform_(model->dim(), model->dim(), rng),
      ln_(model->dim()) {
  RegisterChild("transform", &transform_);
  RegisterChild("ln", &ln_);
  output_bias_ = RegisterParam(
      "output_bias", Tensor::Zeros({model->config().vocab_size}));
}

ag::Variable MlmHead::Transform(const ag::Variable& hidden) {
  return ln_.Forward(ag::Gelu(transform_.Forward(hidden)));
}

HeadLoss MlmHead::Loss(const ag::Variable& hidden,
                       const std::vector<int32_t>& targets,
                       int32_t ignore_index) {
  return TiedHeadLoss(hidden, targets, ignore_index,
                      model_->token_embedding_weight(), *output_bias_,
                      [this](const ag::Variable& h) { return Transform(h); });
}

EntityRecoveryHead::EntityRecoveryHead(TableEncoderModel* model, Rng& rng)
    : model_(model), transform_(model->dim(), model->dim(), rng) {
  RegisterChild("transform", &transform_);
  output_bias_ = RegisterParam(
      "output_bias", Tensor::Zeros({model->config().entity_vocab_size}));
}

ag::Variable EntityRecoveryHead::Transform(const ag::Variable& cell_reps) {
  return ag::Gelu(transform_.Forward(cell_reps));
}

HeadLoss EntityRecoveryHead::Loss(const ag::Variable& cell_reps,
                                  const std::vector<int32_t>& targets,
                                  int32_t ignore_index) {
  return TiedHeadLoss(cell_reps, targets, ignore_index,
                      model_->entity_embedding_weight(), *output_bias_,
                      [this](const ag::Variable& h) { return Transform(h); });
}

ClsHead::ClsHead(int64_t dim, int64_t num_classes, Rng& rng)
    : pre_(dim, dim, rng), out_(dim, num_classes, rng) {
  RegisterChild("pre", &pre_);
  RegisterChild("out", &out_);
}

ag::Variable ClsHead::Forward(const ag::Variable& cls) {
  return out_.Forward(ag::Tanh(pre_.Forward(cls)));
}

CellSelectionHead::CellSelectionHead(int64_t dim, Rng& rng)
    : score_(dim, 1, rng) {
  RegisterChild("score", &score_);
}

ag::Variable CellSelectionHead::Forward(const ag::Variable& cell_reps) {
  ag::Variable scores = score_.Forward(cell_reps);  // [num_cells, 1]
  return ag::Transpose(scores);                     // [1, num_cells]
}

ProjectionHead::ProjectionHead(int64_t dim, int64_t out_dim, Rng& rng)
    : proj_(dim, out_dim, rng) {
  RegisterChild("proj", &proj_);
}

ag::Variable ProjectionHead::Forward(const ag::Variable& pooled) {
  return proj_.Forward(pooled);
}

}  // namespace tabrep::models
