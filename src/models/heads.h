#ifndef TABREP_MODELS_HEADS_H_
#define TABREP_MODELS_HEADS_H_

#include <memory>

#include "models/table_encoder.h"
#include "nn/layers.h"

namespace tabrep::models {

/// A pretraining head's loss over the rows that carry a target.
struct HeadLoss {
  ag::Variable loss;    // mean cross-entropy; 0 when nothing is counted
  int64_t correct = 0;  // argmax hits among the counted rows
  int64_t counted = 0;  // rows whose target is not ignored
};

/// Masked-language-modeling head: transform + GELU + LayerNorm, then a
/// weight-tied projection onto the token embedding table.
class MlmHead : public nn::Module {
 public:
  MlmHead(TableEncoderModel* model, Rng& rng);

  /// The head transform, row by row: [rows, dim] -> [rows, dim].
  ag::Variable Transform(const ag::Variable& hidden);

  /// Masked-row MLM loss over hidden [T, dim] and T targets: gathers
  /// the rows whose target is not `ignore_index`, transforms only
  /// those, and scores them against the tied token embeddings
  /// (ag::TiedSoftmaxLoss; the [rows, vocab] logits never exist).
  HeadLoss Loss(const ag::Variable& hidden,
                const std::vector<int32_t>& targets,
                int32_t ignore_index = -100);

  const ag::Variable& output_bias() const { return *output_bias_; }

 private:
  TableEncoderModel* model_;  // not owned; provides the tied weights
  nn::Linear transform_;
  nn::LayerNorm ln_;
  ag::Variable* output_bias_;
};

/// Masked-entity-recovery head (TURL): transform + GELU, then a
/// weight-tied projection onto the entity embedding table.
class EntityRecoveryHead : public nn::Module {
 public:
  EntityRecoveryHead(TableEncoderModel* model, Rng& rng);

  /// The head transform, row by row: [cells, dim] -> [cells, dim].
  ag::Variable Transform(const ag::Variable& cell_reps);

  /// Masked-row MER loss over cell_reps [cells, dim], like
  /// MlmHead::Loss against the entity embeddings.
  HeadLoss Loss(const ag::Variable& cell_reps,
                const std::vector<int32_t>& targets,
                int32_t ignore_index = -100);

  const ag::Variable& output_bias() const { return *output_bias_; }

 private:
  TableEncoderModel* model_;  // not owned
  nn::Linear transform_;
  ag::Variable* output_bias_;
};

/// Sequence classification head over the [CLS] representation
/// (fact verification, NLI, ...).
class ClsHead : public nn::Module {
 public:
  ClsHead(int64_t dim, int64_t num_classes, Rng& rng);

  /// logits [1, num_classes] from the [1, dim] CLS row.
  ag::Variable Forward(const ag::Variable& cls);

 private:
  nn::Linear pre_;
  nn::Linear out_;
};

/// Cell-selection head (TAPAS-style QA): scores every cell; answer =
/// argmax. Produces logits [1, num_cells].
class CellSelectionHead : public nn::Module {
 public:
  CellSelectionHead(int64_t dim, Rng& rng);

  ag::Variable Forward(const ag::Variable& cell_reps);

 private:
  nn::Linear score_;
};

/// Projection head producing whole-table embeddings for retrieval;
/// output is [1, out_dim].
class ProjectionHead : public nn::Module {
 public:
  ProjectionHead(int64_t dim, int64_t out_dim, Rng& rng);

  ag::Variable Forward(const ag::Variable& pooled);

 private:
  nn::Linear proj_;
};

}  // namespace tabrep::models

#endif  // TABREP_MODELS_HEADS_H_
