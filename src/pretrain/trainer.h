#ifndef TABREP_PRETRAIN_TRAINER_H_
#define TABREP_PRETRAIN_TRAINER_H_

#include <memory>
#include <vector>

#include "models/heads.h"
#include "models/table_encoder.h"
#include "nn/optimizer.h"
#include "obs/sink.h"
#include "pretrain/masking.h"
#include "serialize/serializer.h"
#include "table/corpus.h"

namespace tabrep {

/// Pretraining hyperparameters (the Fig. 2c exercise).
struct PretrainConfig {
  int64_t steps = 200;
  /// Examples per optimizer step (gradient accumulation).
  int64_t batch_size = 4;
  float peak_lr = 1e-3f;
  int64_t warmup_steps = 20;
  float grad_clip = 1.0f;
  MlmOptions mlm;
  MerOptions mer;
  /// Relative weight of the MER loss when the model supports it.
  float mer_weight = 1.0f;
  /// Run MER (requires a kTurl model with entity embeddings).
  bool use_mer = false;
  uint64_t seed = 7;
  /// With no `sink`, print every N steps through a default
  /// obs::StdoutSink (0 = never). With a sink, its decimation applies.
  int64_t log_every = 0;
  /// Step records ("pretrain" stream) and held-out eval records
  /// ("pretrain.eval") go here. Borrowed; must outlive Train().
  obs::MetricsSink* sink = nullptr;
  /// Evaluate the held-out corpus passed to Train() every N steps and
  /// emit the result through the sink (0 = never).
  int64_t eval_every = 0;
  /// Tables per in-training held-out evaluation.
  int64_t eval_max_tables = 32;
};

/// One point of the training curve.
struct PretrainLogEntry {
  int64_t step = 0;
  float mlm_loss = 0.0f;
  float mlm_accuracy = 0.0f;
  float mer_loss = 0.0f;
  float mer_accuracy = 0.0f;
  float lr = 0.0f;
};

/// Held-out evaluation metrics.
struct PretrainEval {
  float mlm_loss = 0.0f;
  float mlm_accuracy = 0.0f;
  float mlm_perplexity = 0.0f;
  float mer_loss = 0.0f;
  float mer_accuracy = 0.0f;
};

/// The one rendering of a training-curve point that every caller
/// (trainer sink emission, benches, examples) shares, so curves
/// printed anywhere are identical. `include_mer` adds the MER fields.
obs::StepRecord PretrainStepRecord(const PretrainLogEntry& entry,
                                   bool include_mer);

/// Same for held-out eval rows (stream "pretrain.eval").
obs::StepRecord PretrainEvalRecord(int64_t step, const PretrainEval& eval,
                                   bool include_mer);

/// Drives self-supervised pretraining of a TableEncoderModel over a
/// table corpus: serialize -> mask -> predict, with MLM always on and
/// MER optionally (TURL's two objectives, §3.3).
class PretrainTrainer {
 public:
  /// `model`, `serializer` are borrowed and must outlive the trainer.
  PretrainTrainer(TableEncoderModel* model, const TableSerializer* serializer,
                  PretrainConfig config);

  /// Runs `config.steps` optimizer steps over `corpus`; returns the
  /// loss/accuracy curve (one entry per step). Each step is emitted
  /// through `config.sink` (stream "pretrain"); when `heldout` is
  /// given and `config.eval_every > 0`, held-out eval rows (stream
  /// "pretrain.eval") are interleaved. The held-out evaluation uses a
  /// fixed seed and never touches the training rng, so passing it
  /// changes no training numerics.
  std::vector<PretrainLogEntry> Train(const TableCorpus& corpus,
                                      const TableCorpus* heldout = nullptr);

  /// Evaluates masked prediction on a held-out corpus (no updates).
  PretrainEval Evaluate(const TableCorpus& corpus, int64_t max_tables = 64);

  const PretrainConfig& config() const { return config_; }

  /// {loss, correct, counted} of one example's MLM and (optionally) MER.
  struct StepStats {
    double mlm_loss = 0.0;
    int64_t mlm_correct = 0;
    int64_t mlm_counted = 0;
    double mer_loss = 0.0;
    int64_t mer_correct = 0;
    int64_t mer_counted = 0;
  };

  /// One example exactly as Train() and Evaluate() run it: masking,
  /// encode and the head losses, plus backward into the parameters'
  /// gradients (or the calling thread's ag::ScopedGradRedirect) when
  /// `train`. Draws the masks from `rng`. Benches time it directly.
  StepStats RunExample(const TokenizedTable& serialized, bool train, Rng& rng);

 private:
  TableEncoderModel* model_;
  const TableSerializer* serializer_;
  PretrainConfig config_;
  Rng rng_;  // must precede the heads, which draw init values from it
  models::MlmHead mlm_head_;
  std::unique_ptr<models::EntityRecoveryHead> mer_head_;
  std::unique_ptr<nn::Adam> optimizer_;
};

}  // namespace tabrep

#endif  // TABREP_PRETRAIN_TRAINER_H_
