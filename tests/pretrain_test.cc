#include <gtest/gtest.h>

#include <cmath>

#include "nn/data_parallel.h"
#include "pretrain/masking.h"
#include "pretrain/trainer.h"
#include "serialize/vocab_builder.h"
#include "table/synth.h"

namespace tabrep {
namespace {

class PretrainFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticCorpusOptions opts;
    opts.num_tables = 24;
    opts.max_rows = 6;
    opts.numeric_table_fraction = 0.2;
    corpus_ = new TableCorpus(GenerateSyntheticCorpus(opts));
    WordPieceTrainerOptions topts;
    topts.vocab_size = 1200;
    tokenizer_ = new WordPieceTokenizer(BuildCorpusTokenizer(*corpus_, topts));
    SerializerOptions sopts;
    sopts.max_tokens = 72;
    serializer_ = new TableSerializer(tokenizer_, sopts);
  }
  static void TearDownTestSuite() {
    delete serializer_;
    delete tokenizer_;
    delete corpus_;
    serializer_ = nullptr;
    tokenizer_ = nullptr;
    corpus_ = nullptr;
  }

  static ModelConfig TinyConfig(ModelFamily family) {
    ModelConfig config;
    config.family = family;
    config.vocab_size = tokenizer_->vocab().size();
    config.entity_vocab_size = corpus_->entities.size();
    config.transformer.dim = 32;
    config.transformer.num_layers = 1;
    config.transformer.num_heads = 2;
    config.transformer.ffn_dim = 64;
    config.transformer.dropout = 0.0f;
    config.max_position = 128;
    return config;
  }

  static TableCorpus* corpus_;
  static WordPieceTokenizer* tokenizer_;
  static TableSerializer* serializer_;
};

TableCorpus* PretrainFixture::corpus_ = nullptr;
WordPieceTokenizer* PretrainFixture::tokenizer_ = nullptr;
TableSerializer* PretrainFixture::serializer_ = nullptr;

TEST_F(PretrainFixture, MlmMaskingSelectsOnlyTableTokens) {
  TokenizedTable serialized = serializer_->Serialize(corpus_->tables[0]);
  MlmOptions opts;
  opts.mask_prob = 0.5;
  opts.vocab_size = tokenizer_->vocab().size();
  Rng rng(1);
  MlmExample ex = ApplyMlmMasking(serialized, opts, rng);
  EXPECT_GT(ex.num_masked, 0);
  ASSERT_EQ(ex.targets.size(), serialized.tokens.size());
  for (size_t i = 0; i < ex.targets.size(); ++i) {
    if (ex.targets[i] == kIgnoreTarget) continue;
    // A target implies the original token was a cell or header token.
    const int32_t kind = serialized.tokens[i].kind;
    EXPECT_TRUE(kind == static_cast<int32_t>(TokenKind::kCell) ||
                kind == static_cast<int32_t>(TokenKind::kHeader));
    // Target stores the original id.
    EXPECT_EQ(ex.targets[i], serialized.tokens[i].id);
  }
}

TEST_F(PretrainFixture, MlmWholeCellMasksFullSpans) {
  TokenizedTable serialized = serializer_->Serialize(corpus_->tables[1]);
  MlmOptions opts;
  opts.mask_prob = 0.5;
  opts.whole_cell = true;
  opts.replace_with_mask = 1.0;  // all selected become [MASK]
  opts.replace_with_random = 0.0;
  opts.vocab_size = tokenizer_->vocab().size();
  Rng rng(2);
  MlmExample ex = ApplyMlmMasking(serialized, opts, rng);
  // Every cell is either fully masked or fully intact.
  for (const CellSpan& span : serialized.cells) {
    bool any_masked = false, all_masked = true;
    for (int32_t i = span.begin; i < span.end; ++i) {
      const bool masked =
          ex.input.tokens[static_cast<size_t>(i)].id == SpecialTokens::kMaskId;
      any_masked |= masked;
      all_masked &= masked;
    }
    if (any_masked) {
      EXPECT_TRUE(all_masked);
    }
  }
}

TEST_F(PretrainFixture, MlmAlwaysMasksAtLeastOne) {
  MlmOptions opts;
  opts.mask_prob = 0.0;  // would select nothing without the guarantee
  opts.vocab_size = tokenizer_->vocab().size();
  Rng rng(3);
  TokenizedTable serialized = serializer_->Serialize(corpus_->tables[2]);
  MlmExample ex = ApplyMlmMasking(serialized, opts, rng);
  EXPECT_GE(ex.num_masked, 1);
}

TEST_F(PretrainFixture, MlmTokenLevelMasking) {
  MlmOptions opts;
  opts.mask_prob = 0.3;
  opts.whole_cell = false;
  opts.vocab_size = tokenizer_->vocab().size();
  Rng rng(4);
  TokenizedTable serialized = serializer_->Serialize(corpus_->tables[3]);
  MlmExample ex = ApplyMlmMasking(serialized, opts, rng);
  EXPECT_GT(ex.num_masked, 0);
}

TEST_F(PretrainFixture, MerMaskingTargetsEntities) {
  // Find an entity-rich table.
  const Table* entity_table = nullptr;
  for (const Table& t : corpus_->tables) {
    for (int64_t r = 0; r < t.num_rows() && !entity_table; ++r) {
      for (int64_t c = 0; c < t.num_columns(); ++c) {
        if (t.cell(r, c).is_entity()) {
          entity_table = &t;
          break;
        }
      }
    }
  }
  ASSERT_NE(entity_table, nullptr);
  TokenizedTable serialized = serializer_->Serialize(*entity_table);
  MerOptions opts;
  opts.mask_prob = 0.5;
  Rng rng(5);
  MerExample ex = ApplyMerMasking(serialized, opts, rng);
  EXPECT_GT(ex.num_masked, 0);
  for (size_t c = 0; c < ex.cell_targets.size(); ++c) {
    if (ex.cell_targets[c] == kIgnoreTarget) continue;
    // Original entity id preserved as target; input masked.
    EXPECT_EQ(ex.cell_targets[c], serialized.cells[c].entity_id);
    EXPECT_EQ(ex.input.cells[c].entity_id, EntityVocab::kEntMaskId);
    for (int32_t i = ex.input.cells[c].begin; i < ex.input.cells[c].end; ++i) {
      EXPECT_EQ(ex.input.tokens[static_cast<size_t>(i)].id,
                SpecialTokens::kMaskId);
    }
  }
}

TEST_F(PretrainFixture, MerOnTableWithoutEntitiesMasksNothing) {
  Table t = MakeCensusDemoTable();  // no linked entities
  TokenizedTable serialized = serializer_->Serialize(t);
  MerOptions opts;
  Rng rng(6);
  MerExample ex = ApplyMerMasking(serialized, opts, rng);
  EXPECT_EQ(ex.num_masked, 0);
}

TEST_F(PretrainFixture, MlmLossDecreasesDuringPretraining) {
  ModelConfig config = TinyConfig(ModelFamily::kTapas);
  TableEncoderModel model(config);
  PretrainConfig pconfig;
  pconfig.steps = 80;
  pconfig.batch_size = 2;
  pconfig.peak_lr = 3e-3f;
  pconfig.warmup_steps = 5;
  PretrainTrainer trainer(&model, serializer_, pconfig);
  auto log = trainer.Train(*corpus_);
  ASSERT_EQ(log.size(), 80u);
  // Average of first 5 vs last 5 steps.
  float head = 0, tail = 0;
  for (int i = 0; i < 5; ++i) {
    head += log[static_cast<size_t>(i)].mlm_loss;
    tail += log[log.size() - 1 - static_cast<size_t>(i)].mlm_loss;
  }
  EXPECT_LT(tail, head * 0.9f) << "head avg " << head / 5 << " tail avg "
                               << tail / 5;
}

TEST_F(PretrainFixture, TurlMerTrainsAndEvaluates) {
  ModelConfig config = TinyConfig(ModelFamily::kTurl);
  TableEncoderModel model(config);
  PretrainConfig pconfig;
  pconfig.steps = 30;
  pconfig.batch_size = 2;
  pconfig.use_mer = true;
  pconfig.peak_lr = 2e-3f;
  pconfig.warmup_steps = 5;
  PretrainTrainer trainer(&model, serializer_, pconfig);
  auto log = trainer.Train(*corpus_);
  // MER was exercised at least once.
  bool mer_seen = false;
  for (const auto& e : log) mer_seen |= e.mer_loss > 0.0f;
  EXPECT_TRUE(mer_seen);
  PretrainEval eval = trainer.Evaluate(*corpus_, 8);
  EXPECT_GT(eval.mlm_perplexity, 0.0f);
}

TEST_F(PretrainFixture, EvaluateIsDeterministic) {
  ModelConfig config = TinyConfig(ModelFamily::kVanilla);
  TableEncoderModel model(config);
  PretrainConfig pconfig;
  pconfig.steps = 2;
  PretrainTrainer trainer(&model, serializer_, pconfig);
  trainer.Train(*corpus_);
  PretrainEval a = trainer.Evaluate(*corpus_, 6);
  PretrainEval b = trainer.Evaluate(*corpus_, 6);
  EXPECT_FLOAT_EQ(a.mlm_loss, b.mlm_loss);
  EXPECT_FLOAT_EQ(a.mlm_accuracy, b.mlm_accuracy);
}

TEST_F(PretrainFixture, PretrainingBeatsRandomInitOnHeldoutMlm) {
  // The central Fig. 2c claim in miniature: a pretrained model has
  // lower held-out masked-prediction loss than a random-init one.
  Rng split_rng(9);
  auto [train, test] = corpus_->Split(0.25, split_rng);

  ModelConfig config = TinyConfig(ModelFamily::kTapas);
  TableEncoderModel pretrained(config);
  PretrainConfig pconfig;
  pconfig.steps = 60;
  pconfig.batch_size = 2;
  pconfig.peak_lr = 2e-3f;
  pconfig.warmup_steps = 5;
  PretrainTrainer trainer(&pretrained, serializer_, pconfig);
  trainer.Train(train);
  PretrainEval pre_eval = trainer.Evaluate(test, 16);

  config.seed = 77;
  TableEncoderModel random_model(config);
  PretrainConfig zero = pconfig;
  zero.steps = 0;
  PretrainTrainer untrained(&random_model, serializer_, zero);
  PretrainEval rand_eval = untrained.Evaluate(test, 16);

  EXPECT_LT(pre_eval.mlm_loss, rand_eval.mlm_loss);
}

/// The full-row reference for a tied head: [rows, vocab] logits from
/// the head's transform, then ag::CrossEntropy.
ag::Variable FullRowLoss(const ag::Variable& transformed,
                         const ag::Variable& tied, const ag::Variable& bias,
                         const std::vector<int32_t>& targets, int64_t* correct,
                         int64_t* counted) {
  ag::Variable logits =
      ag::AddRowBroadcast(ag::MatMulTransposedB(transformed, tied), bias);
  return ag::CrossEntropy(logits, targets, kIgnoreTarget, correct, counted);
}

TEST_F(PretrainFixture, TiedSoftmaxHeadsMatchFullRowCrossEntropy) {
  ModelConfig config = TinyConfig(ModelFamily::kTurl);
  TableEncoderModel model(config);
  model.SetTraining(false);
  Rng init(21);
  models::MlmHead mlm_head(&model, init);
  models::EntityRecoveryHead mer_head(&model, init);
  MlmOptions mlm_opts;
  mlm_opts.vocab_size = static_cast<int32_t>(config.vocab_size);
  Rng rng(22);
  int64_t checked_mer = 0;
  for (int64_t i = 0; i < 8; ++i) {
    SCOPED_TRACE(i);
    TokenizedTable serialized = serializer_->Serialize(corpus_->tables[i]);
    MlmExample mlm = ApplyMlmMasking(serialized, mlm_opts, rng);
    models::Encoded enc = model.Encode(mlm.input, rng);
    int64_t correct = 0, counted = 0;
    const models::HeadLoss loss =
        mlm_head.Loss(enc.hidden, mlm.targets, kIgnoreTarget);
    const float ref =
        FullRowLoss(mlm_head.Transform(enc.hidden),
                    model.token_embedding_weight(), mlm_head.output_bias(),
                    mlm.targets, &correct, &counted)
            .value()[0];
    EXPECT_NEAR(loss.loss.value()[0], ref, 1e-5f);
    EXPECT_EQ(loss.correct, correct);
    EXPECT_EQ(loss.counted, counted);

    MerExample mer = ApplyMerMasking(serialized, MerOptions{}, rng);
    models::Encoded cells = model.Encode(mer.input, rng);
    if (mer.num_masked == 0 || !cells.has_cells) continue;
    const models::HeadLoss mer_loss =
        mer_head.Loss(cells.cells, mer.cell_targets, kIgnoreTarget);
    const float mer_ref =
        FullRowLoss(mer_head.Transform(cells.cells),
                    model.entity_embedding_weight(), mer_head.output_bias(),
                    mer.cell_targets, &correct, &counted)
            .value()[0];
    EXPECT_NEAR(mer_loss.loss.value()[0], mer_ref, 1e-5f);
    EXPECT_EQ(mer_loss.correct, correct);
    EXPECT_EQ(mer_loss.counted, counted);
    ++checked_mer;
  }
  EXPECT_GT(checked_mer, 0);
}

TEST_F(PretrainFixture, EvaluatePerplexityMatchesFullRowPath) {
  ModelConfig config = TinyConfig(ModelFamily::kVanilla);
  TableEncoderModel model(config);
  PretrainConfig pconfig;
  pconfig.steps = 0;
  pconfig.seed = 23;
  PretrainTrainer trainer(&model, serializer_, pconfig);
  const int64_t n = 12;
  const PretrainEval eval = trainer.Evaluate(*corpus_, n);

  // Evaluate, replayed on the full-row path: the trainer draws its MLM
  // head from Rng(seed) and each example's rng from ParallelExamples
  // over Rng(seed + 1000).
  model.SetTraining(false);
  Rng init(pconfig.seed);
  models::MlmHead head(&model, init);
  MlmOptions mlm_opts = pconfig.mlm;
  mlm_opts.vocab_size = static_cast<int32_t>(config.vocab_size);
  std::vector<double> losses(static_cast<size_t>(n), -1.0);
  std::vector<int64_t> correct(static_cast<size_t>(n), 0);
  std::vector<int64_t> counted(static_cast<size_t>(n), 0);
  nn::ParallelExamples(n, Rng(pconfig.seed + 1000), [&](int64_t i, Rng& rng) {
    ag::NoGradScope no_grad;
    const size_t s = static_cast<size_t>(i);
    MlmExample ex = ApplyMlmMasking(serializer_->Serialize(corpus_->tables[s]),
                                    mlm_opts, rng);
    if (ex.num_masked == 0) return;
    models::Encoded enc = model.Encode(ex.input, rng, {.need_cells = false});
    losses[s] = FullRowLoss(head.Transform(enc.hidden),
                            model.token_embedding_weight(), head.output_bias(),
                            ex.targets, &correct[s], &counted[s])
                    .value()[0];
  });
  double sum = 0.0;
  int64_t examples = 0, hits = 0, total = 0;
  for (size_t i = 0; i < losses.size(); ++i) {
    if (counted[i] == 0) continue;
    sum += losses[i];
    ++examples;
    hits += correct[i];
    total += counted[i];
  }
  ASSERT_GT(examples, 0);
  const float ref_loss = static_cast<float>(sum / examples);
  EXPECT_NEAR(eval.mlm_loss, ref_loss, 1e-5f);
  EXPECT_NEAR(eval.mlm_perplexity, std::exp(ref_loss),
              1e-5f * std::exp(ref_loss));
  EXPECT_EQ(eval.mlm_accuracy, static_cast<float>(hits) / total);
}

}  // namespace
}  // namespace tabrep
