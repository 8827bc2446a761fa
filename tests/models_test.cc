#include <gtest/gtest.h>

#include <cmath>

#include "models/heads.h"
#include "models/table_encoder.h"
#include "models/visibility.h"
#include "obs/introspect.h"
#include "serialize/vocab_builder.h"
#include "table/synth.h"
#include "tensor/ops.h"

namespace tabrep {
namespace {

/// Shared tiny-corpus fixture: one tokenizer + serializer for all
/// model tests (building the vocab is the slow part).
class ModelsFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticCorpusOptions opts;
    opts.num_tables = 30;
    corpus_ = new TableCorpus(GenerateSyntheticCorpus(opts));
    WordPieceTrainerOptions topts;
    topts.vocab_size = 1500;
    tokenizer_ = new WordPieceTokenizer(BuildCorpusTokenizer(*corpus_, topts));
    SerializerOptions sopts;
    sopts.max_tokens = 96;
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

TableCorpus* ModelsFixture::corpus_ = nullptr;
WordPieceTokenizer* ModelsFixture::tokenizer_ = nullptr;
TableSerializer* ModelsFixture::serializer_ = nullptr;

TEST_F(ModelsFixture, FamilyNames) {
  EXPECT_EQ(ModelFamilyName(ModelFamily::kVanilla), "vanilla");
  EXPECT_EQ(ModelFamilyName(ModelFamily::kTapas), "tapas");
  EXPECT_EQ(ModelFamilyName(ModelFamily::kTabert), "tabert");
  EXPECT_EQ(ModelFamilyName(ModelFamily::kTurl), "turl");
  EXPECT_EQ(ModelFamilyName(ModelFamily::kMate), "mate");
}

TEST_F(ModelsFixture, VisibilityMatrixStructure) {
  TokenizedTable serialized = serializer_->Serialize(MakeCountryDemoTable());
  Tensor bias = TurlMask(serialized).Materialize();
  const int64_t t = serialized.size();
  ASSERT_EQ(bias.rows(), t);
  // Diagonal always visible.
  for (int64_t i = 0; i < t; ++i) EXPECT_EQ(bias.at(i, i), 0.0f);
  // Context/specials see everything and are seen by everything.
  for (int64_t i = 0; i < t; ++i) {
    const TokenInfo& a = serialized.tokens[static_cast<size_t>(i)];
    if (a.row == 0 && a.column == 0) {
      for (int64_t j = 0; j < t; ++j) {
        EXPECT_EQ(bias.at(i, j), 0.0f);
        EXPECT_EQ(bias.at(j, i), 0.0f);
      }
    }
  }
  // Cells in different rows and columns are mutually masked.
  const CellSpan* a = serialized.FindCell(0, 0);
  const CellSpan* b = serialized.FindCell(1, 1);
  ASSERT_TRUE(a && b);
  EXPECT_LT(bias.at(a->begin, b->begin), 0.0f);
  // Same row visible.
  const CellSpan* c = serialized.FindCell(0, 1);
  ASSERT_TRUE(c);
  EXPECT_EQ(bias.at(a->begin, c->begin), 0.0f);
  // Same column visible.
  const CellSpan* d = serialized.FindCell(1, 0);
  ASSERT_TRUE(d);
  EXPECT_EQ(bias.at(a->begin, d->begin), 0.0f);
}

TEST_F(ModelsFixture, VisibilityIsSymmetric) {
  TokenizedTable serialized = serializer_->Serialize(corpus_->tables[1]);
  const nn::AttentionMask mate = MateMask(serialized, 2);
  for (const Tensor& bias : {TurlMask(serialized).Materialize(),
                             mate.Materialize(0), mate.Materialize(1)}) {
    for (int64_t i = 0; i < bias.rows(); ++i) {
      for (int64_t j = 0; j < bias.cols(); ++j) {
        EXPECT_EQ(bias.at(i, j), bias.at(j, i));
      }
    }
  }
}

TEST_F(ModelsFixture, MateMaskPartitionsHeads) {
  TokenizedTable serialized = serializer_->Serialize(MakeCountryDemoTable());
  const nn::AttentionMask mask = MateMask(serialized, 4);
  ASSERT_EQ(mask.rules.size(), 4u);
  // Head 0 (row head): same-row cell pair visible, same-col masked.
  const CellSpan* a = serialized.FindCell(0, 0);
  const CellSpan* same_row = serialized.FindCell(0, 1);
  const CellSpan* same_col = serialized.FindCell(1, 0);
  ASSERT_TRUE(a && same_row && same_col);
  const Tensor row_head = mask.Materialize(0);
  EXPECT_EQ(row_head.at(a->begin, same_row->begin), 0.0f);
  EXPECT_LT(row_head.at(a->begin, same_col->begin), 0.0f);
  // Head 3 (column head): the reverse.
  const Tensor col_head = mask.Materialize(3);
  EXPECT_LT(col_head.at(a->begin, same_row->begin), 0.0f);
  EXPECT_EQ(col_head.at(a->begin, same_col->begin), 0.0f);
}

// The dense builders the masks replaced, kept verbatim as the reference
// Materialize() must reproduce element for element.
bool InGrid(const TokenInfo& t) { return t.row > 0 || t.column > 0; }
bool SameRow(const TokenInfo& a, const TokenInfo& b) {
  return a.row > 0 && a.row == b.row;
}
bool SameColumn(const TokenInfo& a, const TokenInfo& b) {
  return a.column > 0 && a.column == b.column;
}

Tensor ReferenceTurlBias(const TokenizedTable& input) {
  const int64_t t = input.size();
  Tensor bias({t, t});
  for (int64_t i = 0; i < t; ++i) {
    const TokenInfo& a = input.tokens[static_cast<size_t>(i)];
    for (int64_t j = 0; j < t; ++j) {
      const TokenInfo& b = input.tokens[static_cast<size_t>(j)];
      const bool visible = i == j || !InGrid(a) || !InGrid(b) ||
                           SameRow(a, b) || SameColumn(a, b);
      bias.at(i, j) = visible ? 0.0f : kernels::kMaskedScore;
    }
  }
  return bias;
}

std::vector<Tensor> ReferenceMateBiases(const TokenizedTable& input,
                                        int64_t num_heads) {
  const int64_t t = input.size();
  Tensor row_bias({t, t});
  Tensor col_bias({t, t});
  for (int64_t i = 0; i < t; ++i) {
    const TokenInfo& a = input.tokens[static_cast<size_t>(i)];
    for (int64_t j = 0; j < t; ++j) {
      const TokenInfo& b = input.tokens[static_cast<size_t>(j)];
      const bool base = i == j || !InGrid(a) || !InGrid(b);
      row_bias.at(i, j) =
          base || SameRow(a, b) ? 0.0f : kernels::kMaskedScore;
      col_bias.at(i, j) =
          base || SameColumn(a, b) ? 0.0f : kernels::kMaskedScore;
    }
  }
  std::vector<Tensor> out;
  for (int64_t h = 0; h < num_heads; ++h) {
    out.push_back(h < num_heads / 2 ? row_bias : col_bias);
  }
  return out;
}

Tensor ReferenceVerticalBias(const std::vector<CellSpan>& cells) {
  const int64_t n = static_cast<int64_t>(cells.size());
  Tensor vbias({n, n});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      const bool same_col = cells[static_cast<size_t>(i)].col ==
                            cells[static_cast<size_t>(j)].col;
      vbias.at(i, j) = (i == j || same_col) ? 0.0f : kernels::kMaskedScore;
    }
  }
  return vbias;
}

void ExpectSameMatrix(const Tensor& got, const Tensor& want,
                      const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(got[i], want[i]) << what << " at flat index " << i;
  }
}

TEST_F(ModelsFixture, MaterializeMatchesDenseBuilders) {
  std::vector<Table> tables = corpus_->tables;
  tables.push_back(MakeCountryDemoTable());
  int64_t headers = 0, separators = 0, context = 0;
  for (size_t ti = 0; ti < tables.size(); ++ti) {
    const TokenizedTable serialized = serializer_->Serialize(tables[ti]);
    for (const TokenInfo& tok : serialized.tokens) {
      headers += tok.row == 0 && tok.column > 0;
      separators += tok.row > 0 && tok.column == 0;
      context += tok.row == 0 && tok.column == 0;
    }
    const std::string id = "table " + std::to_string(ti);
    ExpectSameMatrix(TurlMask(serialized).Materialize(),
                     ReferenceTurlBias(serialized), id + " turl");
    for (int64_t heads : {1, 2, 4}) {
      const nn::AttentionMask mate = MateMask(serialized, heads);
      const std::vector<Tensor> want = ReferenceMateBiases(serialized, heads);
      for (int64_t h = 0; h < heads; ++h) {
        ExpectSameMatrix(mate.Materialize(h), want[static_cast<size_t>(h)],
                         id + " mate head " + std::to_string(h) + "/" +
                             std::to_string(heads));
      }
    }
    ExpectSameMatrix(VerticalMask(serialized.cells).Materialize(),
                     ReferenceVerticalBias(serialized.cells),
                     id + " vertical");
  }
  // The fixture must exercise every token class the rules distinguish.
  EXPECT_GT(headers, 0);
  EXPECT_GT(separators, 0);
  EXPECT_GT(context, 0);
}

TEST_F(ModelsFixture, VisibleFractionDenseVsSparse) {
  TokenizedTable serialized = serializer_->Serialize(corpus_->tables[0]);
  const nn::AttentionMask turl = TurlMask(serialized);
  EXPECT_LT(turl.VisibleFraction(), 1.0);
  EXPECT_GT(turl.VisibleFraction(), 0.0);
  // Counted from the rule, equal to counting the materialized zeros.
  const Tensor bias = turl.Materialize();
  int64_t zeros = 0;
  for (int64_t i = 0; i < bias.numel(); ++i) zeros += bias[i] == 0.0f;
  EXPECT_EQ(turl.VisibleFraction(),
            static_cast<double>(zeros) / static_cast<double>(bias.numel()));
  nn::AttentionMask dense;
  dense.row = dense.column = {0, 1, 2, 3};
  EXPECT_EQ(dense.VisibleFraction(), 1.0);
}

class FamilySweep : public ModelsFixture,
                    public ::testing::WithParamInterface<ModelFamily> {};

TEST_P(FamilySweep, EncodeProducesFiniteHiddenAndCells) {
  ModelConfig config = TinyConfig(GetParam());
  TableEncoderModel model(config);
  model.SetTraining(false);
  Rng rng(3);
  TokenizedTable serialized = serializer_->Serialize(MakeCountryDemoTable());
  models::Encoded enc =
      model.Encode(serialized, rng, {.capture_attention = true});
  EXPECT_EQ(enc.hidden.shape(),
            (std::vector<int64_t>{serialized.size(), config.transformer.dim}));
  ASSERT_TRUE(enc.has_cells);
  EXPECT_EQ(enc.cells.shape()[0],
            static_cast<int64_t>(serialized.cells.size()));
  for (int64_t i = 0; i < enc.hidden.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(enc.hidden.value()[i]));
  }
  EXPECT_EQ(enc.attention.size(),
            static_cast<size_t>(config.transformer.num_layers));
}

TEST_P(FamilySweep, DeterministicInEvalMode) {
  ModelConfig config = TinyConfig(GetParam());
  TableEncoderModel model(config);
  model.SetTraining(false);
  TokenizedTable serialized = serializer_->Serialize(corpus_->tables[2]);
  Rng rng_a(1), rng_b(2);  // different rngs: eval must not use them
  models::Encoded a = model.Encode(serialized, rng_a);
  models::Encoded b = model.Encode(serialized, rng_b);
  EXPECT_TRUE(a.hidden.value().AllClose(b.hidden.value()));
}

TEST_P(FamilySweep, GradientsReachEmbeddings) {
  ModelConfig config = TinyConfig(GetParam());
  TableEncoderModel model(config);
  Rng rng(4);
  TokenizedTable serialized = serializer_->Serialize(corpus_->tables[3]);
  models::Encoded enc = model.Encode(serialized, rng);
  ag::Variable loss = ag::MeanAll(ag::Mul(enc.hidden, enc.hidden));
  ag::Backward(loss);
  EXPECT_GT(ops::Norm(model.token_embedding_weight().grad()), 0.0f);
}

TEST_P(FamilySweep, StateDictRoundTripPreservesOutput) {
  ModelConfig config = TinyConfig(GetParam());
  config.seed = 10;
  TableEncoderModel a(config);
  config.seed = 99;  // different init
  TableEncoderModel b(config);
  a.SetTraining(false);
  b.SetTraining(false);
  Rng rng(5);
  TokenizedTable serialized = serializer_->Serialize(corpus_->tables[4]);
  Tensor before = b.Encode(serialized, rng).hidden.value().Clone();
  ASSERT_TRUE(b.ImportStateDict(a.ExportStateDict()).ok());
  Tensor after_a = a.Encode(serialized, rng).hidden.value();
  Tensor after_b = b.Encode(serialized, rng).hidden.value();
  EXPECT_TRUE(after_a.AllClose(after_b, 1e-5f));
  EXPECT_FALSE(before.AllClose(after_b, 1e-3f));
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, FamilySweep,
    ::testing::Values(ModelFamily::kVanilla, ModelFamily::kTapas,
                      ModelFamily::kTabert, ModelFamily::kTurl,
                      ModelFamily::kMate),
    [](const ::testing::TestParamInfo<ModelFamily>& info) {
      return std::string(ModelFamilyName(info.param));
    });

TEST_F(ModelsFixture, MaskedAttentionRespectsVisibility) {
  // TURL's shared rule and MATE's row (head 0) and column (head 1)
  // heads: every captured per-head probability is exactly 0 where the
  // head's mask hides the pair, on the graph and the inference path.
  TokenizedTable serialized = serializer_->Serialize(MakeCountryDemoTable());
  for (ModelFamily family : {ModelFamily::kTurl, ModelFamily::kMate}) {
    ModelConfig config = TinyConfig(family);
    TableEncoderModel model(config);
    model.SetTraining(false);
    const nn::AttentionMask mask =
        family == ModelFamily::kTurl
            ? TurlMask(serialized)
            : MateMask(serialized, config.transformer.num_heads);
    for (bool inference : {false, true}) {
      obs::CaptureScope capture;
      Rng rng(6);
      model.Encode(serialized, rng,
                   {.need_cells = false, .inference = inference});
      const std::vector<obs::AttentionRecord> records = capture.records();
      ASSERT_EQ(records.size(),
                static_cast<size_t>(config.transformer.num_layers));
      for (const obs::AttentionRecord& record : records) {
        ASSERT_EQ(record.heads.size(),
                  static_cast<size_t>(config.transformer.num_heads));
        int64_t masked = 0;
        for (size_t h = 0; h < record.heads.size(); ++h) {
          const Tensor bias = mask.Materialize(static_cast<int64_t>(h));
          const obs::AttentionMatrix& probs = record.heads[h];
          for (int64_t i = 0; i < probs.rows; ++i) {
            for (int64_t j = 0; j < probs.cols; ++j) {
              if (bias.at(i, j) < 0.0f) {
                ++masked;
                ASSERT_EQ(probs.At(i, j), 0.0f)
                    << ModelFamilyName(family) << " head " << h << " (" << i
                    << "," << j << ") inference " << inference;
              }
            }
          }
        }
        EXPECT_GT(masked, 0);
      }
    }
  }
}

TEST_F(ModelsFixture, StructuralChannelsChangeEncoding) {
  // Tapas must distinguish two tables whose serializations share token
  // ids but differ in cell coordinates; we simulate by comparing the
  // same table encoded normally vs with a row permutation. Vanilla sees
  // different token order; the test here just verifies Tapas output
  // depends on the row channel: zeroing rows changes encoding.
  ModelConfig config = TinyConfig(ModelFamily::kTapas);
  TableEncoderModel model(config);
  model.SetTraining(false);
  Rng rng(7);
  TokenizedTable serialized = serializer_->Serialize(corpus_->tables[5]);
  Tensor normal = model.Encode(serialized, rng).hidden.value().Clone();
  TokenizedTable flattened = serialized;
  for (TokenInfo& tok : flattened.tokens) tok.row = 0;
  Tensor no_rows = model.Encode(flattened, rng).hidden.value();
  EXPECT_FALSE(normal.AllClose(no_rows, 1e-4f));
}

TEST_F(ModelsFixture, ClsAndPooledShapes) {
  ModelConfig config = TinyConfig(ModelFamily::kVanilla);
  TableEncoderModel model(config);
  model.SetTraining(false);
  Rng rng(8);
  TokenizedTable serialized = serializer_->Serialize(corpus_->tables[6]);
  models::Encoded enc = model.Encode(serialized, rng, {.need_cells = false});
  EXPECT_EQ(model.Cls(enc).shape(), (std::vector<int64_t>{1, 32}));
  EXPECT_EQ(model.Pooled(enc).shape(), (std::vector<int64_t>{1, 32}));
}

TEST_F(ModelsFixture, MlmHeadShapesAndTying) {
  ModelConfig config = TinyConfig(ModelFamily::kVanilla);
  TableEncoderModel model(config);
  model.SetTraining(false);
  Rng rng(9);
  models::MlmHead head(&model, rng);
  head.SetTraining(false);
  TokenizedTable serialized = serializer_->Serialize(corpus_->tables[7]);
  models::Encoded enc = model.Encode(serialized, rng, {.need_cells = false});
  EXPECT_EQ(head.Transform(enc.hidden).shape(),
            (std::vector<int64_t>{serialized.size(), 32}));
  EXPECT_EQ(head.output_bias().shape(),
            (std::vector<int64_t>{config.vocab_size}));
  // Three counted rows; the rest are ignored.
  std::vector<int32_t> targets(static_cast<size_t>(serialized.size()), -100);
  targets[1] = 5;
  targets[3] = 7;
  targets[4] = static_cast<int32_t>(config.vocab_size - 1);
  models::HeadLoss loss = head.Loss(enc.hidden, targets);
  EXPECT_EQ(loss.counted, 3);
  EXPECT_GE(loss.correct, 0);
  EXPECT_LE(loss.correct, 3);
  ASSERT_EQ(loss.loss.numel(), 1);
  EXPECT_GT(loss.loss.value()[0], 0.0f);
  // Weight tying: the loss gradient reaches the embedding table, and
  // only the counted rows of the encoder output.
  ag::Backward(loss.loss);
  EXPECT_GT(ops::Norm(model.token_embedding_weight().grad()), 0.0f);
  EXPECT_GT(ops::Norm(head.output_bias().grad()), 0.0f);
  const Tensor& dh = enc.hidden.grad();
  for (int64_t r = 0; r < dh.rows(); ++r) {
    const float norm = ops::Norm(ops::SliceRows(dh, r, r + 1));
    if (r == 1 || r == 3 || r == 4) {
      EXPECT_GT(norm, 0.0f) << "row " << r;
    } else {
      EXPECT_EQ(norm, 0.0f) << "row " << r;
    }
  }
  // No counted row: loss 0, nothing to differentiate.
  models::HeadLoss none = head.Loss(
      enc.hidden, std::vector<int32_t>(static_cast<size_t>(serialized.size()),
                                       -100));
  EXPECT_EQ(none.counted, 0);
  EXPECT_EQ(none.correct, 0);
  EXPECT_EQ(none.loss.value()[0], 0.0f);
  EXPECT_FALSE(none.loss.requires_grad());
}

TEST_F(ModelsFixture, EntityHeadShape) {
  ModelConfig config = TinyConfig(ModelFamily::kTurl);
  TableEncoderModel model(config);
  model.SetTraining(false);
  Rng rng(10);
  models::EntityRecoveryHead head(&model, rng);
  head.SetTraining(false);
  TokenizedTable serialized = serializer_->Serialize(corpus_->tables[8]);
  models::Encoded enc = model.Encode(serialized, rng);
  ASSERT_TRUE(enc.has_cells);
  const int64_t cells = enc.cells.value().rows();
  EXPECT_EQ(head.Transform(enc.cells).shape(),
            (std::vector<int64_t>{cells, 32}));
  EXPECT_EQ(head.output_bias().numel(), config.entity_vocab_size);
  std::vector<int32_t> targets(static_cast<size_t>(cells), -100);
  targets[0] = static_cast<int32_t>(config.entity_vocab_size - 1);
  models::HeadLoss loss = head.Loss(enc.cells, targets);
  EXPECT_EQ(loss.counted, 1);
  EXPECT_GT(loss.loss.value()[0], 0.0f);
  ag::Backward(loss.loss);
  EXPECT_GT(ops::Norm(model.entity_embedding_weight().grad()), 0.0f);
  // No counted row: loss 0, nothing to differentiate.
  models::HeadLoss none =
      head.Loss(enc.cells, std::vector<int32_t>(static_cast<size_t>(cells), -100));
  EXPECT_EQ(none.counted, 0);
  EXPECT_EQ(none.correct, 0);
  EXPECT_EQ(none.loss.value()[0], 0.0f);
  EXPECT_FALSE(none.loss.requires_grad());
}

TEST_F(ModelsFixture, CellSelectionHeadShape) {
  ModelConfig config = TinyConfig(ModelFamily::kTapas);
  TableEncoderModel model(config);
  model.SetTraining(false);
  Rng rng(11);
  models::CellSelectionHead head(config.transformer.dim, rng);
  TokenizedTable serialized = serializer_->Serialize(corpus_->tables[9]);
  models::Encoded enc = model.Encode(serialized, rng);
  ASSERT_TRUE(enc.has_cells);
  ag::Variable logits = head.Forward(enc.cells);
  EXPECT_EQ(logits.shape(),
            (std::vector<int64_t>{
                1, static_cast<int64_t>(serialized.cells.size())}));
}

TEST_F(ModelsFixture, CheckpointSaveLoadViaFile) {
  ModelConfig config = TinyConfig(ModelFamily::kTapas);
  TableEncoderModel a(config);
  const std::string path = ::testing::TempDir() + "/model.bin";
  ASSERT_TRUE(SaveTensors(a.ExportStateDict(), path).ok());
  auto loaded = LoadTensors(path);
  ASSERT_TRUE(loaded.ok());
  config.seed = 123;
  TableEncoderModel b(config);
  ASSERT_TRUE(b.ImportStateDict(*loaded).ok());
  a.SetTraining(false);
  b.SetTraining(false);
  Rng rng(12);
  TokenizedTable serialized = serializer_->Serialize(corpus_->tables[0]);
  EXPECT_TRUE(a.Encode(serialized, rng)
                  .hidden.value()
                  .AllClose(b.Encode(serialized, rng).hidden.value(), 1e-5f));
}

}  // namespace
}  // namespace tabrep
