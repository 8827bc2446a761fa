#ifndef TABREP_MODELS_TABLE_ENCODER_H_
#define TABREP_MODELS_TABLE_ENCODER_H_

#include <memory>
#include <string>
#include <vector>

#include "models/config.h"
#include "nn/layers.h"
#include "nn/transformer.h"
#include "serialize/serializer.h"

namespace tabrep {

namespace models {

/// Per-call knobs for TableEncoderModel::Encode. A struct (rather
/// than positional bools) so future flags — e.g. activation capture,
/// layer truncation — extend call sites without churn.
struct EncodeOptions {
  /// Pool cell-span representations (skip for token-only objectives).
  bool need_cells = true;
  /// Record per-layer averaged attention maps in Encoded::attention.
  bool capture_attention = false;
  /// Run graph-free: no VarImpl nodes or backward closures are built;
  /// the forward runs on plain tensors (ops::/kernels::) with
  /// arena-backed scratch and the results come back as Constant
  /// variables. Values are bitwise identical to the graph path.
  /// Requires eval mode (training() == false). Encode also switches to
  /// this path automatically when an ag::NoGradScope is active.
  bool inference = false;
  /// Numeric precision for the inference path's Linear projections
  /// (attention Q/K/V/out and FFN). kInt8 takes effect only on the
  /// graph-free path and only for layers calibrated via CalibrateInt8
  /// or an imported quantized checkpoint; uncalibrated layers fall
  /// back to f32. The graph path ignores this field.
  kernels::Precision precision = kernels::Precision::kFloat32;
};

/// Result of encoding one serialized table.
struct Encoded {
  /// Token-level hidden states [T, dim].
  ag::Variable hidden;
  /// Cell-level representations [num_cells, dim], mean-pooled over each
  /// cell's token span (and, for TaBERT, refined by vertical
  /// attention). Row order matches TokenizedTable::cells. Empty when
  /// the input has no cell spans.
  ag::Variable cells;
  bool has_cells = false;
  /// Averaged post-softmax attention per encoder layer; filled only
  /// when requested.
  std::vector<Tensor> attention;
};

/// The library's central model: a transformer encoder over serialized
/// tables, parameterized by ModelFamily (§2.3's design space collapsed
/// into one implementation with three extension points: input
/// embedding channels, attention visibility, and a post-hoc vertical
/// attention stage). See ModelFamily for which extension each family
/// enables.
class TableEncoderModel : public nn::Module {
 public:
  explicit TableEncoderModel(const ModelConfig& config);

  /// Encodes one serialized table; see EncodeOptions for the knobs.
  Encoded Encode(const TokenizedTable& input, Rng& rng,
                 const EncodeOptions& options = {});

  /// The [CLS] row of `hidden` as a [1, dim] variable.
  ag::Variable Cls(const Encoded& encoded) const;

  /// Mean over all token positions — the whole-table embedding used by
  /// retrieval.
  ag::Variable Pooled(const Encoded& encoded) const;

  /// Token embedding table (for weight-tied output heads).
  ag::Variable& token_embedding_weight() { return token_emb_->weight(); }
  /// Entity embedding table; only present for kTurl.
  ag::Variable& entity_embedding_weight();

  const ModelConfig& config() const { return config_; }
  int64_t dim() const { return config_.transformer.dim; }

  /// Calibration pass for the int8 inference path: encodes each table
  /// graph-free under an Int8CalibrationScope (recording per-layer
  /// activation absmax), then quantizes and packs every Linear that
  /// saw data. Deterministic for a fixed corpus: absmax is a
  /// commutative max, so thread count and table order don't change the
  /// scales. Requires eval mode. Returns the number of calibrated
  /// Linear layers.
  int64_t CalibrateInt8(const std::vector<TokenizedTable>& corpus);

  /// Checkpointing: state dict under a "model/" prefix. Calibrated
  /// layers additionally export "quant/model/<path>act_absmax" ([1])
  /// and "quant/model/<path>w_scale" ([out]); import restores the
  /// absmax and repacks the int8 weights from the imported f32 weights
  /// (deterministic), cross-checking the recorded per-channel scales.
  TensorMap ExportStateDict();
  Status ImportStateDict(const TensorMap& state);

 private:
  ag::Variable EmbedInput(const TokenizedTable& input, Rng& rng);
  /// Tensor-path twins of EmbedInput/Encode used when
  /// EncodeOptions::inference is set (or a NoGradScope is active).
  Tensor EmbedInputInference(const TokenizedTable& input);
  Encoded EncodeInference(const TokenizedTable& input,
                          const EncodeOptions& options);
  /// The family's encoder-stack mask (TURL, MATE); no rules = dense.
  nn::AttentionMask StructureMask(const TokenizedTable& input) const;

  ModelConfig config_;
  Rng init_rng_;
  std::unique_ptr<nn::Embedding> token_emb_;
  std::unique_ptr<nn::Embedding> pos_emb_;
  std::unique_ptr<nn::Embedding> seg_emb_;
  // Structural channels (Tapas/Turl/Mate).
  std::unique_ptr<nn::Embedding> row_emb_;
  std::unique_ptr<nn::Embedding> col_emb_;
  std::unique_ptr<nn::Embedding> kind_emb_;
  std::unique_ptr<nn::Embedding> rank_emb_;  // Tapas only
  // Entity channel (Turl).
  std::unique_ptr<nn::Embedding> entity_emb_;
  std::unique_ptr<nn::LayerNorm> input_ln_;
  std::unique_ptr<nn::TransformerEncoder> encoder_;
  // Vertical attention over column-aligned cells (Tabert).
  std::unique_ptr<nn::MultiHeadSelfAttention> vertical_attn_;
  std::unique_ptr<nn::LayerNorm> vertical_ln_;
};

/// Convenience factory.
std::unique_ptr<TableEncoderModel> CreateModel(const ModelConfig& config);

}  // namespace models

using models::TableEncoderModel;

}  // namespace tabrep

#endif  // TABREP_MODELS_TABLE_ENCODER_H_
