#include "models/table_encoder.h"

#include <algorithm>

#include "models/visibility.h"
#include "obs/metrics.h"
#include "tensor/arena.h"
#include "tensor/ops.h"

namespace tabrep {

std::string_view ModelFamilyName(ModelFamily family) {
  switch (family) {
    case ModelFamily::kVanilla:
      return "vanilla";
    case ModelFamily::kTapas:
      return "tapas";
    case ModelFamily::kTabert:
      return "tabert";
    case ModelFamily::kTurl:
      return "turl";
    case ModelFamily::kMate:
      return "mate";
  }
  return "?";
}

namespace models {

namespace {

/// Clamps channel values into an embedding table's range.
std::vector<int32_t> ClampIds(const std::vector<int32_t>& raw, int64_t limit) {
  std::vector<int32_t> out(raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    out[i] = static_cast<int32_t>(
        std::clamp<int64_t>(raw[i], 0, limit - 1));
  }
  return out;
}

}  // namespace

TableEncoderModel::TableEncoderModel(const ModelConfig& config)
    : config_(config), init_rng_(config.seed) {
  TABREP_CHECK(config_.vocab_size > 0) << "vocab_size must be set";
  const int64_t dim = config_.transformer.dim;
  Rng& rng = init_rng_;

  token_emb_ = std::make_unique<nn::Embedding>(config_.vocab_size, dim, rng);
  pos_emb_ = std::make_unique<nn::Embedding>(config_.max_position, dim, rng);
  seg_emb_ = std::make_unique<nn::Embedding>(config_.num_segments, dim, rng);
  RegisterChild("token_emb", token_emb_.get());
  RegisterChild("pos_emb", pos_emb_.get());
  RegisterChild("seg_emb", seg_emb_.get());

  if (config_.UsesStructuralEmbeddings()) {
    row_emb_ = std::make_unique<nn::Embedding>(config_.max_rows, dim, rng);
    col_emb_ = std::make_unique<nn::Embedding>(config_.max_columns, dim, rng);
    kind_emb_ = std::make_unique<nn::Embedding>(kNumTokenKinds, dim, rng);
    RegisterChild("row_emb", row_emb_.get());
    RegisterChild("col_emb", col_emb_.get());
    RegisterChild("kind_emb", kind_emb_.get());
  }
  if (config_.family == ModelFamily::kTapas) {
    rank_emb_ = std::make_unique<nn::Embedding>(config_.max_rank, dim, rng);
    RegisterChild("rank_emb", rank_emb_.get());
  }
  if (config_.family == ModelFamily::kTurl) {
    TABREP_CHECK(config_.entity_vocab_size > 0)
        << "kTurl needs entity_vocab_size";
    entity_emb_ =
        std::make_unique<nn::Embedding>(config_.entity_vocab_size, dim, rng);
    RegisterChild("entity_emb", entity_emb_.get());
  }

  input_ln_ = std::make_unique<nn::LayerNorm>(dim);
  RegisterChild("input_ln", input_ln_.get());
  encoder_ = std::make_unique<nn::TransformerEncoder>(config_.transformer, rng);
  RegisterChild("encoder", encoder_.get());

  if (config_.family == ModelFamily::kTabert) {
    vertical_attn_ = std::make_unique<nn::MultiHeadSelfAttention>(
        dim, config_.transformer.num_heads, config_.transformer.dropout, rng);
    vertical_ln_ = std::make_unique<nn::LayerNorm>(dim);
    RegisterChild("vertical_attn", vertical_attn_.get());
    RegisterChild("vertical_ln", vertical_ln_.get());
  }
}

ag::Variable TableEncoderModel::EmbedInput(const TokenizedTable& input,
                                           Rng& rng) {
  const size_t t = input.tokens.size();
  std::vector<int32_t> ids(t), positions(t), segments(t), rows(t), cols(t),
      kinds(t), ranks(t), entities(t);
  for (size_t i = 0; i < t; ++i) {
    const TokenInfo& tok = input.tokens[i];
    ids[i] = tok.id;
    positions[i] = static_cast<int32_t>(i);
    segments[i] = tok.segment;
    rows[i] = tok.row;
    cols[i] = tok.column;
    kinds[i] = tok.kind;
    ranks[i] = tok.rank;
    entities[i] = tok.entity_id >= 0 ? tok.entity_id : 0;  // 0 = ENT_UNK
  }

  ag::Variable x = token_emb_->Forward(ClampIds(ids, config_.vocab_size));
  x = ag::Add(x, pos_emb_->Forward(ClampIds(positions, config_.max_position)));
  x = ag::Add(x, seg_emb_->Forward(ClampIds(segments, config_.num_segments)));
  if (config_.UsesStructuralEmbeddings()) {
    x = ag::Add(x, row_emb_->Forward(ClampIds(rows, config_.max_rows)));
    x = ag::Add(x, col_emb_->Forward(ClampIds(cols, config_.max_columns)));
    x = ag::Add(x, kind_emb_->Forward(ClampIds(kinds, kNumTokenKinds)));
  }
  if (rank_emb_) {
    x = ag::Add(x, rank_emb_->Forward(ClampIds(ranks, config_.max_rank)));
  }
  if (entity_emb_) {
    x = ag::Add(
        x, entity_emb_->Forward(ClampIds(entities, config_.entity_vocab_size)));
  }
  x = input_ln_->Forward(x);
  if (training() && config_.transformer.dropout > 0.0f) {
    x = ag::Dropout(x, config_.transformer.dropout, rng);
  }
  return x;
}

Encoded TableEncoderModel::Encode(const TokenizedTable& input, Rng& rng,
                                  const EncodeOptions& options) {
  TABREP_CHECK(input.size() > 0) << "empty input";
  TABREP_CHECK(!options.inference || !training())
      << "EncodeOptions::inference requires eval mode";
  static obs::Counter& graph_calls =
      obs::Registry::Get().counter("tabrep.models.encode.graph");
  static obs::Counter& infer_calls =
      obs::Registry::Get().counter("tabrep.models.encode.infer");
  if ((options.inference || ag::NoGradScope::Active()) && !training()) {
    infer_calls.Increment();
    return EncodeInference(input, options);
  }
  graph_calls.Increment();
  ag::Variable x = EmbedInput(input, rng);

  const nn::AttentionMask mask = StructureMask(input);
  const nn::AttentionMask* mask_ptr = mask.rules.empty() ? nullptr : &mask;

  Encoded out;
  out.hidden = encoder_->Forward(
      x, mask_ptr, rng, options.capture_attention ? &out.attention : nullptr);

  if (options.need_cells && !input.cells.empty()) {
    // Mean-pool each cell's token span.
    std::vector<ag::Variable> pooled;
    pooled.reserve(input.cells.size());
    for (const CellSpan& span : input.cells) {
      ag::Variable slice = ag::SliceRows(out.hidden, span.begin, span.end);
      ag::Variable mean = ag::MeanRows(slice);
      pooled.push_back(ag::Reshape(mean, {1, dim()}));
    }
    ag::Variable cells = ag::ConcatRows(pooled);

    if (config_.family == ModelFamily::kTabert) {
      // Vertical self-attention: cells attend within their column.
      const nn::AttentionMask vmask = VerticalMask(input.cells);
      ag::Variable refined = vertical_attn_->Forward(cells, &vmask, rng);
      cells = vertical_ln_->Forward(ag::Add(cells, refined));
    }
    out.cells = cells;
    out.has_cells = true;
  }
  return out;
}

Tensor TableEncoderModel::EmbedInputInference(const TokenizedTable& input) {
  // Same channel sum as EmbedInput, with the id staging arrays in
  // thread-arena scratch instead of heap vectors (the caller's
  // ScratchScope reclaims them).
  const int64_t t = input.size();
  mem::Arena& arena = mem::Arena::ThreadLocal();
  auto staged = [&](int64_t limit, auto&& channel) {
    int32_t* out = arena.AllocSpan<int32_t>(static_cast<size_t>(t));
    for (int64_t i = 0; i < t; ++i) {
      out[i] = static_cast<int32_t>(std::clamp<int64_t>(
          channel(input.tokens[static_cast<size_t>(i)], i), 0, limit - 1));
    }
    return out;
  };

  Tensor x = token_emb_->ForwardInference(
      staged(config_.vocab_size,
             [](const TokenInfo& tok, int64_t) { return tok.id; }),
      t);
  x = ops::Add(x, pos_emb_->ForwardInference(
                      staged(config_.max_position,
                             [](const TokenInfo&, int64_t i) { return i; }),
                      t));
  x = ops::Add(
      x, seg_emb_->ForwardInference(
             staged(config_.num_segments,
                    [](const TokenInfo& tok, int64_t) { return tok.segment; }),
             t));
  if (config_.UsesStructuralEmbeddings()) {
    x = ops::Add(
        x, row_emb_->ForwardInference(
               staged(config_.max_rows,
                      [](const TokenInfo& tok, int64_t) { return tok.row; }),
               t));
    x = ops::Add(x, col_emb_->ForwardInference(
                        staged(config_.max_columns,
                               [](const TokenInfo& tok, int64_t) {
                                 return tok.column;
                               }),
                        t));
    x = ops::Add(
        x, kind_emb_->ForwardInference(
               staged(kNumTokenKinds,
                      [](const TokenInfo& tok, int64_t) { return tok.kind; }),
               t));
  }
  if (rank_emb_) {
    x = ops::Add(
        x, rank_emb_->ForwardInference(
               staged(config_.max_rank,
                      [](const TokenInfo& tok, int64_t) { return tok.rank; }),
               t));
  }
  if (entity_emb_) {
    x = ops::Add(x, entity_emb_->ForwardInference(
                        staged(config_.entity_vocab_size,
                               [](const TokenInfo& tok, int64_t) {
                                 return tok.entity_id >= 0 ? tok.entity_id
                                                           : 0;  // ENT_UNK
                               }),
                        t));
  }
  return input_ln_->ForwardInference(x);
}

Encoded TableEncoderModel::EncodeInference(const TokenizedTable& input,
                                           const EncodeOptions& options) {
  mem::ScratchScope scratch;
  Tensor x = EmbedInputInference(input);

  const nn::AttentionMask mask = StructureMask(input);
  const nn::AttentionMask* mask_ptr = mask.rules.empty() ? nullptr : &mask;

  Encoded out;
  Tensor hidden = encoder_->ForwardInference(
      x, mask_ptr, options.capture_attention ? &out.attention : nullptr,
      options.precision);
  out.hidden = ag::Variable::Constant(hidden);

  if (options.need_cells && !input.cells.empty()) {
    std::vector<Tensor> pooled;
    pooled.reserve(input.cells.size());
    for (const CellSpan& span : input.cells) {
      pooled.push_back(
          ops::MeanRows(ops::SliceRows(hidden, span.begin, span.end))
              .Reshape({1, dim()}));
    }
    Tensor cells = ops::ConcatRows(pooled);

    if (config_.family == ModelFamily::kTabert) {
      const nn::AttentionMask vmask = VerticalMask(input.cells);
      Tensor refined = vertical_attn_->ForwardInference(
          cells, &vmask, nullptr, options.precision);
      cells = vertical_ln_->ForwardInference(ops::Add(cells, refined));
    }
    out.cells = ag::Variable::Constant(cells);
    out.has_cells = true;
  }
  return out;
}

nn::AttentionMask TableEncoderModel::StructureMask(
    const TokenizedTable& input) const {
  switch (config_.family) {
    case ModelFamily::kTurl:
      return TurlMask(input);
    case ModelFamily::kMate:
      return MateMask(input, config_.transformer.num_heads);
    default:
      return {};
  }
}

ag::Variable TableEncoderModel::Cls(const Encoded& encoded) const {
  return ag::SliceRows(encoded.hidden, 0, 1);
}

ag::Variable TableEncoderModel::Pooled(const Encoded& encoded) const {
  return ag::Reshape(ag::MeanRows(encoded.hidden), {1, dim()});
}

ag::Variable& TableEncoderModel::entity_embedding_weight() {
  TABREP_CHECK(entity_emb_ != nullptr)
      << "entity embeddings only exist for kTurl";
  return entity_emb_->weight();
}

int64_t TableEncoderModel::CalibrateInt8(
    const std::vector<TokenizedTable>& corpus) {
  TABREP_CHECK(!training()) << "CalibrateInt8 requires eval mode";
  {
    nn::Int8CalibrationScope scope;
    ag::NoGradScope no_grad;
    EncodeOptions opts;
    opts.inference = true;
    for (const TokenizedTable& table : corpus) {
      Encode(table, init_rng_, opts);
    }
  }
  int64_t calibrated = 0;
  Visit("model/", [&calibrated](const std::string&, nn::Module* m) {
    auto* linear = dynamic_cast<nn::Linear*>(m);
    if (linear != nullptr && linear->act_absmax() > 0.0f) {
      linear->FinalizeInt8();
      ++calibrated;
    }
  });
  return calibrated;
}

TensorMap TableEncoderModel::ExportStateDict() {
  TensorMap out;
  ExportState("model/", &out);
  Visit("model/", [&out](const std::string& prefix, nn::Module* m) {
    auto* linear = dynamic_cast<nn::Linear*>(m);
    if (linear == nullptr || !(linear->act_absmax() > 0.0f)) return;
    out["quant/" + prefix + "act_absmax"] =
        Tensor::Of({linear->act_absmax()});
    const kernels::QuantizedMatrix& q = linear->quantized_weights();
    if (!q.empty()) {
      out["quant/" + prefix + "w_scale"] = Tensor::FromVector(
          {linear->out_features()},
          std::vector<float>(q.scale.begin(), q.scale.end()));
    }
  });
  return out;
}

Status TableEncoderModel::ImportStateDict(const TensorMap& state) {
  TABREP_RETURN_IF_ERROR(ImportState("model/", state));
  Status status = Status::OK();
  Visit("model/", [&](const std::string& prefix, nn::Module* m) {
    auto* linear = dynamic_cast<nn::Linear*>(m);
    if (linear == nullptr || !status.ok()) return;
    auto absmax_it = state.find("quant/" + prefix + "act_absmax");
    if (absmax_it == state.end()) return;
    if (absmax_it->second.numel() != 1) {
      status = Status::InvalidArgument("quant/" + prefix +
                                       "act_absmax must hold one scalar");
      return;
    }
    linear->set_act_absmax(absmax_it->second[0]);
    // Repacking from the imported f32 weights is deterministic, so the
    // packed bytes need not travel; the recorded scales cross-check
    // that the weights the absmax was calibrated against match.
    linear->FinalizeInt8();
    auto scale_it = state.find("quant/" + prefix + "w_scale");
    if (scale_it == state.end()) return;
    const kernels::QuantizedMatrix& q = linear->quantized_weights();
    if (scale_it->second.numel() != linear->out_features()) {
      status = Status::InvalidArgument(
          "quant/" + prefix + "w_scale has " +
          std::to_string(scale_it->second.numel()) + " entries; expected " +
          std::to_string(linear->out_features()));
      return;
    }
    for (int64_t j = 0; j < linear->out_features(); ++j) {
      if (scale_it->second[j] != q.scale[static_cast<size_t>(j)]) {
        status = Status::InvalidArgument(
            "quant/" + prefix + "w_scale[" + std::to_string(j) +
            "] does not match the scale repacked from the imported weights");
        return;
      }
    }
  });
  return status;
}

std::unique_ptr<TableEncoderModel> CreateModel(const ModelConfig& config) {
  return std::make_unique<TableEncoderModel>(config);
}

}  // namespace models
}  // namespace tabrep
