#include "models/visibility.h"

namespace tabrep {

namespace {

/// The token ids every TokenizedTable rule reads, with `rules`.
nn::AttentionMask TokenMask(const TokenizedTable& input,
                            std::vector<kernels::MaskRule> rules) {
  nn::AttentionMask mask;
  mask.row.reserve(input.tokens.size());
  mask.column.reserve(input.tokens.size());
  for (const TokenInfo& tok : input.tokens) {
    mask.row.push_back(tok.row);
    mask.column.push_back(tok.column);
  }
  mask.rules = std::move(rules);
  return mask;
}

}  // namespace

nn::AttentionMask TurlMask(const TokenizedTable& input) {
  return TokenMask(input, {kernels::MaskRule::kRowOrColumn});
}

nn::AttentionMask MateMask(const TokenizedTable& input, int64_t num_heads) {
  std::vector<kernels::MaskRule> rules;
  rules.reserve(static_cast<size_t>(num_heads));
  for (int64_t h = 0; h < num_heads; ++h) {
    rules.push_back(h < num_heads / 2 ? kernels::MaskRule::kSameRow
                                      : kernels::MaskRule::kSameColumn);
  }
  return TokenMask(input, std::move(rules));
}

nn::AttentionMask VerticalMask(const std::vector<CellSpan>& cells) {
  nn::AttentionMask mask;
  mask.row.reserve(cells.size());
  mask.column.reserve(cells.size());
  for (const CellSpan& cell : cells) {
    mask.row.push_back(cell.row);
    mask.column.push_back(cell.col);
  }
  mask.rules = {kernels::MaskRule::kSameGroup};
  return mask;
}

}  // namespace tabrep
