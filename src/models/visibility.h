#ifndef TABREP_MODELS_VISIBILITY_H_
#define TABREP_MODELS_VISIBILITY_H_

#include <vector>

#include "nn/attention.h"
#include "serialize/serializer.h"

namespace tabrep {

/// TURL-style visibility, one kRowOrColumn rule for every head: token
/// i may attend to token j iff
///   - either token is outside the grid (context, specials), or
///   - they share a row, or
///   - they share a column.
/// Everything else is masked. The diagonal is always visible.
nn::AttentionMask TurlMask(const TokenizedTable& input);

/// MATE-style per-head rules: the first half of the heads are row heads
/// (kSameRow: grid tokens attend within their row plus all non-grid
/// tokens), the rest are column heads (kSameColumn: within their column
/// plus non-grid). Non-grid tokens attend everywhere in every head.
nn::AttentionMask MateMask(const TokenizedTable& input, int64_t num_heads);

/// TaBERT's vertical attention over pooled cells: cell i attends to
/// cell j iff they share a column (kSameGroup).
nn::AttentionMask VerticalMask(const std::vector<CellSpan>& cells);

}  // namespace tabrep

#endif  // TABREP_MODELS_VISIBILITY_H_
