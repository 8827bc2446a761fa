#ifndef TABREP_TENSOR_AUTOGRAD_H_
#define TABREP_TENSOR_AUTOGRAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"

namespace tabrep::ag {

class Variable;

namespace internal {

/// Graph node: a value plus (when reachable from a parameter) the
/// gradient buffer and the local backward rule.
struct VarImpl {
  Tensor value;
  Tensor grad;  // allocated lazily by EnsureGrad()
  bool requires_grad = false;
  bool grad_allocated = false;
  std::vector<std::shared_ptr<VarImpl>> parents;
  /// Accumulates input gradients given this node's output gradient.
  std::function<void(const Tensor& grad_out)> backward_fn;

  void EnsureGrad() {
    if (!grad_allocated) {
      grad = Tensor::Zeros(value.shape());
      grad_allocated = true;
    }
  }
};

}  // namespace internal

/// A tensor participating in a dynamically-built computation graph.
/// Copies share the node. Constant() wraps data the graph does not
/// differentiate through; Param() marks a trainable leaf.
class Variable {
 public:
  Variable() : impl_(std::make_shared<internal::VarImpl>()) {}

  /// A leaf that gradients flow *through* but are not stored for.
  static Variable Constant(Tensor value);
  /// A trainable leaf: gradients accumulate in grad().
  static Variable Param(Tensor value);

  const Tensor& value() const { return impl_->value; }
  Tensor& mutable_value() { return impl_->value; }

  /// Gradient buffer; zeros if backward has not touched this leaf.
  const Tensor& grad() const;
  bool requires_grad() const { return impl_->requires_grad; }

  /// Zeros the accumulated gradient (no-op when never allocated).
  void ZeroGrad();

  /// Shape helpers forwarded to the value.
  const std::vector<int64_t>& shape() const { return impl_->value.shape(); }
  int64_t numel() const { return impl_->value.numel(); }

  std::shared_ptr<internal::VarImpl> impl() const { return impl_; }

 private:
  explicit Variable(std::shared_ptr<internal::VarImpl> impl)
      : impl_(std::move(impl)) {}
  std::shared_ptr<internal::VarImpl> impl_;

  friend Variable MakeOp(Tensor value, std::vector<Variable> parents,
                         std::function<void(const Tensor&)> backward_fn);
};

/// Creates an interior node. Public so model code can add custom ops.
/// The node requires grad iff any parent does; otherwise backward_fn is
/// dropped and the node is a cheap constant.
Variable MakeOp(Tensor value, std::vector<Variable> parents,
                std::function<void(const Tensor&)> backward_fn);

/// Runs reverse-mode accumulation from `root` (any shape; the seed
/// gradient is all-ones). Call ZeroGrad on parameters between steps.
/// Each call is one "ag.backward" trace span and one sample of the
/// always-on tabrep.ag.backward.us histogram.
///
/// Gradient buffers are first-touch: the first write to a node's
/// gradient (shared buffer or redirect slot) takes the delta itself,
/// adopting an op's freshly computed tensor outright, instead of
/// zero-filling a buffer and adding into it. Only the in-place writers
/// (EmbeddingLookup, SliceRows, ConcatRows, the loss's row scatter)
/// start from a zero-filled buffer.
void Backward(const Variable& root);

/// RAII: while active on the current thread, MakeOp produces constant
/// nodes — no parent edges are kept and the backward closure is
/// dropped, so the ag:: layer stops retaining the graph. Forward
/// VALUES are untouched (every op computes through the same ops::
/// routines), which is what makes graph-free inference bitwise
/// identical to the graph path. Nests freely; each worker thread of a
/// ParallelFor region needs its own scope.
class NoGradScope {
 public:
  NoGradScope();
  ~NoGradScope();
  NoGradScope(const NoGradScope&) = delete;
  NoGradScope& operator=(const NoGradScope&) = delete;

  /// True when a NoGradScope is open on this thread.
  static bool Active();

 private:
  bool prev_;
};

// -- Gradient redirection (deterministic data parallelism) --------------
//
// A GradTable is a private side-buffer for gradients: while a
// ScopedGradRedirect is active on a thread, every gradient write that
// Backward performs — including the in-place writers like
// EmbeddingLookup — lands in the table instead of the shared
// VarImpl::grad buffers. Worker threads each run backward into their
// own table, and the caller folds the tables into the parameters in a
// fixed order, making multi-threaded gradient accumulation both
// race-free and bitwise reproducible.

/// Maps graph nodes to private gradient buffers.
class GradTable {
 public:
  /// The redirected buffer for `node`, zero-filled on first use.
  Tensor& Slot(internal::VarImpl* node);
  /// The buffer for `node`, or null when backward never wrote it.
  const Tensor* Find(const internal::VarImpl* node) const;
  Tensor* Find(const internal::VarImpl* node);
  /// Makes `grad` the buffer of `node`, which must not have one yet.
  void Insert(internal::VarImpl* node, Tensor grad);

  /// Keeps `node` alive as long as this table. Slots are keyed by raw
  /// VarImpl address, so a graph whose nodes were freed while its
  /// entries remain would let a later allocation reuse an address and
  /// collide with a stale slot; Backward retains every redirected
  /// graph here to rule that out.
  void Retain(std::shared_ptr<internal::VarImpl> node);

  size_t size() const { return slots_.size(); }

 private:
  std::unordered_map<const internal::VarImpl*, Tensor> slots_;
  std::vector<std::shared_ptr<internal::VarImpl>> retained_;
};

/// RAII: routes this thread's gradient writes into `table` (nestable;
/// the previous redirect target is restored on destruction).
class ScopedGradRedirect {
 public:
  explicit ScopedGradRedirect(GradTable* table);
  ~ScopedGradRedirect();
  ScopedGradRedirect(const ScopedGradRedirect&) = delete;
  ScopedGradRedirect& operator=(const ScopedGradRedirect&) = delete;

 private:
  GradTable* prev_;
};

/// Folds the gradients `table` recorded for `params` into their shared
/// grad buffers, in list order. Call once per example, in example
/// order, for determinism.
void AccumulateGrads(const GradTable& table,
                     const std::vector<Variable*>& params);

// -- Differentiable ops (mirror tensor/ops.h) ---------------------------

Variable Add(const Variable& a, const Variable& b);
Variable Sub(const Variable& a, const Variable& b);
Variable Mul(const Variable& a, const Variable& b);
Variable AddScalar(const Variable& a, float s);
Variable MulScalar(const Variable& a, float s);
/// Adds 1-D bias b over the last axis of a.
Variable AddRowBroadcast(const Variable& a, const Variable& b);
Variable Tanh(const Variable& a);
Variable Relu(const Variable& a);
Variable Gelu(const Variable& a);
Variable Sigmoid(const Variable& a);

Variable MatMul(const Variable& a, const Variable& b);
/// C = A * B^T.
Variable MatMulTransposedB(const Variable& a, const Variable& b);

/// Fused scaled-dot-product self-attention over 2-D q/k/v under a
/// structure mask (see ops::ScaledDotAttention; kNone = dense). The
/// mask is a constant, not differentiated through; `probs_out`, if
/// non-null, receives the post-softmax probabilities. The backward
/// pass recomputes nothing — it keeps the dense probabilities, exactly
/// 0 where masked, internally — and accumulates into q/k/v with a
/// fixed order.
Variable FusedAttention(const Variable& q, const Variable& k,
                        const Variable& v, const kernels::MaskView& mask,
                        float scale, Tensor* probs_out = nullptr);
Variable Transpose(const Variable& a);
Variable Reshape(const Variable& a, std::vector<int64_t> shape);

Variable Softmax(const Variable& a);
Variable LayerNorm(const Variable& a, const Variable& gamma,
                   const Variable& beta, float eps = 1e-5f);
Variable MeanAll(const Variable& a);
Variable SumAll(const Variable& a);
Variable MeanRows(const Variable& a);

/// L2-normalizes each row of a 2-D input: y_i = x_i / max(||x_i||, eps).
/// The building block of cosine/InfoNCE losses.
Variable L2NormalizeRows(const Variable& a, float eps = 1e-8f);

/// Differentiable gather into an embedding table (ids are constant).
Variable EmbeddingLookup(const Variable& table, std::vector<int32_t> ids);
Variable SliceRows(const Variable& a, int64_t begin, int64_t end);
Variable ConcatRows(const std::vector<Variable>& parts);

/// Inverted-dropout: keeps each element with prob 1-p and rescales by
/// 1/(1-p). Identity when p == 0. The mask is drawn from `rng`.
Variable Dropout(const Variable& a, float p, Rng& rng);

/// Mean cross-entropy over non-ignored targets; see ops::CrossEntropy.
Variable CrossEntropy(const Variable& logits, std::vector<int32_t> targets,
                      int32_t ignore_index = -100,
                      int64_t* correct_out = nullptr,
                      int64_t* counted_out = nullptr);

/// The weight-tied LM-head loss over counted rows: mean cross-entropy
/// of softmax(h · weight^T + bias). h is [r, d] with r >= 1, weight
/// [v, d] (an embedding table the head ties to), bias [v], and targets
/// r ids in [0, v): every row carries a target. Callers with ignored
/// positions gather the counted rows first (models::MlmHead::Loss does,
/// with EmbeddingLookup, and handles the case of no counted row).
///
/// Equal, within float rounding, to
///   CrossEntropy(AddRowBroadcast(MatMulTransposedB(h, weight), bias),
///                targets)
/// with the same argmax accuracy (`correct_out`), but it never holds
/// the [r, v] logits: kernels::TiedSoftmaxForward walks the vocabulary
/// block by block in per-thread scratch, and backward recomputes each
/// block from the saved log-sum-exp to produce dh, dweight and dbias.
/// Traced as "ag.tied_softmax_loss" (forward) and
/// "ag.tied_softmax_loss.backward".
Variable TiedSoftmaxLoss(const Variable& h, const Variable& weight,
                         const Variable& bias, std::vector<int32_t> targets,
                         int64_t* correct_out = nullptr);

}  // namespace tabrep::ag

#endif  // TABREP_TENSOR_AUTOGRAD_H_
