#include "nn/attention.h"

#include <cmath>

#include "obs/introspect.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/runtime.h"
#include "tensor/ops.h"

namespace tabrep::nn {

kernels::MaskView AttentionMask::view(int64_t head) const {
  kernels::MaskRule rule = kernels::MaskRule::kNone;
  if (!rules.empty()) {
    rule = rules.size() == 1 ? rules[0] : rules[static_cast<size_t>(head)];
  }
  return {rule, row.data(), column.data()};
}

Tensor AttentionMask::Materialize(int64_t head) const {
  const int64_t t = size();
  const kernels::MaskView m = view(head);
  Tensor bias({t, t});
  for (int64_t i = 0; i < t; ++i) {
    for (int64_t j = 0; j < t; ++j) {
      bias.at(i, j) = kernels::MaskVisible(m, i, j) ? 0.0f
                                                   : kernels::kMaskedScore;
    }
  }
  return bias;
}

double AttentionMask::VisibleFraction(int64_t head) const {
  const int64_t t = size();
  if (t == 0) return 1.0;
  const kernels::MaskView m = view(head);
  int64_t visible = 0;
  for (int64_t i = 0; i < t; ++i) {
    for (int64_t j = 0; j < t; ++j) visible += kernels::MaskVisible(m, i, j);
  }
  return static_cast<double>(visible) / static_cast<double>(t * t);
}

namespace {

/// Checks a mask against the sequence length and head count.
void CheckMask(const AttentionMask* mask, int64_t t, int64_t num_heads) {
  if (mask == nullptr) return;
  TABREP_CHECK(mask->size() == t && mask->column.size() == mask->row.size())
      << "attention mask over " << mask->size()
      << " tokens vs sequence length " << t;
  TABREP_CHECK(mask->rules.size() <= 1 ||
               static_cast<int64_t>(mask->rules.size()) == num_heads)
      << "attention mask has " << mask->rules.size() << " rules for "
      << num_heads << " heads";
}

}  // namespace

MultiHeadSelfAttention::MultiHeadSelfAttention(int64_t dim, int64_t num_heads,
                                               float dropout, Rng& rng)
    : dim_(dim),
      num_heads_(num_heads),
      head_dim_(dim / num_heads),
      dropout_(dropout) {
  TABREP_CHECK(dim % num_heads == 0)
      << "dim " << dim << " not divisible by heads " << num_heads;
  for (int64_t h = 0; h < num_heads_; ++h) {
    q_.push_back(std::make_unique<Linear>(dim_, head_dim_, rng));
    k_.push_back(std::make_unique<Linear>(dim_, head_dim_, rng));
    v_.push_back(std::make_unique<Linear>(dim_, head_dim_, rng));
    out_.push_back(std::make_unique<Linear>(head_dim_, dim_, rng));
    const std::string suffix = std::to_string(h);
    RegisterChild("q" + suffix, q_.back().get());
    RegisterChild("k" + suffix, k_.back().get());
    RegisterChild("v" + suffix, v_.back().get());
    RegisterChild("out" + suffix, out_.back().get());
  }
  out_bias_ = RegisterParam("out_bias", Tensor::Zeros({dim_}));
}

ag::Variable MultiHeadSelfAttention::Forward(const ag::Variable& x,
                                             const AttentionMask* mask,
                                             Rng& rng,
                                             Tensor* attn_probs_out) {
  TABREP_TRACE_SPAN("nn.attention");
  static obs::Counter& calls =
      obs::Registry::Get().counter("tabrep.nn.attention.calls");
  static obs::Histogram& duration_us =
      obs::Registry::Get().histogram("tabrep.nn.attention.us");
  calls.Increment();
  obs::ScopedTimer timer(duration_us);
  const int64_t t = x.value().rows();
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  CheckMask(mask, t, num_heads_);

  // Per-head dropout seeds are drawn sequentially up front so the
  // parallel region never touches the caller's rng; the stream each
  // head sees depends only on its index, not on thread count.
  const bool use_dropout = training() && dropout_ > 0.0f;
  std::vector<uint64_t> seeds;
  if (use_dropout) {
    seeds.resize(static_cast<size_t>(num_heads_));
    for (auto& s : seeds) s = rng.NextU64();
  }

  // Heads write disjoint slots; the Add chain and the probs average
  // are reduced in head order afterwards. Capture reads the same
  // pre-dropout probabilities the masked path exposes, so it adds no
  // computation to the graph and leaves outputs bitwise-identical.
  const bool capture = obs::AttentionCaptureActive();
  const bool keep_probs = attn_probs_out != nullptr || capture;
  std::vector<ag::Variable> head_outs(static_cast<size_t>(num_heads_));
  std::vector<Tensor> head_probs(keep_probs ? static_cast<size_t>(num_heads_)
                                            : 0);
  runtime::ParallelFor(0, num_heads_, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t h = lo; h < hi; ++h) {
      ag::Variable q = q_[static_cast<size_t>(h)]->Forward(x);
      ag::Variable k = k_[static_cast<size_t>(h)]->Forward(x);
      ag::Variable v = v_[static_cast<size_t>(h)]->Forward(x);
      const kernels::MaskView head_mask =
          mask != nullptr ? mask->view(h) : kernels::MaskView{};
      ag::Variable ctx;
      if (!use_dropout) {
        // Fused path: score + softmax + context in one pass over the
        // keys the mask leaves visible (kernels::MaskedAttention).
        // Capturing probabilities does not change the arithmetic, so
        // capture on/off stays bitwise-identical.
        Tensor probs_t;
        ctx = ag::FusedAttention(q, k, v, head_mask, scale,
                                 keep_probs ? &probs_t : nullptr);
        if (keep_probs) head_probs[static_cast<size_t>(h)] = probs_t;
      } else {
        // Dropout needs the materialized probability matrix to mask,
        // and so the dense bias.
        ag::Variable scores =
            ag::MulScalar(ag::MatMulTransposedB(q, k), scale);
        if (head_mask.rule != kernels::MaskRule::kNone) {
          scores =
              ag::Add(scores, ag::Variable::Constant(mask->Materialize(h)));
        }
        ag::Variable probs = ag::Softmax(scores);
        if (keep_probs) head_probs[static_cast<size_t>(h)] = probs.value();
        Rng head_rng(seeds[static_cast<size_t>(h)]);
        probs = ag::Dropout(probs, dropout_, head_rng);
        ctx = ag::MatMul(probs, v);
      }
      head_outs[static_cast<size_t>(h)] =
          out_[static_cast<size_t>(h)]->Forward(ctx);
    }
  });

  ag::Variable acc = head_outs[0];
  for (int64_t h = 1; h < num_heads_; ++h) {
    acc = ag::Add(acc, head_outs[static_cast<size_t>(h)]);
  }
  if (capture) {
    // Published from the calling thread after the head loop, so record
    // order follows call order regardless of the worker pool.
    std::vector<obs::AttentionMatrix> heads;
    heads.reserve(head_probs.size());
    for (const Tensor& p : head_probs) {
      obs::AttentionMatrix m;
      m.rows = p.rows();
      m.cols = p.cols();
      m.weights.assign(p.data(), p.data() + p.numel());
      heads.push_back(std::move(m));
    }
    obs::RecordAttention(t, std::move(heads));
  }
  if (attn_probs_out) {
    Tensor probs_acc = Tensor::Zeros({t, t});
    for (const Tensor& p : head_probs) probs_acc.Add(p);
    probs_acc.Scale(1.0f / static_cast<float>(num_heads_));
    *attn_probs_out = probs_acc;
  }
  return ag::AddRowBroadcast(acc, *out_bias_);
}

Tensor MultiHeadSelfAttention::ForwardInference(const Tensor& x,
                                                const AttentionMask* mask,
                                                Tensor* attn_probs_out,
                                                kernels::Precision precision) {
  TABREP_TRACE_SPAN("nn.attention");
  static obs::Counter& calls =
      obs::Registry::Get().counter("tabrep.nn.attention.calls");
  static obs::Histogram& duration_us =
      obs::Registry::Get().histogram("tabrep.nn.attention.us");
  calls.Increment();
  obs::ScopedTimer timer(duration_us);
  TABREP_CHECK(!(training() && dropout_ > 0.0f))
      << "ForwardInference cannot apply dropout; call SetTraining(false)";
  const int64_t t = x.rows();
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  CheckMask(mask, t, num_heads_);

  // Same shape as the graph path's dropout-off branch: heads fill
  // disjoint slots under the same ParallelFor, the reduction runs in
  // head order, and capture publishes from the calling thread.
  const bool capture = obs::AttentionCaptureActive();
  const bool keep_probs = attn_probs_out != nullptr || capture;
  std::vector<Tensor> head_outs(static_cast<size_t>(num_heads_));
  std::vector<Tensor> head_probs(keep_probs ? static_cast<size_t>(num_heads_)
                                            : 0);
  runtime::ParallelFor(0, num_heads_, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t h = lo; h < hi; ++h) {
      Tensor q = q_[static_cast<size_t>(h)]->ForwardInference(x, precision);
      Tensor k = k_[static_cast<size_t>(h)]->ForwardInference(x, precision);
      Tensor v = v_[static_cast<size_t>(h)]->ForwardInference(x, precision);
      const kernels::MaskView head_mask =
          mask != nullptr ? mask->view(h) : kernels::MaskView{};
      Tensor probs_t;
      Tensor ctx = ops::ScaledDotAttention(q, k, v, head_mask, scale,
                                           keep_probs ? &probs_t : nullptr);
      if (keep_probs) head_probs[static_cast<size_t>(h)] = probs_t;
      head_outs[static_cast<size_t>(h)] =
          out_[static_cast<size_t>(h)]->ForwardInference(ctx, precision);
    }
  });

  Tensor acc = head_outs[0];
  for (int64_t h = 1; h < num_heads_; ++h) {
    acc = ops::Add(acc, head_outs[static_cast<size_t>(h)]);
  }
  if (capture) {
    std::vector<obs::AttentionMatrix> heads;
    heads.reserve(head_probs.size());
    for (const Tensor& p : head_probs) {
      obs::AttentionMatrix m;
      m.rows = p.rows();
      m.cols = p.cols();
      m.weights.assign(p.data(), p.data() + p.numel());
      heads.push_back(std::move(m));
    }
    obs::RecordAttention(t, std::move(heads));
  }
  if (attn_probs_out) {
    Tensor probs_acc = Tensor::Zeros({t, t});
    for (const Tensor& p : head_probs) probs_acc.Add(p);
    probs_acc.Scale(1.0f / static_cast<float>(num_heads_));
    *attn_probs_out = probs_acc;
  }
  return ops::AddRowBroadcast(acc, out_bias_->value());
}

}  // namespace tabrep::nn
