#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/kernels.h"

namespace tabrep::ops {

// Outputs that a kernel or loop writes in full start uninitialized
// (Tensor::Uninitialized); only accumulating outputs are zero-filled.

namespace {

void CheckSameShape(const Tensor& a, const Tensor& b, const char* op) {
  TABREP_CHECK(a.SameShape(b)) << op << ": shape mismatch "
                               << ShapeToString(a.shape()) << " vs "
                               << ShapeToString(b.shape());
}

template <typename F>
Tensor Unary(const Tensor& a, F f) {
  Tensor out = a.Clone();
  float* p = out.data();
  const int64_t n = out.numel();
  for (int64_t i = 0; i < n; ++i) p[i] = f(p[i]);
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Add");
  Tensor out = a.Clone();
  out.Add(b);
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Sub");
  Tensor out = a.Clone();
  out.Add(b, -1.0f);
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Mul");
  Tensor out = Tensor::Uninitialized(a.shape());
  kernels::Mul(out.data(), a.data(), b.data(), a.numel());
  return out;
}

Tensor AddScalar(const Tensor& a, float s) {
  return Unary(a, [s](float x) { return x + s; });
}

Tensor MulScalar(const Tensor& a, float s) {
  return Unary(a, [s](float x) { return x * s; });
}

Tensor AddRowBroadcast(const Tensor& a, const Tensor& b) {
  TABREP_CHECK(b.dim() == 1) << "AddRowBroadcast: bias must be 1-D";
  const int64_t n = b.numel();
  TABREP_CHECK(a.numel() % n == 0 && a.size(-1) == n)
      << "AddRowBroadcast: " << ShapeToString(a.shape()) << " vs "
      << ShapeToString(b.shape());
  Tensor out = a.Clone();
  float* p = out.data();
  const float* q = b.data();
  const int64_t rows = a.numel() / n;
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < n; ++c) p[r * n + c] += q[c];
  }
  return out;
}

Tensor Tanh(const Tensor& a) {
  Tensor out = Tensor::Uninitialized(a.shape());
  kernels::Tanh(out.data(), a.data(), a.numel());
  return out;
}

Tensor Relu(const Tensor& a) {
  return Unary(a, [](float x) { return x > 0 ? x : 0.0f; });
}

Tensor Gelu(const Tensor& a) {
  Tensor out = Tensor::Uninitialized(a.shape());
  kernels::Gelu(out.data(), a.data(), a.numel());
  return out;
}

Tensor Exp(const Tensor& a) {
  return Unary(a, [](float x) { return std::exp(x); });
}

Tensor Sigmoid(const Tensor& a) {
  return Unary(a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  TABREP_CHECK(a.dim() == 2 && b.dim() == 2 && a.cols() == b.rows())
      << "MatMul: " << ShapeToString(a.shape()) << " x "
      << ShapeToString(b.shape());
  TABREP_TRACE_SPAN("ops.matmul");
  static obs::Counter& calls =
      obs::Registry::Get().counter("tabrep.ops.matmul.calls");
  static obs::Histogram& duration_us =
      obs::Registry::Get().histogram("tabrep.ops.matmul.us");
  calls.Increment();
  obs::ScopedTimer timer(duration_us);
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  Tensor out = Tensor::Uninitialized({m, n});
  kernels::MatMul(a.data(), b.data(), out.data(), m, k, n);
  return out;
}

Tensor MatMulTransposedB(const Tensor& a, const Tensor& b) {
  TABREP_CHECK(a.dim() == 2 && b.dim() == 2 && a.cols() == b.cols())
      << "MatMulTransposedB: " << ShapeToString(a.shape()) << " x "
      << ShapeToString(b.shape()) << "^T";
  TABREP_TRACE_SPAN("ops.matmul_tb");
  static obs::Counter& calls =
      obs::Registry::Get().counter("tabrep.ops.matmul_tb.calls");
  static obs::Histogram& duration_us =
      obs::Registry::Get().histogram("tabrep.ops.matmul_tb.us");
  calls.Increment();
  obs::ScopedTimer timer(duration_us);
  const int64_t m = a.rows(), k = a.cols(), n = b.rows();
  Tensor out = Tensor::Uninitialized({m, n});
  kernels::MatMulTransposedB(a.data(), b.data(), out.data(), m, k, n);
  return out;
}

Tensor MatMulTransposedA(const Tensor& a, const Tensor& b) {
  TABREP_CHECK(a.dim() == 2 && b.dim() == 2 && a.rows() == b.rows())
      << "MatMulTransposedA: " << ShapeToString(a.shape()) << "^T x "
      << ShapeToString(b.shape());
  TABREP_TRACE_SPAN("ops.matmul_ta");
  static obs::Counter& calls =
      obs::Registry::Get().counter("tabrep.ops.matmul_ta.calls");
  static obs::Histogram& duration_us =
      obs::Registry::Get().histogram("tabrep.ops.matmul_ta.us");
  calls.Increment();
  obs::ScopedTimer timer(duration_us);
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  Tensor out = Tensor::Uninitialized({k, n});
  kernels::MatMulTransposedA(a.data(), b.data(), out.data(), m, k, n);
  return out;
}

Tensor Transpose(const Tensor& a) {
  TABREP_CHECK(a.dim() == 2);
  const int64_t m = a.rows(), n = a.cols();
  Tensor out = Tensor::Uninitialized({n, m});
  kernels::Transpose(a.data(), out.data(), m, n);
  return out;
}

namespace {

/// Shape checks, span and counters shared by the dense-bias and masked
/// attention entry points; `kernel(out, probs)` runs the kernel.
template <typename Kernel>
Tensor AttentionOp(const Tensor& q, const Tensor& k, const Tensor& v,
                   Tensor* probs_out, Kernel&& kernel) {
  TABREP_CHECK(q.dim() == 2 && k.dim() == 2 && v.dim() == 2)
      << "ScaledDotAttention: 2-D q/k/v required";
  TABREP_CHECK(q.cols() == k.cols())
      << "ScaledDotAttention: " << ShapeToString(q.shape()) << " x "
      << ShapeToString(k.shape()) << "^T";
  TABREP_CHECK(k.rows() == v.rows())
      << "ScaledDotAttention: " << ShapeToString(k.shape()) << " vs "
      << ShapeToString(v.shape());
  TABREP_TRACE_SPAN("ops.fused_attention");
  static obs::Counter& calls =
      obs::Registry::Get().counter("tabrep.ops.fused_attention.calls");
  static obs::Histogram& duration_us =
      obs::Registry::Get().histogram("tabrep.ops.fused_attention.us");
  calls.Increment();
  obs::ScopedTimer timer(duration_us);
  Tensor out = Tensor::Uninitialized({q.rows(), v.cols()});
  float* probs = nullptr;
  if (probs_out != nullptr) {
    *probs_out = Tensor::Uninitialized({q.rows(), k.rows()});
    probs = probs_out->data();
  }
  kernel(out.data(), probs);
  return out;
}

}  // namespace

Tensor ScaledDotAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                          const Tensor* bias, float scale, Tensor* probs_out) {
  const int64_t tq = q.rows(), dk = q.cols(), tk = k.rows(), dv = v.cols();
  if (bias != nullptr) {
    TABREP_CHECK(bias->dim() == 2 && bias->rows() == tq && bias->cols() == tk)
        << "ScaledDotAttention: bias " << ShapeToString(bias->shape());
  }
  return AttentionOp(q, k, v, probs_out, [&](float* out, float* probs) {
    kernels::FusedAttention(q.data(), k.data(), v.data(),
                            bias != nullptr ? bias->data() : nullptr, scale,
                            tq, tk, dk, dv, out, probs);
  });
}

Tensor ScaledDotAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                          const kernels::MaskView& mask, float scale,
                          Tensor* probs_out) {
  TABREP_CHECK(q.rows() == k.rows())
      << "ScaledDotAttention: a mask needs self-attention, got "
      << q.rows() << " queries over " << k.rows() << " keys";
  return AttentionOp(q, k, v, probs_out, [&](float* out, float* probs) {
    kernels::MaskedAttention(q.data(), k.data(), v.data(), mask, scale,
                             q.rows(), q.cols(), v.cols(), out, probs);
  });
}

Tensor Softmax(const Tensor& a) {
  TABREP_CHECK(a.dim() >= 1);
  TABREP_TRACE_SPAN("ops.softmax");
  static obs::Counter& calls =
      obs::Registry::Get().counter("tabrep.ops.softmax.calls");
  static obs::Histogram& duration_us =
      obs::Registry::Get().histogram("tabrep.ops.softmax.us");
  calls.Increment();
  obs::ScopedTimer timer(duration_us);
  const int64_t n = a.size(-1);
  const int64_t rows = a.numel() / n;
  Tensor out = a.Clone();
  kernels::SoftmaxRows(out.data(), rows, n);
  return out;
}

Tensor LogSoftmax(const Tensor& a) {
  TABREP_CHECK(a.dim() >= 1);
  const int64_t n = a.size(-1);
  const int64_t rows = a.numel() / n;
  Tensor out = a.Clone();
  kernels::LogSoftmaxRows(out.data(), rows, n);
  return out;
}

Tensor MeanAll(const Tensor& a) {
  Tensor s = SumAll(a);
  s.Scale(a.numel() > 0 ? 1.0f / static_cast<float>(a.numel()) : 0.0f);
  return s;
}

Tensor SumAll(const Tensor& a) {
  double acc = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) acc += a[i];
  Tensor out = Tensor::Uninitialized({1});
  out[0] = static_cast<float>(acc);
  return out;
}

Tensor SumRows(const Tensor& a) {
  TABREP_CHECK(a.dim() == 2);
  const int64_t n = a.cols();
  Tensor out({n});
  for (int64_t i = 0; i < a.rows(); ++i) {
    kernels::Axpy(out.data(), a.data() + i * n, 1.0f, n);
  }
  return out;
}

Tensor MeanRows(const Tensor& a) {
  Tensor out = SumRows(a);
  if (a.rows() > 0) out.Scale(1.0f / static_cast<float>(a.rows()));
  return out;
}

Tensor LayerNorm(const Tensor& a, const Tensor& gamma, const Tensor& beta,
                 float eps) {
  const int64_t n = a.size(-1);
  TABREP_CHECK(gamma.numel() == n && beta.numel() == n)
      << "LayerNorm: feature dim " << n;
  const int64_t rows = a.numel() / n;
  Tensor out = a.Clone();
  kernels::LayerNormRows(out.data(), gamma.data(), beta.data(), rows, n, eps);
  return out;
}

Tensor EmbeddingLookup(const Tensor& table, const std::vector<int32_t>& ids) {
  return EmbeddingLookup(table, ids.data(),
                         static_cast<int64_t>(ids.size()));
}

Tensor EmbeddingLookup(const Tensor& table, const int32_t* ids, int64_t n) {
  TABREP_CHECK(table.dim() == 2);
  const int64_t d = table.cols();
  Tensor out = Tensor::Uninitialized({n, d});
  for (int64_t i = 0; i < n; ++i) {
    TABREP_CHECK(ids[i] >= 0 && ids[i] < table.rows())
        << "EmbeddingLookup: id " << ids[i] << " out of [0, " << table.rows()
        << ")";
    const float* src = table.data() + static_cast<int64_t>(ids[i]) * d;
    float* dst = out.data() + i * d;
    std::copy(src, src + d, dst);
  }
  return out;
}

Tensor SliceRows(const Tensor& a, int64_t begin, int64_t end) {
  TABREP_CHECK(a.dim() == 2 && begin >= 0 && begin <= end && end <= a.rows());
  Tensor out = Tensor::Uninitialized({end - begin, a.cols()});
  std::copy(a.data() + begin * a.cols(), a.data() + end * a.cols(), out.data());
  return out;
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  TABREP_CHECK(!parts.empty());
  const int64_t cols = parts[0].cols();
  int64_t rows = 0;
  for (const Tensor& t : parts) {
    TABREP_CHECK(t.dim() == 2 && t.cols() == cols);
    rows += t.rows();
  }
  Tensor out = Tensor::Uninitialized({rows, cols});
  float* dst = out.data();
  for (const Tensor& t : parts) {
    std::copy(t.data(), t.data() + t.numel(), dst);
    dst += t.numel();
  }
  return out;
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  TABREP_CHECK(!parts.empty());
  const int64_t rows = parts[0].rows();
  int64_t cols = 0;
  for (const Tensor& t : parts) {
    TABREP_CHECK(t.dim() == 2 && t.rows() == rows);
    cols += t.cols();
  }
  Tensor out = Tensor::Uninitialized({rows, cols});
  int64_t offset = 0;
  for (const Tensor& t : parts) {
    for (int64_t i = 0; i < rows; ++i) {
      std::copy(t.data() + i * t.cols(), t.data() + (i + 1) * t.cols(),
                out.data() + i * cols + offset);
    }
    offset += t.cols();
  }
  return out;
}

Tensor CrossEntropy(const Tensor& logits, const std::vector<int32_t>& targets,
                    int32_t ignore_index, int64_t* correct_out,
                    int64_t* counted_out) {
  TABREP_CHECK(logits.dim() == 2 &&
               logits.rows() == static_cast<int64_t>(targets.size()));
  const Tensor logp = LogSoftmax(logits);
  double loss = 0.0;
  int64_t counted = 0;
  int64_t correct = 0;
  const int64_t c = logits.cols();
  for (int64_t i = 0; i < logits.rows(); ++i) {
    const int32_t t = targets[static_cast<size_t>(i)];
    if (t == ignore_index) continue;
    TABREP_CHECK(t >= 0 && t < c) << "CrossEntropy: target " << t;
    loss -= logp.at(i, t);
    ++counted;
    const float* row = logits.data() + i * c;
    int64_t best = 0;
    for (int64_t j = 1; j < c; ++j) {
      if (row[j] > row[best]) best = j;
    }
    if (best == t) ++correct;
  }
  Tensor out = Tensor::Uninitialized({1});
  out[0] = counted > 0 ? static_cast<float>(loss / counted) : 0.0f;
  if (correct_out) *correct_out = correct;
  if (counted_out) *counted_out = counted;
  return out;
}

std::vector<int32_t> ArgmaxRows(const Tensor& a) {
  TABREP_CHECK(a.dim() == 2);
  std::vector<int32_t> out(static_cast<size_t>(a.rows()));
  for (int64_t i = 0; i < a.rows(); ++i) {
    int64_t best = 0;
    for (int64_t j = 1; j < a.cols(); ++j) {
      if (a.at(i, j) > a.at(i, best)) best = j;
    }
    out[static_cast<size_t>(i)] = static_cast<int32_t>(best);
  }
  return out;
}

float Dot(const Tensor& a, const Tensor& b) {
  TABREP_CHECK(a.numel() == b.numel());
  double acc = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) acc += static_cast<double>(a[i]) * b[i];
  return static_cast<float>(acc);
}

float CosineSimilarity(const Tensor& a, const Tensor& b) {
  const float na = Norm(a), nb = Norm(b);
  if (na == 0.0f || nb == 0.0f) return 0.0f;
  return Dot(a, b) / (na * nb);
}

float Norm(const Tensor& a) {
  double acc = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) acc += static_cast<double>(a[i]) * a[i];
  return static_cast<float>(std::sqrt(acc));
}

}  // namespace tabrep::ops
