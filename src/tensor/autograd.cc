#include "tensor/autograd.h"

#include <cmath>
#include <unordered_set>

#include "tensor/ops.h"

namespace tabrep::ag {

using internal::VarImpl;

namespace {

thread_local GradTable* t_grad_redirect = nullptr;
thread_local bool t_no_grad = false;

/// The buffer gradient writes for `node` must target on this thread:
/// the active redirect table's slot, or the shared grad buffer.
Tensor& GradSlot(VarImpl* node) {
  if (t_grad_redirect) return t_grad_redirect->Slot(node);
  node->EnsureGrad();
  return node->grad;
}

}  // namespace

Tensor& GradTable::Slot(VarImpl* node) {
  auto it = slots_.find(node);
  if (it == slots_.end()) {
    it = slots_.emplace(node, Tensor::Zeros(node->value.shape())).first;
  }
  return it->second;
}

const Tensor* GradTable::Find(const VarImpl* node) const {
  auto it = slots_.find(node);
  return it == slots_.end() ? nullptr : &it->second;
}

void GradTable::Retain(std::shared_ptr<VarImpl> node) {
  retained_.push_back(std::move(node));
}

ScopedGradRedirect::ScopedGradRedirect(GradTable* table)
    : prev_(t_grad_redirect) {
  t_grad_redirect = table;
}

ScopedGradRedirect::~ScopedGradRedirect() { t_grad_redirect = prev_; }

NoGradScope::NoGradScope() : prev_(t_no_grad) { t_no_grad = true; }

NoGradScope::~NoGradScope() { t_no_grad = prev_; }

bool NoGradScope::Active() { return t_no_grad; }

void AccumulateGrads(const GradTable& table,
                     const std::vector<Variable*>& params) {
  for (Variable* p : params) {
    const Tensor* g = table.Find(p->impl().get());
    if (!g) continue;
    p->impl()->EnsureGrad();
    p->impl()->grad.Add(*g);
  }
}

Variable Variable::Constant(Tensor value) {
  Variable v;
  v.impl_->value = std::move(value);
  v.impl_->requires_grad = false;
  return v;
}

Variable Variable::Param(Tensor value) {
  Variable v;
  v.impl_->value = std::move(value);
  v.impl_->requires_grad = true;
  return v;
}

const Tensor& Variable::grad() const {
  impl_->EnsureGrad();
  return impl_->grad;
}

void Variable::ZeroGrad() {
  if (impl_->grad_allocated) impl_->grad.Fill(0.0f);
}

Variable MakeOp(Tensor value, std::vector<Variable> parents,
                std::function<void(const Tensor&)> backward_fn) {
  auto impl = std::make_shared<VarImpl>();
  impl->value = std::move(value);
  if (t_no_grad) {
    // Inference: the node is a leaf constant — no parent edges, no
    // backward closure, nothing retains the upstream graph.
    return Variable(std::move(impl));
  }
  bool needs = false;
  for (const Variable& p : parents) needs = needs || p.requires_grad();
  impl->requires_grad = needs;
  if (needs) {
    impl->parents.reserve(parents.size());
    for (const Variable& p : parents) impl->parents.push_back(p.impl());
    impl->backward_fn = std::move(backward_fn);
  }
  return Variable(std::move(impl));
}

void Backward(const Variable& root) {
  // Iterative post-order DFS to get a reverse-topological order.
  std::vector<VarImpl*> order;
  std::unordered_set<VarImpl*> visited;
  std::vector<std::pair<VarImpl*, size_t>> stack;
  stack.emplace_back(root.impl().get(), 0);
  visited.insert(root.impl().get());
  // A redirect table outlives this graph, and its slots are keyed by
  // node address: pin every visited node so a later graph cannot reuse
  // an address and inherit a stale slot.
  if (t_grad_redirect) t_grad_redirect->Retain(root.impl());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      const std::shared_ptr<VarImpl>& child_sp = node->parents[next_child++];
      VarImpl* child = child_sp.get();
      if (child->requires_grad && !visited.count(child)) {
        visited.insert(child);
        if (t_grad_redirect) t_grad_redirect->Retain(child_sp);
        stack.emplace_back(child, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  // Seed with ones and propagate in reverse topological order. All
  // grad reads/writes go through GradSlot so an active redirect keeps
  // the whole pass inside its private table.
  GradSlot(root.impl().get()).Add(Tensor::Ones(root.value().shape()));
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    VarImpl* node = *it;
    if (node->backward_fn) {
      node->backward_fn(GradSlot(node));
    }
  }
}

namespace {

/// Accumulates `delta` into p's gradient if p is differentiable.
void Accum(const std::shared_ptr<VarImpl>& p, const Tensor& delta,
           float scale = 1.0f) {
  if (!p->requires_grad) return;
  GradSlot(p.get()).Add(delta, scale);
}

}  // namespace

Variable Add(const Variable& a, const Variable& b) {
  auto pa = a.impl();
  auto pb = b.impl();
  return MakeOp(ops::Add(a.value(), b.value()), {a, b},
                [pa, pb](const Tensor& g) {
                  Accum(pa, g);
                  Accum(pb, g);
                });
}

Variable Sub(const Variable& a, const Variable& b) {
  auto pa = a.impl();
  auto pb = b.impl();
  return MakeOp(ops::Sub(a.value(), b.value()), {a, b},
                [pa, pb](const Tensor& g) {
                  Accum(pa, g);
                  Accum(pb, g, -1.0f);
                });
}

Variable Mul(const Variable& a, const Variable& b) {
  auto pa = a.impl();
  auto pb = b.impl();
  return MakeOp(ops::Mul(a.value(), b.value()), {a, b},
                [pa, pb](const Tensor& g) {
                  Accum(pa, ops::Mul(g, pb->value));
                  Accum(pb, ops::Mul(g, pa->value));
                });
}

Variable AddScalar(const Variable& a, float s) {
  auto pa = a.impl();
  return MakeOp(ops::AddScalar(a.value(), s), {a},
                [pa](const Tensor& g) { Accum(pa, g); });
}

Variable MulScalar(const Variable& a, float s) {
  auto pa = a.impl();
  return MakeOp(ops::MulScalar(a.value(), s), {a},
                [pa, s](const Tensor& g) { Accum(pa, g, s); });
}

Variable AddRowBroadcast(const Variable& a, const Variable& b) {
  auto pa = a.impl();
  auto pb = b.impl();
  return MakeOp(ops::AddRowBroadcast(a.value(), b.value()), {a, b},
                [pa, pb](const Tensor& g) {
                  Accum(pa, g);
                  if (pb->requires_grad) {
                    const int64_t n = pb->value.numel();
                    const int64_t rows = g.numel() / n;
                    Tensor gb({n});
                    for (int64_t r = 0; r < rows; ++r) {
                      for (int64_t c = 0; c < n; ++c) gb[c] += g[r * n + c];
                    }
                    Accum(pb, gb);
                  }
                });
}

Variable Tanh(const Variable& a) {
  Tensor y = ops::Tanh(a.value());
  auto pa = a.impl();
  return MakeOp(y, {a}, [pa, y](const Tensor& g) {
    if (!pa->requires_grad) return;
    Tensor d = g.Clone();
    for (int64_t i = 0; i < d.numel(); ++i) d[i] *= 1.0f - y[i] * y[i];
    Accum(pa, d);
  });
}

Variable Relu(const Variable& a) {
  auto pa = a.impl();
  return MakeOp(ops::Relu(a.value()), {a}, [pa](const Tensor& g) {
    if (!pa->requires_grad) return;
    Tensor d = g.Clone();
    for (int64_t i = 0; i < d.numel(); ++i) {
      if (pa->value[i] <= 0.0f) d[i] = 0.0f;
    }
    Accum(pa, d);
  });
}

Variable Gelu(const Variable& a) {
  auto pa = a.impl();
  return MakeOp(ops::Gelu(a.value()), {a}, [pa](const Tensor& g) {
    if (!pa->requires_grad) return;
    constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
    Tensor d = g.Clone();
    for (int64_t i = 0; i < d.numel(); ++i) {
      const float x = pa->value[i];
      const float u = kC * (x + 0.044715f * x * x * x);
      const float t = std::tanh(u);
      const float du = kC * (1.0f + 3.0f * 0.044715f * x * x);
      d[i] *= 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * du;
    }
    Accum(pa, d);
  });
}

Variable Sigmoid(const Variable& a) {
  Tensor y = ops::Sigmoid(a.value());
  auto pa = a.impl();
  return MakeOp(y, {a}, [pa, y](const Tensor& g) {
    if (!pa->requires_grad) return;
    Tensor d = g.Clone();
    for (int64_t i = 0; i < d.numel(); ++i) d[i] *= y[i] * (1.0f - y[i]);
    Accum(pa, d);
  });
}

Variable MatMul(const Variable& a, const Variable& b) {
  auto pa = a.impl();
  auto pb = b.impl();
  return MakeOp(ops::MatMul(a.value(), b.value()), {a, b},
                [pa, pb](const Tensor& g) {
                  // dA = g B^T ; dB = A^T g
                  if (pa->requires_grad) {
                    Accum(pa, ops::MatMulTransposedB(g, pb->value));
                  }
                  if (pb->requires_grad) {
                    Accum(pb, ops::MatMul(ops::Transpose(pa->value), g));
                  }
                });
}

Variable MatMulTransposedB(const Variable& a, const Variable& b) {
  auto pa = a.impl();
  auto pb = b.impl();
  return MakeOp(ops::MatMulTransposedB(a.value(), b.value()), {a, b},
                [pa, pb](const Tensor& g) {
                  // C = A B^T: dA = g B ; dB = g^T A
                  if (pa->requires_grad) {
                    Accum(pa, ops::MatMul(g, pb->value));
                  }
                  if (pb->requires_grad) {
                    Accum(pb, ops::MatMul(ops::Transpose(g), pa->value));
                  }
                });
}

Variable FusedAttention(const Variable& q, const Variable& k,
                        const Variable& v, const kernels::MaskView& mask,
                        float scale, Tensor* probs_out) {
  auto pq = q.impl();
  auto pk = k.impl();
  auto pv = v.impl();
  // Under no-grad the backward pass never runs, so the probabilities
  // are only materialized when the caller asked for them (capture).
  // ops::ScaledDotAttention computes the same values either way.
  const bool keep_probs = probs_out != nullptr || !NoGradScope::Active();
  Tensor probs;
  Tensor y = ops::ScaledDotAttention(q.value(), k.value(), v.value(), mask,
                                     scale, keep_probs ? &probs : nullptr);
  if (probs_out != nullptr) *probs_out = probs;
  return MakeOp(y, {q, k, v}, [pq, pk, pv, probs, scale](const Tensor& g) {
    // P = softmax(scale Q K^T + bias), out = P V.
    // dV = P^T g ; dP = g V^T ; dS = P*(dP - rowsum(dP*P)) ;
    // dQ = scale dS K ; dK = scale dS^T Q.
    if (pv->requires_grad) {
      Accum(pv, ops::MatMul(ops::Transpose(probs), g));
    }
    if (!pq->requires_grad && !pk->requires_grad) return;
    const Tensor dp = ops::MatMulTransposedB(g, pv->value);
    const int64_t tq = probs.rows(), tk = probs.cols();
    Tensor ds({tq, tk});
    for (int64_t r = 0; r < tq; ++r) {
      const float* pr = probs.data() + r * tk;
      const float* dpr = dp.data() + r * tk;
      float dot = 0.0f;
      for (int64_t j = 0; j < tk; ++j) dot += pr[j] * dpr[j];
      float* dsr = ds.data() + r * tk;
      for (int64_t j = 0; j < tk; ++j) dsr[j] = pr[j] * (dpr[j] - dot);
    }
    if (pq->requires_grad) Accum(pq, ops::MatMul(ds, pk->value), scale);
    if (pk->requires_grad) {
      Accum(pk, ops::MatMul(ops::Transpose(ds), pq->value), scale);
    }
  });
}

Variable Transpose(const Variable& a) {
  auto pa = a.impl();
  return MakeOp(ops::Transpose(a.value()), {a}, [pa](const Tensor& g) {
    if (pa->requires_grad) Accum(pa, ops::Transpose(g));
  });
}

Variable Reshape(const Variable& a, std::vector<int64_t> shape) {
  auto pa = a.impl();
  // Reshape shares the buffer; clone so downstream in-place kernels
  // cannot corrupt the parent's value.
  Tensor y = a.value().Clone().Reshape(std::move(shape));
  std::vector<int64_t> orig = a.value().shape();
  return MakeOp(y, {a}, [pa, orig](const Tensor& g) {
    if (pa->requires_grad) Accum(pa, g.Clone().Reshape(orig));
  });
}

Variable Softmax(const Variable& a) {
  Tensor y = ops::Softmax(a.value());
  auto pa = a.impl();
  return MakeOp(y, {a}, [pa, y](const Tensor& g) {
    if (!pa->requires_grad) return;
    // dx = y * (g - sum(g*y)) rowwise over the last axis.
    const int64_t n = y.size(-1);
    const int64_t rows = y.numel() / n;
    Tensor d = Tensor::Zeros(y.shape());
    for (int64_t r = 0; r < rows; ++r) {
      const float* yr = y.data() + r * n;
      const float* gr = g.data() + r * n;
      float dot = 0.0f;
      for (int64_t i = 0; i < n; ++i) dot += yr[i] * gr[i];
      float* dr = d.data() + r * n;
      for (int64_t i = 0; i < n; ++i) dr[i] = yr[i] * (gr[i] - dot);
    }
    Accum(pa, d);
  });
}

Variable LayerNorm(const Variable& a, const Variable& gamma,
                   const Variable& beta, float eps) {
  auto pa = a.impl();
  auto pg = gamma.impl();
  auto pb = beta.impl();
  Tensor y = ops::LayerNorm(a.value(), gamma.value(), beta.value(), eps);
  return MakeOp(y, {a, gamma, beta}, [pa, pg, pb, eps](const Tensor& g) {
    const Tensor& x = pa->value;
    const int64_t n = x.size(-1);
    const int64_t rows = x.numel() / n;
    Tensor dx = Tensor::Zeros(x.shape());
    Tensor dgamma({n});
    Tensor dbeta({n});
    const float* gm = pg->value.data();
    for (int64_t r = 0; r < rows; ++r) {
      const float* xr = x.data() + r * n;
      const float* gr = g.data() + r * n;
      float mean = 0.0f;
      for (int64_t i = 0; i < n; ++i) mean += xr[i];
      mean /= static_cast<float>(n);
      float var = 0.0f;
      for (int64_t i = 0; i < n; ++i) {
        const float d = xr[i] - mean;
        var += d * d;
      }
      var /= static_cast<float>(n);
      const float inv = 1.0f / std::sqrt(var + eps);
      // xhat_i = (x_i - mean) * inv; y_i = gamma_i * xhat_i + beta_i.
      float sum_dxhat = 0.0f;
      float sum_dxhat_xhat = 0.0f;
      for (int64_t i = 0; i < n; ++i) {
        const float xhat = (xr[i] - mean) * inv;
        const float dxhat = gr[i] * gm[i];
        sum_dxhat += dxhat;
        sum_dxhat_xhat += dxhat * xhat;
        dgamma[i] += gr[i] * xhat;
        dbeta[i] += gr[i];
      }
      float* dxr = dx.data() + r * n;
      const float invn = 1.0f / static_cast<float>(n);
      for (int64_t i = 0; i < n; ++i) {
        const float xhat = (xr[i] - mean) * inv;
        const float dxhat = gr[i] * gm[i];
        dxr[i] =
            inv * (dxhat - invn * sum_dxhat - xhat * invn * sum_dxhat_xhat);
      }
    }
    Accum(pa, dx);
    Accum(pg, dgamma);
    Accum(pb, dbeta);
  });
}

Variable MeanAll(const Variable& a) {
  auto pa = a.impl();
  const float invn =
      a.numel() > 0 ? 1.0f / static_cast<float>(a.numel()) : 0.0f;
  return MakeOp(ops::MeanAll(a.value()), {a}, [pa, invn](const Tensor& g) {
    if (!pa->requires_grad) return;
    Tensor d = Tensor::Full(pa->value.shape(), g[0] * invn);
    Accum(pa, d);
  });
}

Variable SumAll(const Variable& a) {
  auto pa = a.impl();
  return MakeOp(ops::SumAll(a.value()), {a}, [pa](const Tensor& g) {
    if (!pa->requires_grad) return;
    Accum(pa, Tensor::Full(pa->value.shape(), g[0]));
  });
}

Variable MeanRows(const Variable& a) {
  auto pa = a.impl();
  return MakeOp(ops::MeanRows(a.value()), {a}, [pa](const Tensor& g) {
    if (!pa->requires_grad) return;
    const int64_t rows = pa->value.rows();
    const int64_t cols = pa->value.cols();
    const float inv = rows > 0 ? 1.0f / static_cast<float>(rows) : 0.0f;
    Tensor d({rows, cols});
    for (int64_t i = 0; i < rows; ++i) {
      for (int64_t j = 0; j < cols; ++j) d.at(i, j) = g[j] * inv;
    }
    Accum(pa, d);
  });
}

Variable L2NormalizeRows(const Variable& a, float eps) {
  TABREP_CHECK(a.value().dim() == 2) << "L2NormalizeRows: need 2-D input";
  const int64_t rows = a.value().rows();
  const int64_t cols = a.value().cols();
  Tensor y({rows, cols});
  std::vector<float> norms(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    double acc = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
      const float v = a.value().at(r, c);
      acc += static_cast<double>(v) * v;
    }
    const float norm = std::max(static_cast<float>(std::sqrt(acc)), eps);
    norms[static_cast<size_t>(r)] = norm;
    for (int64_t c = 0; c < cols; ++c) {
      y.at(r, c) = a.value().at(r, c) / norm;
    }
  }
  auto pa = a.impl();
  return MakeOp(y, {a}, [pa, y, norms = std::move(norms)](const Tensor& g) {
    if (!pa->requires_grad) return;
    // dx_i = (g_i - y_i * (g_i . y_i)) / ||x_i||.
    const int64_t rows = y.rows();
    const int64_t cols = y.cols();
    Tensor d({rows, cols});
    for (int64_t r = 0; r < rows; ++r) {
      float dot = 0.0f;
      for (int64_t c = 0; c < cols; ++c) dot += g.at(r, c) * y.at(r, c);
      const float inv = 1.0f / norms[static_cast<size_t>(r)];
      for (int64_t c = 0; c < cols; ++c) {
        d.at(r, c) = (g.at(r, c) - y.at(r, c) * dot) * inv;
      }
    }
    Accum(pa, d);
  });
}

Variable EmbeddingLookup(const Variable& table, std::vector<int32_t> ids) {
  auto pt = table.impl();
  Tensor y = ops::EmbeddingLookup(table.value(), ids);
  return MakeOp(y, {table}, [pt, ids = std::move(ids)](const Tensor& g) {
    if (!pt->requires_grad) return;
    Tensor& grad = GradSlot(pt.get());
    const int64_t d = pt->value.cols();
    for (size_t i = 0; i < ids.size(); ++i) {
      float* dst = grad.data() + static_cast<int64_t>(ids[i]) * d;
      const float* src = g.data() + static_cast<int64_t>(i) * d;
      for (int64_t j = 0; j < d; ++j) dst[j] += src[j];
    }
  });
}

Variable SliceRows(const Variable& a, int64_t begin, int64_t end) {
  auto pa = a.impl();
  return MakeOp(ops::SliceRows(a.value(), begin, end), {a},
                [pa, begin, end](const Tensor& g) {
                  if (!pa->requires_grad) return;
                  const int64_t cols = pa->value.cols();
                  float* dst = GradSlot(pa.get()).data() + begin * cols;
                  const float* src = g.data();
                  for (int64_t i = 0; i < (end - begin) * cols; ++i) {
                    dst[i] += src[i];
                  }
                });
}

Variable ConcatRows(const std::vector<Variable>& parts) {
  std::vector<Tensor> values;
  values.reserve(parts.size());
  std::vector<std::shared_ptr<VarImpl>> impls;
  impls.reserve(parts.size());
  for (const Variable& p : parts) {
    values.push_back(p.value());
    impls.push_back(p.impl());
  }
  return MakeOp(ops::ConcatRows(values), parts,
                [impls](const Tensor& g) {
                  int64_t row = 0;
                  for (const auto& p : impls) {
                    const int64_t r = p->value.rows();
                    const int64_t c = p->value.cols();
                    if (p->requires_grad) {
                      const float* src = g.data() + row * c;
                      float* dst = GradSlot(p.get()).data();
                      for (int64_t i = 0; i < r * c; ++i) dst[i] += src[i];
                    }
                    row += r;
                  }
                });
}

Variable Dropout(const Variable& a, float p, Rng& rng) {
  if (p <= 0.0f) return a;
  TABREP_CHECK(p < 1.0f) << "Dropout: p must be < 1";
  const float keep = 1.0f - p;
  const float scale = 1.0f / keep;
  Tensor mask(a.value().shape());
  for (int64_t i = 0; i < mask.numel(); ++i) {
    mask[i] = rng.NextBernoulli(keep) ? scale : 0.0f;
  }
  auto pa = a.impl();
  return MakeOp(ops::Mul(a.value(), mask), {a}, [pa, mask](const Tensor& g) {
    if (pa->requires_grad) Accum(pa, ops::Mul(g, mask));
  });
}

Variable CrossEntropy(const Variable& logits, std::vector<int32_t> targets,
                      int32_t ignore_index, int64_t* correct_out,
                      int64_t* counted_out) {
  auto pl = logits.impl();
  int64_t counted = 0;
  Tensor loss = ops::CrossEntropy(logits.value(), targets, ignore_index,
                                  correct_out, &counted);
  if (counted_out) *counted_out = counted;
  return MakeOp(
      loss, {logits},
      [pl, targets = std::move(targets), ignore_index,
       counted](const Tensor& g) {
        if (!pl->requires_grad || counted == 0) return;
        // d logits = (softmax - onehot) * g / counted on counted rows.
        Tensor probs = ops::Softmax(pl->value);
        const int64_t c = pl->value.cols();
        const float scale = g[0] / static_cast<float>(counted);
        Tensor d = Tensor::Zeros(pl->value.shape());
        for (int64_t i = 0; i < pl->value.rows(); ++i) {
          const int32_t t = targets[static_cast<size_t>(i)];
          if (t == ignore_index) continue;
          float* dr = d.data() + i * c;
          const float* pr = probs.data() + i * c;
          for (int64_t j = 0; j < c; ++j) dr[j] = pr[j] * scale;
          dr[t] -= scale;
        }
        Accum(pl, d);
      });
}

}  // namespace tabrep::ag
