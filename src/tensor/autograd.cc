#include "tensor/autograd.h"

#include <cmath>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace tabrep::ag {

using internal::VarImpl;

namespace {

thread_local GradTable* t_grad_redirect = nullptr;
thread_local bool t_no_grad = false;

/// The buffer gradient writes for `node` must target on this thread:
/// the active redirect table's slot, or the shared grad buffer. Zero-
/// filled on first use, for the writers that add into it in place.
Tensor& GradSlot(VarImpl* node) {
  if (t_grad_redirect) return t_grad_redirect->Slot(node);
  node->EnsureGrad();
  return node->grad;
}

/// Adds `scale * delta` into node's gradient on this thread. The first
/// write takes the delta itself: an `owned` delta (a fresh result no
/// other tensor shares) becomes the buffer when scale is 1, anything
/// else is copied scaled. The values equal zero-fill plus Axpy (up to
/// the sign of a zero).
void AccumGrad(VarImpl* node, const Tensor& delta, float scale, bool owned) {
  Tensor* slot = t_grad_redirect != nullptr ? t_grad_redirect->Find(node)
                 : node->grad_allocated     ? &node->grad
                                            : nullptr;
  if (slot != nullptr) {
    slot->Add(delta, scale);
    return;
  }
  TABREP_CHECK(delta.numel() == node->value.numel())
      << "gradient " << ShapeToString(delta.shape()) << " for a "
      << ShapeToString(node->value.shape()) << " value";
  Tensor first = owned && scale == 1.0f ? delta
                 : scale == 1.0f          ? delta.Clone()
                                          : ops::MulScalar(delta, scale);
  if (!first.SameShape(node->value)) first = first.Reshape(node->value.shape());
  if (t_grad_redirect != nullptr) {
    t_grad_redirect->Insert(node, std::move(first));
  } else {
    node->grad = std::move(first);
    node->grad_allocated = true;
  }
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

Tensor* GradTable::Find(const VarImpl* node) {
  auto it = slots_.find(node);
  return it == slots_.end() ? nullptr : &it->second;
}

void GradTable::Insert(VarImpl* node, Tensor grad) {
  const bool inserted = slots_.emplace(node, std::move(grad)).second;
  TABREP_CHECK(inserted) << "GradTable::Insert: node already has a slot";
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
  TABREP_TRACE_SPAN("ag.backward");
  static obs::Histogram& duration_us =
      obs::Registry::Get().histogram("tabrep.ag.backward.us");
  obs::ScopedTimer timer(duration_us);
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
  // grad reads/writes go through GradSlot / AccumGrad so an active
  // redirect keeps the whole pass inside its private table.
  AccumGrad(root.impl().get(), Tensor::Ones(root.value().shape()), 1.0f,
            /*owned=*/true);
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
  AccumGrad(p.get(), delta, scale, /*owned=*/false);
}

/// Accum for a fresh result nothing else references (an ops:: output
/// or a local buffer): a first write adopts it without a copy.
void AccumOwned(const std::shared_ptr<VarImpl>& p, Tensor delta,
                float scale = 1.0f) {
  if (!p->requires_grad) return;
  AccumGrad(p.get(), delta, scale, /*owned=*/true);
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
                  if (pa->requires_grad) {
                    AccumOwned(pa, ops::Mul(g, pb->value));
                  }
                  if (pb->requires_grad) {
                    AccumOwned(pb, ops::Mul(g, pa->value));
                  }
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
                    AccumOwned(pb, ops::SumRows(g.Reshape({g.numel() / n, n})));
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
    AccumOwned(pa, d);
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
    AccumOwned(pa, d);
  });
}

Variable Gelu(const Variable& a) {
  auto pa = a.impl();
  return MakeOp(ops::Gelu(a.value()), {a}, [pa](const Tensor& g) {
    if (!pa->requires_grad) return;
    Tensor d = Tensor::Uninitialized(g.shape());
    kernels::GeluBackward(d.data(), g.data(), pa->value.data(), d.numel());
    AccumOwned(pa, d);
  });
}

Variable Sigmoid(const Variable& a) {
  Tensor y = ops::Sigmoid(a.value());
  auto pa = a.impl();
  return MakeOp(y, {a}, [pa, y](const Tensor& g) {
    if (!pa->requires_grad) return;
    Tensor d = g.Clone();
    for (int64_t i = 0; i < d.numel(); ++i) d[i] *= y[i] * (1.0f - y[i]);
    AccumOwned(pa, d);
  });
}

Variable MatMul(const Variable& a, const Variable& b) {
  auto pa = a.impl();
  auto pb = b.impl();
  return MakeOp(ops::MatMul(a.value(), b.value()), {a, b},
                [pa, pb](const Tensor& g) {
                  // dA = g B^T ; dB = A^T g
                  if (pa->requires_grad) {
                    AccumOwned(pa, ops::MatMulTransposedB(g, pb->value));
                  }
                  if (pb->requires_grad) {
                    AccumOwned(pb, ops::MatMulTransposedA(pa->value, g));
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
                    AccumOwned(pa, ops::MatMul(g, pb->value));
                  }
                  if (pb->requires_grad) {
                    AccumOwned(pb, ops::MatMulTransposedA(g, pa->value));
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
    if (pv->requires_grad) AccumOwned(pv, ops::MatMulTransposedA(probs, g));
    if (!pq->requires_grad && !pk->requires_grad) return;
    // dS overwrites dP row by row.
    Tensor ds = ops::MatMulTransposedB(g, pv->value);
    const int64_t tq = probs.rows(), tk = probs.cols();
    for (int64_t r = 0; r < tq; ++r) {
      const float* pr = probs.data() + r * tk;
      float* dsr = ds.data() + r * tk;
      float dot = 0.0f;
      for (int64_t j = 0; j < tk; ++j) dot += pr[j] * dsr[j];
      for (int64_t j = 0; j < tk; ++j) dsr[j] = pr[j] * (dsr[j] - dot);
    }
    if (pq->requires_grad) AccumOwned(pq, ops::MatMul(ds, pk->value), scale);
    if (pk->requires_grad) {
      AccumOwned(pk, ops::MatMulTransposedA(ds, pq->value), scale);
    }
  });
}

Variable Transpose(const Variable& a) {
  auto pa = a.impl();
  return MakeOp(ops::Transpose(a.value()), {a}, [pa](const Tensor& g) {
    if (pa->requires_grad) AccumOwned(pa, ops::Transpose(g));
  });
}

Variable Reshape(const Variable& a, std::vector<int64_t> shape) {
  auto pa = a.impl();
  // Reshape shares the buffer; clone so downstream in-place kernels
  // cannot corrupt the parent's value.
  Tensor y = a.value().Clone().Reshape(std::move(shape));
  std::vector<int64_t> orig = a.value().shape();
  return MakeOp(y, {a}, [pa, orig](const Tensor& g) {
    if (pa->requires_grad) Accum(pa, g.Reshape(orig));
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
    Tensor d = Tensor::Uninitialized(y.shape());
    for (int64_t r = 0; r < rows; ++r) {
      const float* yr = y.data() + r * n;
      const float* gr = g.data() + r * n;
      float dot = 0.0f;
      for (int64_t i = 0; i < n; ++i) dot += yr[i] * gr[i];
      float* dr = d.data() + r * n;
      for (int64_t i = 0; i < n; ++i) dr[i] = yr[i] * (gr[i] - dot);
    }
    AccumOwned(pa, d);
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
    Tensor dx = Tensor::Uninitialized(x.shape());
    Tensor dgamma({n});
    Tensor dbeta({n});
    kernels::LayerNormBackwardRows(x.data(), g.data(), pg->value.data(),
                                   x.numel() / n, n, eps, dx.data(),
                                   dgamma.data(), dbeta.data());
    AccumOwned(pa, dx);
    AccumOwned(pg, dgamma);
    AccumOwned(pb, dbeta);
  });
}

Variable MeanAll(const Variable& a) {
  auto pa = a.impl();
  const float invn =
      a.numel() > 0 ? 1.0f / static_cast<float>(a.numel()) : 0.0f;
  return MakeOp(ops::MeanAll(a.value()), {a}, [pa, invn](const Tensor& g) {
    if (!pa->requires_grad) return;
    AccumOwned(pa, Tensor::Full(pa->value.shape(), g[0] * invn));
  });
}

Variable SumAll(const Variable& a) {
  auto pa = a.impl();
  return MakeOp(ops::SumAll(a.value()), {a}, [pa](const Tensor& g) {
    if (!pa->requires_grad) return;
    AccumOwned(pa, Tensor::Full(pa->value.shape(), g[0]));
  });
}

Variable MeanRows(const Variable& a) {
  auto pa = a.impl();
  return MakeOp(ops::MeanRows(a.value()), {a}, [pa](const Tensor& g) {
    if (!pa->requires_grad) return;
    const int64_t rows = pa->value.rows();
    const int64_t cols = pa->value.cols();
    const float inv = rows > 0 ? 1.0f / static_cast<float>(rows) : 0.0f;
    Tensor d = Tensor::Uninitialized({rows, cols});
    for (int64_t i = 0; i < rows; ++i) {
      for (int64_t j = 0; j < cols; ++j) d.at(i, j) = g[j] * inv;
    }
    AccumOwned(pa, d);
  });
}

Variable L2NormalizeRows(const Variable& a, float eps) {
  TABREP_CHECK(a.value().dim() == 2) << "L2NormalizeRows: need 2-D input";
  const int64_t rows = a.value().rows();
  const int64_t cols = a.value().cols();
  Tensor y = Tensor::Uninitialized({rows, cols});
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
    Tensor d = Tensor::Uninitialized({rows, cols});
    for (int64_t r = 0; r < rows; ++r) {
      float dot = 0.0f;
      for (int64_t c = 0; c < cols; ++c) dot += g.at(r, c) * y.at(r, c);
      const float inv = 1.0f / norms[static_cast<size_t>(r)];
      for (int64_t c = 0; c < cols; ++c) {
        d.at(r, c) = (g.at(r, c) - y.at(r, c) * dot) * inv;
      }
    }
    AccumOwned(pa, d);
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
  Tensor mask = Tensor::Uninitialized(a.value().shape());
  for (int64_t i = 0; i < mask.numel(); ++i) {
    mask[i] = rng.NextBernoulli(keep) ? scale : 0.0f;
  }
  auto pa = a.impl();
  return MakeOp(ops::Mul(a.value(), mask), {a}, [pa, mask](const Tensor& g) {
    if (pa->requires_grad) AccumOwned(pa, ops::Mul(g, mask));
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
        Tensor d = Tensor::Zeros(pl->value.shape());  // ignored rows stay 0
        for (int64_t i = 0; i < pl->value.rows(); ++i) {
          const int32_t t = targets[static_cast<size_t>(i)];
          if (t == ignore_index) continue;
          float* dr = d.data() + i * c;
          const float* pr = probs.data() + i * c;
          for (int64_t j = 0; j < c; ++j) dr[j] = pr[j] * scale;
          dr[t] -= scale;
        }
        AccumOwned(pl, d);
      });
}

Variable TiedSoftmaxLoss(const Variable& h, const Variable& weight,
                         const Variable& bias, std::vector<int32_t> targets,
                         int64_t* correct_out) {
  TABREP_TRACE_SPAN("ag.tied_softmax_loss");
  const Tensor& hv = h.value();
  const Tensor& wv = weight.value();
  TABREP_CHECK(hv.dim() == 2 && wv.dim() == 2 && hv.cols() == wv.cols() &&
               bias.value().numel() == wv.rows() && hv.rows() > 0 &&
               static_cast<int64_t>(targets.size()) == hv.rows())
      << "TiedSoftmaxLoss: h " << ShapeToString(hv.shape()) << ", weight "
      << ShapeToString(wv.shape()) << ", bias "
      << ShapeToString(bias.value().shape()) << ", " << targets.size()
      << " targets";
  const int64_t r = hv.rows(), d = hv.cols(), v = wv.rows();
  for (const int32_t t : targets) {
    TABREP_CHECK(t >= 0 && t < v) << "TiedSoftmaxLoss: target " << t;
  }
  std::vector<float> lse(targets.size()), target_logit(targets.size());
  std::vector<int32_t> argmax(targets.size());
  kernels::TiedSoftmaxForward(hv.data(), wv.data(), bias.value().data(),
                              targets.data(), r, d, v, lse.data(),
                              target_logit.data(), argmax.data());
  double loss = 0.0;
  int64_t correct = 0;
  for (size_t i = 0; i < targets.size(); ++i) {
    loss += lse[i] - target_logit[i];
    correct += argmax[i] == targets[i];
  }
  if (correct_out) *correct_out = correct;
  Tensor out = Tensor::Uninitialized({1});
  out[0] = static_cast<float>(loss / static_cast<double>(r));
  auto ph = h.impl();
  auto pw = weight.impl();
  auto pb = bias.impl();
  return MakeOp(
      out, {h, weight, bias},
      [ph, pw, pb, targets = std::move(targets),
       lse = std::move(lse)](const Tensor& g) {
        TABREP_TRACE_SPAN("ag.tied_softmax_loss.backward");
        const Tensor& hv = ph->value;
        const Tensor& wv = pw->value;
        const int64_t r = hv.rows(), d = wv.cols(), v = wv.rows();
        Tensor dh, dw, db;
        if (ph->requires_grad) dh = Tensor::Uninitialized({r, d});
        if (pw->requires_grad) dw = Tensor::Uninitialized({v, d});
        if (pb->requires_grad) db = Tensor::Uninitialized({v});
        kernels::TiedSoftmaxBackward(
            hv.data(), wv.data(), pb->value.data(), targets.data(),
            lse.data(), g[0] / static_cast<float>(r), r, d, v,
            ph->requires_grad ? dh.data() : nullptr,
            pw->requires_grad ? dw.data() : nullptr,
            pb->requires_grad ? db.data() : nullptr);
        AccumOwned(ph, dh);
        AccumOwned(pw, dw);
        AccumOwned(pb, db);
      });
}

}  // namespace tabrep::ag
