#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "tensor/autograd.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace tabrep {
namespace {

using ag::Variable;

/// Finite-difference gradient check: builds `fn` (a scalar-valued graph
/// over `x`), runs Backward, and compares x.grad() against central
/// differences. fn must be deterministic.
void CheckGradient(Tensor x_init,
                   const std::function<Variable(const Variable&)>& fn,
                   float eps = 1e-3f, float tol = 2e-2f) {
  Variable x = Variable::Param(x_init.Clone());
  Variable y = fn(x);
  ASSERT_EQ(y.numel(), 1) << "gradient check needs scalar output";
  ag::Backward(y);
  const Tensor analytic = x.grad().Clone();

  for (int64_t i = 0; i < x_init.numel(); ++i) {
    Tensor plus = x_init.Clone();
    plus[i] += eps;
    Tensor minus = x_init.Clone();
    minus[i] -= eps;
    const float f_plus = fn(Variable::Param(plus)).value()[0];
    const float f_minus = fn(Variable::Param(minus)).value()[0];
    const float numeric = (f_plus - f_minus) / (2.0f * eps);
    EXPECT_NEAR(analytic[i], numeric, tol)
        << "element " << i << " analytic=" << analytic[i]
        << " numeric=" << numeric;
  }
}

TEST(AutogradTest, BackwardThroughAdd) {
  Rng rng(1);
  CheckGradient(Tensor::Randn({6}, rng), [](const Variable& x) {
    Variable c = Variable::Constant(Tensor::Of({1, 2, 3, 4, 5, 6}));
    return ag::SumAll(ag::Add(x, c));
  });
}

TEST(AutogradTest, BackwardThroughMul) {
  Rng rng(2);
  CheckGradient(Tensor::Randn({5}, rng), [](const Variable& x) {
    Variable c = Variable::Constant(Tensor::Of({2, -1, 0.5, 3, -2}));
    return ag::SumAll(ag::Mul(x, c));
  });
}

TEST(AutogradTest, BackwardThroughSquare) {
  Rng rng(3);
  CheckGradient(Tensor::Randn({4}, rng), [](const Variable& x) {
    return ag::SumAll(ag::Mul(x, x));
  });
}

TEST(AutogradTest, BackwardThroughSubAndScalars) {
  Rng rng(4);
  CheckGradient(Tensor::Randn({4}, rng), [](const Variable& x) {
    Variable c = Variable::Constant(Tensor::Of({1, 1, 1, 1}));
    return ag::SumAll(ag::MulScalar(ag::Sub(ag::AddScalar(x, 3.0f), c), 2.0f));
  });
}

TEST(AutogradTest, BackwardThroughMatMul) {
  Rng rng(5);
  Tensor b_init = Tensor::Randn({3, 2}, rng);
  CheckGradient(Tensor::Randn({2, 3}, rng), [b_init](const Variable& x) {
    Variable b = Variable::Constant(b_init);
    return ag::SumAll(ag::MatMul(x, b));
  });
}

TEST(AutogradTest, BackwardThroughMatMulRhs) {
  Rng rng(6);
  Tensor a_init = Tensor::Randn({2, 3}, rng);
  CheckGradient(Tensor::Randn({3, 2}, rng), [a_init](const Variable& x) {
    Variable a = Variable::Constant(a_init);
    return ag::SumAll(ag::Mul(ag::MatMul(a, x), ag::MatMul(a, x)));
  });
}

TEST(AutogradTest, BackwardThroughMatMulTransposedB) {
  Rng rng(7);
  Tensor b_init = Tensor::Randn({4, 3}, rng);
  CheckGradient(Tensor::Randn({2, 3}, rng), [b_init](const Variable& x) {
    Variable b = Variable::Constant(b_init);
    Variable y = ag::MatMulTransposedB(x, b);
    return ag::SumAll(ag::Mul(y, y));
  });
}

TEST(AutogradTest, BackwardThroughTranspose) {
  Rng rng(8);
  Tensor c_init = Tensor::Randn({3, 2}, rng);
  CheckGradient(Tensor::Randn({2, 3}, rng), [c_init](const Variable& x) {
    Variable c = Variable::Constant(c_init);
    return ag::SumAll(ag::Mul(ag::Transpose(x), c));
  });
}

TEST(AutogradTest, BackwardThroughReshape) {
  Rng rng(9);
  CheckGradient(Tensor::Randn({6}, rng), [](const Variable& x) {
    Variable y = ag::Reshape(x, {2, 3});
    return ag::SumAll(ag::Mul(y, y));
  });
}

TEST(AutogradTest, BackwardThroughActivations) {
  Rng rng(10);
  for (auto fn : {&ag::Tanh, &ag::Gelu, &ag::Sigmoid}) {
    CheckGradient(Tensor::Randn({5}, rng), [fn](const Variable& x) {
      return ag::SumAll(fn(x));
    });
  }
}

TEST(AutogradTest, BackwardThroughRelu) {
  // Keep inputs away from the kink at 0.
  CheckGradient(Tensor::Of({-2, -1, 1, 2}), [](const Variable& x) {
    return ag::SumAll(ag::Relu(x));
  });
}

TEST(AutogradTest, BackwardThroughSoftmax) {
  Rng rng(11);
  Tensor w_init = Tensor::Randn({2, 4}, rng);
  CheckGradient(Tensor::Randn({2, 4}, rng), [w_init](const Variable& x) {
    Variable w = Variable::Constant(w_init);
    return ag::SumAll(ag::Mul(ag::Softmax(x), w));
  });
}

TEST(AutogradTest, BackwardThroughLayerNorm) {
  Rng rng(12);
  Tensor gamma_init = Tensor::Randn({6}, rng, 0.5f);
  Tensor beta_init = Tensor::Randn({6}, rng, 0.5f);
  Tensor w_init = Tensor::Randn({2, 6}, rng);
  CheckGradient(
      Tensor::Randn({2, 6}, rng),
      [&](const Variable& x) {
        Variable gamma = Variable::Constant(gamma_init);
        Variable beta = Variable::Constant(beta_init);
        Variable w = Variable::Constant(w_init);
        return ag::SumAll(ag::Mul(ag::LayerNorm(x, gamma, beta), w));
      },
      1e-2f, 5e-2f);
}

TEST(AutogradTest, LayerNormParamGradients) {
  Rng rng(13);
  Tensor x_init = Tensor::Randn({3, 4}, rng);
  // Check gamma gradient.
  CheckGradient(Tensor::Randn({4}, rng), [&](const Variable& gamma) {
    Variable x = Variable::Constant(x_init);
    Variable beta = Variable::Constant(Tensor::Zeros({4}));
    Variable y = ag::LayerNorm(x, gamma, beta);
    return ag::SumAll(ag::Mul(y, y));
  });
  // Check beta gradient.
  CheckGradient(Tensor::Randn({4}, rng), [&](const Variable& beta) {
    Variable x = Variable::Constant(x_init);
    Variable gamma = Variable::Constant(Tensor::Ones({4}));
    Variable y = ag::LayerNorm(x, gamma, beta);
    return ag::SumAll(ag::Mul(y, y));
  });
}

TEST(AutogradTest, BackwardThroughAddRowBroadcast) {
  Rng rng(14);
  Tensor x_init = Tensor::Randn({3, 4}, rng);
  CheckGradient(Tensor::Randn({4}, rng), [&](const Variable& b) {
    Variable x = Variable::Constant(x_init);
    Variable y = ag::AddRowBroadcast(x, b);
    return ag::SumAll(ag::Mul(y, y));
  });
}

TEST(AutogradTest, BackwardThroughL2NormalizeRows) {
  Rng rng(30);
  Tensor w_init = Tensor::Randn({3, 4}, rng);
  CheckGradient(Tensor::Randn({3, 4}, rng), [w_init](const Variable& x) {
    Variable w = Variable::Constant(w_init);
    return ag::SumAll(ag::Mul(ag::L2NormalizeRows(x), w));
  });
}

TEST(AutogradTest, L2NormalizeRowsProducesUnitRows) {
  Rng rng(31);
  Variable x = Variable::Param(Tensor::Randn({5, 8}, rng, 3.0f));
  Variable y = ag::L2NormalizeRows(x);
  for (int64_t r = 0; r < 5; ++r) {
    double norm = 0;
    for (int64_t c = 0; c < 8; ++c) {
      norm += y.value().at(r, c) * y.value().at(r, c);
    }
    EXPECT_NEAR(norm, 1.0, 1e-5);
  }
}

TEST(AutogradTest, BackwardThroughEmbeddingLookup) {
  Rng rng(15);
  CheckGradient(Tensor::Randn({4, 3}, rng), [](const Variable& table) {
    Variable y = ag::EmbeddingLookup(table, {1, 3, 1});
    return ag::SumAll(ag::Mul(y, y));
  });
}

TEST(AutogradTest, BackwardThroughSliceConcat) {
  Rng rng(16);
  CheckGradient(Tensor::Randn({4, 2}, rng), [](const Variable& x) {
    Variable top = ag::SliceRows(x, 0, 2);
    Variable bottom = ag::SliceRows(x, 2, 4);
    Variable y = ag::ConcatRows({bottom, top});
    return ag::SumAll(ag::Mul(y, y));
  });
}

TEST(AutogradTest, BackwardThroughCrossEntropy) {
  Rng rng(17);
  CheckGradient(Tensor::Randn({3, 5}, rng), [](const Variable& logits) {
    return ag::CrossEntropy(logits, {1, 4, 2});
  });
}

TEST(AutogradTest, CrossEntropyWithIgnoredRows) {
  Rng rng(18);
  CheckGradient(Tensor::Randn({3, 4}, rng), [](const Variable& logits) {
    return ag::CrossEntropy(logits, {2, -100, 0});
  });
}

TEST(AutogradTest, BackwardThroughMeanOps) {
  Rng rng(19);
  CheckGradient(Tensor::Randn({3, 4}, rng), [](const Variable& x) {
    return ag::MeanAll(ag::Mul(x, x));
  });
  CheckGradient(Tensor::Randn({3, 4}, rng), [](const Variable& x) {
    Variable m = ag::MeanRows(ag::Mul(x, x));
    return ag::SumAll(m);
  });
}

TEST(AutogradTest, DiamondGraphAccumulates) {
  // y = x*x + x*x through two separate paths: grad = 4x.
  Tensor init = Tensor::Of({1, 2, 3});
  Variable x = Variable::Param(init.Clone());
  Variable a = ag::Mul(x, x);
  Variable b = ag::Mul(x, x);
  Variable y = ag::SumAll(ag::Add(a, b));
  ag::Backward(y);
  EXPECT_TRUE(x.grad().AllClose(Tensor::Of({4, 8, 12}), 1e-4f));
}

TEST(AutogradTest, ReusedNodeAccumulates) {
  // z = sum(x + x): grad = 2.
  Variable x = Variable::Param(Tensor::Of({1, 1}));
  Variable y = ag::Add(x, x);
  ag::Backward(ag::SumAll(y));
  EXPECT_TRUE(x.grad().AllClose(Tensor::Of({2, 2})));
}

TEST(AutogradTest, ConstantsGetNoGrad) {
  Variable c = Variable::Constant(Tensor::Of({1, 2}));
  Variable x = Variable::Param(Tensor::Of({3, 4}));
  Variable y = ag::SumAll(ag::Mul(x, c));
  EXPECT_TRUE(y.requires_grad());
  ag::Backward(y);
  EXPECT_TRUE(x.grad().AllClose(Tensor::Of({1, 2})));
  // Constant's grad buffer stays zero.
  EXPECT_TRUE(c.grad().AllClose(Tensor::Zeros({2})));
}

TEST(AutogradTest, PureConstantGraphNeedsNoTape) {
  Variable a = Variable::Constant(Tensor::Of({1, 2}));
  Variable b = Variable::Constant(Tensor::Of({3, 4}));
  Variable y = ag::Add(a, b);
  EXPECT_FALSE(y.requires_grad());
  EXPECT_TRUE(y.value().AllClose(Tensor::Of({4, 6})));
}

TEST(AutogradTest, ZeroGradResets) {
  Variable x = Variable::Param(Tensor::Of({2}));
  ag::Backward(ag::SumAll(ag::Mul(x, x)));
  EXPECT_NEAR(x.grad()[0], 4.0f, 1e-5f);
  x.ZeroGrad();
  EXPECT_EQ(x.grad()[0], 0.0f);
  ag::Backward(ag::SumAll(ag::Mul(x, x)));
  EXPECT_NEAR(x.grad()[0], 4.0f, 1e-5f);
}

TEST(AutogradTest, DropoutScalesAndMasks) {
  Rng rng(20);
  Variable x = Variable::Param(Tensor::Ones({1000}));
  Variable y = ag::Dropout(x, 0.5f, rng);
  int64_t zeros = 0;
  for (int64_t i = 0; i < y.numel(); ++i) {
    if (y.value()[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(y.value()[i], 2.0f);
    }
  }
  EXPECT_GT(zeros, 400);
  EXPECT_LT(zeros, 600);
  // Gradient flows only through kept elements.
  ag::Backward(ag::SumAll(y));
  for (int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_FLOAT_EQ(x.grad()[i], y.value()[i] == 0.0f ? 0.0f : 2.0f);
  }
}

TEST(AutogradTest, DropoutZeroPIsIdentity) {
  Rng rng(21);
  Variable x = Variable::Param(Tensor::Of({1, 2, 3}));
  Variable y = ag::Dropout(x, 0.0f, rng);
  EXPECT_TRUE(y.value().AllClose(x.value()));
}

// -- Masked-row tied-softmax loss --------------------------------------

/// One TiedSoftmaxLoss case: n rows of width d over a vocabulary of v,
/// where a -100 target marks a row that carries no loss.
struct TiedCase {
  Tensor h, w, b;
  std::vector<int32_t> targets;

  TiedCase(int64_t n, int64_t d, int64_t v, std::vector<int32_t> t,
           uint64_t seed)
      : targets(std::move(t)) {
    Rng rng(seed);
    h = Tensor::Randn({n, d}, rng);
    w = Tensor::Randn({v, d}, rng, 0.5f);
    b = Tensor::Randn({v}, rng, 0.5f);
  }

  /// The op takes counted rows only: gather them as the pretraining
  /// heads do (a differentiable EmbeddingLookup that reads h as its
  /// table), so gradients reach h's counted rows and nothing else.
  Variable Loss(const Variable& h_var, const Variable& w_var,
                const Variable& b_var, int64_t* correct = nullptr) const {
    std::vector<int32_t> rows, kept;
    for (size_t i = 0; i < targets.size(); ++i) {
      if (targets[i] == -100) continue;
      rows.push_back(static_cast<int32_t>(i));
      kept.push_back(targets[i]);
    }
    return ag::TiedSoftmaxLoss(ag::EmbeddingLookup(h_var, std::move(rows)),
                               w_var, b_var, std::move(kept), correct);
  }

  /// The full-row reference: [n, v] logits into ag::CrossEntropy.
  Variable Reference(int64_t* correct, int64_t* counted) const {
    Variable logits = ag::AddRowBroadcast(
        ag::MatMulTransposedB(Variable::Constant(h), Variable::Constant(w)),
        Variable::Constant(b));
    return ag::CrossEntropy(logits, targets, -100, correct, counted);
  }

  /// Finite-difference checks w.r.t. h, the tied weight and the bias.
  void CheckAllGradients() const {
    CheckGradient(h, [this](const Variable& x) {
      return Loss(x, Variable::Constant(w), Variable::Constant(b));
    });
    CheckGradient(w, [this](const Variable& x) {
      return Loss(Variable::Constant(h), x, Variable::Constant(b));
    });
    CheckGradient(b, [this](const Variable& x) {
      return Loss(Variable::Constant(h), Variable::Constant(w), x);
    });
  }
};

TEST(AutogradTest, TiedSoftmaxLossMatchesFullRowCrossEntropy) {
  // v spans several kTiedSoftmaxBlock blocks with a ragged last one.
  const int64_t v = 2 * kernels::kTiedSoftmaxBlock + 37;
  TiedCase c(7, 8, v, {3, -100, 400, 0, -100, static_cast<int32_t>(v - 1), 200},
             31);
  int64_t correct = -1, ref_correct = -1, ref_counted = -1;
  const float loss = c.Loss(Variable::Constant(c.h), Variable::Constant(c.w),
                            Variable::Constant(c.b), &correct)
                         .value()[0];
  const float ref = c.Reference(&ref_correct, &ref_counted).value()[0];
  EXPECT_NEAR(loss, ref, 1e-5f);
  EXPECT_EQ(ref_counted, 5);
  EXPECT_EQ(correct, ref_correct);
}

TEST(AutogradTest, TiedSoftmaxLossAccuracyCountsArgmaxHits) {
  // Each row of h is a scaled copy of a weight row; the first two rows
  // target their own copy (hits), the third targets another (a miss).
  Tensor w = Tensor::FromVector({3, 2}, {1, 0, 0, 1, -1, -1});
  Tensor h = Tensor::FromVector({3, 2}, {5, 0, 0, 5, -5, -5});
  int64_t correct = 0;
  ag::TiedSoftmaxLoss(Variable::Constant(h), Variable::Constant(w),
                      Variable::Constant(Tensor::Zeros({3})), {0, 1, 0},
                      &correct);
  EXPECT_EQ(correct, 2);
}

TEST(AutogradTest, BackwardThroughTiedSoftmaxLossWithIgnoredRows) {
  TiedCase(4, 5, 11, {2, -100, 10, 0}, 32).CheckAllGradients();
}

TEST(AutogradTest, BackwardThroughTiedSoftmaxLossAcrossBlocks) {
  const int32_t v = static_cast<int32_t>(kernels::kTiedSoftmaxBlock + 9);
  TiedCase(3, 3, v, {v - 1, -100, 5}, 33).CheckAllGradients();
}

TEST(AutogradTest, BackwardThroughTiedSoftmaxLossSingleRow) {
  TiedCase(1, 6, 9, {4}, 34).CheckAllGradients();
}

// -- Masked fused attention ----------------------------------------------

TEST(AutogradTest, BackwardThroughMaskedFusedAttention) {
  // Context, two headers, then a 2x2 grid and a separator-like token in
  // no row: every rule masks some pairs and keeps others.
  const std::vector<int32_t> row = {0, 0, 0, 1, 1, 2, 2, 0};
  const std::vector<int32_t> col = {0, 1, 2, 1, 2, 1, 2, 0};
  const int64_t t = static_cast<int64_t>(row.size()), dk = 4;
  Rng rng(40);
  const Tensor q0 = Tensor::Randn({t, dk}, rng);
  const Tensor k0 = Tensor::Randn({t, dk}, rng);
  const Tensor v0 = Tensor::Randn({t, dk}, rng);
  const Tensor weights = Tensor::Randn({t, dk}, rng);
  for (kernels::MaskRule rule :
       {kernels::MaskRule::kNone, kernels::MaskRule::kSameRow,
        kernels::MaskRule::kSameColumn, kernels::MaskRule::kRowOrColumn,
        kernels::MaskRule::kSameGroup}) {
    SCOPED_TRACE(static_cast<int>(rule));
    const kernels::MaskView mask{rule, row.data(), col.data()};
    // loss = Σ out ⊙ weights, with one of q/k/v differentiated.
    auto loss = [&](const Variable& q, const Variable& k, const Variable& v) {
      Variable out = ag::FusedAttention(q, k, v, mask, 0.5f);
      return ag::SumAll(ag::Mul(out, Variable::Constant(weights)));
    };
    auto constant = [](const Tensor& x) { return Variable::Constant(x); };
    CheckGradient(q0, [&](const Variable& q) {
      return loss(q, constant(k0), constant(v0));
    });
    CheckGradient(k0, [&](const Variable& k) {
      return loss(constant(q0), k, constant(v0));
    });
    CheckGradient(v0, [&](const Variable& v) {
      return loss(constant(q0), constant(k0), v);
    });
  }
}

// -- Transposed GEMM backward -------------------------------------------

TEST(AutogradTest, MatMulWeightGradientMatchesExplicitTranspose) {
  // dB = A^T g through the packed A^T·B kernel, against the explicit
  // transpose; shapes cover full 6x16 tiles plus ragged edges.
  Rng rng(41);
  for (auto [m, k, n] : {std::tuple<int64_t, int64_t, int64_t>{7, 13, 17},
                         {12, 6, 32}, {1, 5, 3}, {40, 33, 19}}) {
    Tensor a = Tensor::Randn({m, k}, rng);
    Tensor g = Tensor::Randn({m, n}, rng);
    const Tensor want = ops::MatMul(ops::Transpose(a), g);
    const Tensor got = ops::MatMulTransposedA(a, g);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_TRUE(got.AllClose(want, 1e-4f)) << m << "x" << k << "x" << n;
  }
}

TEST(AutogradTest, FirstTouchGradientsAccumulateLikeZeroFill) {
  // A node reached twice: the first write adopts its delta, the second
  // adds into it; a redirect table behaves the same way.
  Rng rng(42);
  Tensor x0 = Tensor::Randn({3, 4}, rng);
  Tensor w0 = Tensor::Randn({4, 2}, rng);
  auto run = [&](ag::GradTable* table) {
    Variable x = Variable::Param(x0.Clone());
    Variable w = Variable::Param(w0.Clone());
    Variable y = ag::MatMul(x, w);
    Variable loss = ag::SumAll(ag::Add(ag::Mul(y, y), ag::MulScalar(y, 3.0f)));
    {
      std::optional<ag::ScopedGradRedirect> redirect;
      if (table != nullptr) redirect.emplace(table);
      ag::Backward(loss);
    }
    if (table != nullptr) {
      std::vector<Variable*> params = {&x, &w};
      ag::AccumulateGrads(*table, params);
    }
    return std::make_pair(x.grad().Clone(), w.grad().Clone());
  };
  const auto direct = run(nullptr);
  ag::GradTable table;
  const auto redirected = run(&table);
  EXPECT_TRUE(direct.first.AllClose(redirected.first, 0.0f));
  EXPECT_TRUE(direct.second.AllClose(redirected.second, 0.0f));
  // d/dy (y^2 + 3y) = 2y + 3 -> dx = (2y + 3) w^T.
  Tensor y = ops::MatMul(x0, w0);
  Tensor dy = ops::AddScalar(ops::MulScalar(y, 2.0f), 3.0f);
  EXPECT_TRUE(direct.first.AllClose(ops::MatMulTransposedB(dy, w0), 1e-4f));
}

}  // namespace
}  // namespace tabrep

#include "simd_pin_main.h"
