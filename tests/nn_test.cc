#include <gtest/gtest.h>

#include <cmath>

#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "nn/transformer.h"
#include "tensor/ops.h"

namespace tabrep {
namespace {

TEST(ModuleTest, ParameterCollection) {
  Rng rng(1);
  nn::FeedForward ffn(8, 16, rng);
  // fc1: 8*16 + 16, fc2: 16*8 + 8.
  EXPECT_EQ(ffn.NumParameters(), 8 * 16 + 16 + 16 * 8 + 8);
  EXPECT_EQ(ffn.Parameters().size(), 4u);
}

TEST(ModuleTest, StateDictRoundTrip) {
  Rng rng(2);
  nn::Linear a(4, 3, rng);
  nn::Linear b(4, 3, rng);
  TensorMap state;
  a.ExportState("m/", &state);
  ASSERT_TRUE(b.ImportState("m/", state).ok());
  ag::Variable x = ag::Variable::Constant(Tensor::Randn({2, 4}, rng));
  EXPECT_TRUE(a.Forward(x).value().AllClose(b.Forward(x).value()));
}

TEST(ModuleTest, ImportMissingParamFails) {
  Rng rng(3);
  nn::Linear a(2, 2, rng);
  TensorMap empty;
  Status s = a.ImportState("m/", empty);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(ModuleTest, ImportShapeMismatchFails) {
  Rng rng(4);
  nn::Linear a(2, 2, rng);
  nn::Linear b(2, 3, rng);
  TensorMap state;
  b.ExportState("m/", &state);
  Status s = a.ImportState("m/", state);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(LinearTest, ComputesAffine) {
  Rng rng(5);
  nn::Linear lin(2, 2, rng);
  // Overwrite weights deterministically via state dict.
  TensorMap state;
  state["m/weight"] = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  state["m/bias"] = Tensor::Of({10, 20});
  ASSERT_TRUE(lin.ImportState("m/", state).ok());
  ag::Variable x = ag::Variable::Constant(Tensor::FromVector({1, 2}, {1, 1}));
  Tensor y = lin.Forward(x).value();
  EXPECT_TRUE(y.AllClose(Tensor::FromVector({1, 2}, {14, 26})));
}

TEST(EmbeddingTest, LooksUpRows) {
  Rng rng(6);
  nn::Embedding emb(5, 3, rng);
  ag::Variable out = emb.Forward({4, 0});
  EXPECT_EQ(out.shape(), (std::vector<int64_t>{2, 3}));
  // Row 4 of the table equals output row 0.
  for (int64_t j = 0; j < 3; ++j) {
    EXPECT_EQ(out.value().at(0, j), emb.weight().value().at(4, j));
  }
}

TEST(LayerNormModuleTest, TrainsTowardsTarget) {
  // Single-layer sanity: LN gamma/beta can be trained to match a target.
  Rng rng(7);
  nn::LayerNorm ln(4);
  Tensor x_init = Tensor::Randn({3, 4}, rng);
  Tensor target = Tensor::Randn({3, 4}, rng);
  nn::Adam opt(ln.Parameters(), 0.05f);
  float first_loss = 0, last_loss = 0;
  for (int step = 0; step < 100; ++step) {
    opt.ZeroGrad();
    ag::Variable x = ag::Variable::Constant(x_init);
    ag::Variable diff = ag::Sub(ln.Forward(x), ag::Variable::Constant(target));
    ag::Variable loss = ag::MeanAll(ag::Mul(diff, diff));
    ag::Backward(loss);
    opt.Step();
    if (step == 0) first_loss = loss.value()[0];
    last_loss = loss.value()[0];
  }
  EXPECT_LT(last_loss, first_loss * 0.9f);
}

TEST(AttentionTest, OutputShapeMatchesInput) {
  Rng rng(8);
  nn::MultiHeadSelfAttention attn(16, 4, 0.0f, rng);
  attn.SetTraining(false);
  ag::Variable x = ag::Variable::Constant(Tensor::Randn({6, 16}, rng));
  ag::Variable y = attn.Forward(x, nullptr, rng);
  EXPECT_EQ(y.shape(), (std::vector<int64_t>{6, 16}));
}

/// A mask under which every token is its own group: only the diagonal
/// is visible under kSameGroup.
nn::AttentionMask DiagonalMask(int64_t t,
                               std::vector<kernels::MaskRule> rules) {
  nn::AttentionMask mask;
  for (int64_t i = 0; i < t; ++i) {
    mask.row.push_back(0);
    mask.column.push_back(static_cast<int32_t>(i));
  }
  mask.rules = std::move(rules);
  return mask;
}

TEST(AttentionTest, SharedMaskBlocksAttention) {
  Rng rng(9);
  nn::MultiHeadSelfAttention attn(8, 2, 0.0f, rng);
  attn.SetTraining(false);
  const int64_t t = 4;
  ag::Variable x = ag::Variable::Constant(Tensor::Randn({t, 8}, rng));
  // Mask everything except the diagonal.
  const nn::AttentionMask mask =
      DiagonalMask(t, {kernels::MaskRule::kSameGroup});
  Tensor probs;
  attn.Forward(x, &mask, rng, &probs);
  for (int64_t i = 0; i < t; ++i) {
    EXPECT_NEAR(probs.at(i, i), 1.0f, 1e-4f);
    for (int64_t j = 0; j < t; ++j) {
      if (i != j) {
        EXPECT_LT(probs.at(i, j), 1e-6f);
      }
    }
  }
}

TEST(AttentionTest, ProbsAreRowStochastic) {
  Rng rng(10);
  nn::MultiHeadSelfAttention attn(8, 2, 0.0f, rng);
  attn.SetTraining(false);
  ag::Variable x = ag::Variable::Constant(Tensor::Randn({5, 8}, rng));
  Tensor probs;
  attn.Forward(x, nullptr, rng, &probs);
  for (int64_t i = 0; i < 5; ++i) {
    float sum = 0;
    for (int64_t j = 0; j < 5; ++j) sum += probs.at(i, j);
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
  }
}

TEST(AttentionTest, PerHeadRulesApplyIndependently) {
  Rng rng(11);
  const int64_t t = 3;
  nn::MultiHeadSelfAttention attn(8, 2, 0.0f, rng);
  attn.SetTraining(false);
  ag::Variable x = ag::Variable::Constant(Tensor::Randn({t, 8}, rng));
  // Head 0: only diagonal. Head 1: dense.
  const nn::AttentionMask mask = DiagonalMask(
      t, {kernels::MaskRule::kSameGroup, kernels::MaskRule::kNone});
  Tensor probs;  // averaged over heads
  attn.Forward(x, &mask, rng, &probs);
  // Diagonal gets at least the 0.5 share from head 0.
  for (int64_t i = 0; i < t; ++i) EXPECT_GT(probs.at(i, i), 0.5f - 1e-4f);
  // Off-diagonal strictly below 0.5 (only head 1 contributes).
  for (int64_t i = 0; i < t; ++i) {
    for (int64_t j = 0; j < t; ++j) {
      if (i != j) {
        EXPECT_LT(probs.at(i, j), 0.5f);
      }
    }
  }
}

TEST(AttentionTest, GradientsFlowToAllProjections) {
  Rng rng(12);
  nn::MultiHeadSelfAttention attn(8, 2, 0.0f, rng);
  ag::Variable x = ag::Variable::Param(Tensor::Randn({4, 8}, rng));
  ag::Variable y = attn.Forward(x, nullptr, rng);
  ag::Backward(ag::SumAll(ag::Mul(y, y)));
  for (ag::Variable* p : attn.Parameters()) {
    bool nonzero = false;
    for (int64_t i = 0; i < p->grad().numel(); ++i) {
      if (p->grad()[i] != 0.0f) nonzero = true;
    }
    EXPECT_TRUE(nonzero);
  }
  // Input grad flows too.
  EXPECT_GT(ops::Norm(x.grad()), 0.0f);
}

TEST(TransformerTest, StackRunsAndCapturesAttention) {
  Rng rng(13);
  nn::TransformerConfig config;
  config.dim = 16;
  config.num_layers = 2;
  config.num_heads = 2;
  config.ffn_dim = 32;
  config.dropout = 0.0f;
  nn::TransformerEncoder encoder(config, rng);
  encoder.SetTraining(false);
  ag::Variable x = ag::Variable::Constant(Tensor::Randn({5, 16}, rng));
  std::vector<Tensor> attn;
  ag::Variable y = encoder.Forward(x, nullptr, rng, &attn);
  EXPECT_EQ(y.shape(), (std::vector<int64_t>{5, 16}));
  EXPECT_EQ(attn.size(), 2u);
  EXPECT_EQ(attn[0].shape(), (std::vector<int64_t>{5, 5}));
}

TEST(TransformerTest, CanOverfitTinyRegression) {
  // The full encoder must be able to memorize a small mapping.
  Rng rng(14);
  nn::TransformerConfig config;
  config.dim = 16;
  config.num_layers = 1;
  config.num_heads = 2;
  config.ffn_dim = 32;
  config.dropout = 0.0f;
  nn::TransformerEncoder encoder(config, rng);
  nn::Linear out(16, 1, rng);
  Tensor x_init = Tensor::Randn({4, 16}, rng);
  Tensor target = Tensor::FromVector({4, 1}, {1, -1, 2, 0});
  std::vector<ag::Variable*> params = encoder.Parameters();
  for (ag::Variable* p : out.Parameters()) params.push_back(p);
  nn::Adam opt(params, 1e-2f);
  float first = 0, last = 0;
  for (int step = 0; step < 60; ++step) {
    opt.ZeroGrad();
    ag::Variable x = ag::Variable::Constant(x_init);
    ag::Variable y = out.Forward(encoder.Forward(x, nullptr, rng));
    ag::Variable diff = ag::Sub(y, ag::Variable::Constant(target));
    ag::Variable loss = ag::MeanAll(ag::Mul(diff, diff));
    ag::Backward(loss);
    opt.Step();
    if (step == 0) first = loss.value()[0];
    last = loss.value()[0];
  }
  EXPECT_LT(last, first * 0.2f);
}

TEST(OptimizerTest, SgdDescendsQuadratic) {
  ag::Variable x = ag::Variable::Param(Tensor::Of({5.0f}));
  nn::Sgd opt({&x}, 0.1f);
  for (int i = 0; i < 50; ++i) {
    opt.ZeroGrad();
    ag::Backward(ag::Mul(x, x));
    opt.Step();
  }
  EXPECT_NEAR(x.value()[0], 0.0f, 1e-3f);
}

TEST(OptimizerTest, SgdMomentumDescends) {
  ag::Variable x = ag::Variable::Param(Tensor::Of({5.0f}));
  nn::Sgd opt({&x}, 0.05f, 0.9f);
  for (int i = 0; i < 150; ++i) {
    opt.ZeroGrad();
    ag::Backward(ag::Mul(x, x));
    opt.Step();
  }
  EXPECT_NEAR(x.value()[0], 0.0f, 0.05f);
}

TEST(OptimizerTest, AdamDescendsQuadratic) {
  ag::Variable x = ag::Variable::Param(Tensor::Of({3.0f, -4.0f}));
  nn::Adam opt({&x}, 0.1f);
  for (int i = 0; i < 200; ++i) {
    opt.ZeroGrad();
    ag::Backward(ag::SumAll(ag::Mul(x, x)));
    opt.Step();
  }
  EXPECT_NEAR(x.value()[0], 0.0f, 0.02f);
  EXPECT_NEAR(x.value()[1], 0.0f, 0.02f);
}

TEST(OptimizerTest, AdamWDecaysWeights) {
  // With zero gradient signal, weight decay alone shrinks the weight.
  nn::AdamOptions opts;
  opts.weight_decay = 0.1f;
  ag::Variable x = ag::Variable::Param(Tensor::Of({1.0f}));
  nn::Adam opt({&x}, 0.1f, opts);
  for (int i = 0; i < 20; ++i) {
    opt.ZeroGrad();
    // Loss that ignores x: constant; grads stay zero.
    opt.Step();
  }
  EXPECT_LT(std::fabs(x.value()[0]), 1.0f);
}

TEST(OptimizerTest, GradClipScalesLargeGradients) {
  ag::Variable x = ag::Variable::Param(Tensor::Of({1000.0f}));
  ag::Backward(ag::Mul(x, x));  // grad = 2000
  float norm = nn::ClipGradNorm({&x}, 1.0f);
  EXPECT_NEAR(norm, 2000.0f, 1.0f);
  EXPECT_NEAR(x.grad()[0], 1.0f, 1e-4f);
}

TEST(OptimizerTest, GradClipNoOpBelowThreshold) {
  ag::Variable x = ag::Variable::Param(Tensor::Of({0.1f}));
  ag::Backward(ag::Mul(x, x));  // grad = 0.2
  nn::ClipGradNorm({&x}, 1.0f);
  EXPECT_NEAR(x.grad()[0], 0.2f, 1e-5f);
}

TEST(ScheduleTest, WarmupThenDecay) {
  nn::WarmupLinearSchedule sched(1.0f, 10, 100);
  EXPECT_LT(sched.LrAt(0), 0.2f);
  EXPECT_NEAR(sched.LrAt(9), 1.0f, 1e-5f);
  EXPECT_GT(sched.LrAt(50), sched.LrAt(90));
  EXPECT_NEAR(sched.LrAt(100), 0.0f, 1e-5f);
}

}  // namespace
}  // namespace tabrep
