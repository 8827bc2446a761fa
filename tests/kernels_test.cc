#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "runtime/runtime.h"
#include "tensor/aligned_buffer.h"
#include "tensor/kernels.h"
#include "tensor/kernels_int8.h"
#include "tensor/tensor.h"

// Proves the vectorized kernels match the retained naive references
// across odd shapes, tails, and transposed layouts, and that the
// chunked kernels are bitwise thread-count-invariant.

namespace tabrep {
namespace {

class ScopedThreads {
 public:
  explicit ScopedThreads(int n) { runtime::Configure({n}); }
  ~ScopedThreads() { runtime::Configure({}); }
};

std::vector<float> RandomVec(int64_t n, Rng& rng, float lo = -2.0f,
                             float hi = 2.0f) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = rng.NextUniform(lo, hi);
  return v;
}

/// Mixed absolute/relative tolerance for kernels whose accumulation
/// order legitimately differs from the reference (FMA, lane-wise
/// reductions, polynomial exp).
void ExpectAllNear(const std::vector<float>& got, const std::vector<float>& want,
                   float tol) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    const float bound = tol * std::max(1.0f, std::fabs(want[i]));
    ASSERT_NEAR(got[i], want[i], bound) << "at index " << i;
  }
}

// Shapes deliberately include 1x1, primes, and dims that are not
// multiples of the 6-row / 16-column register tile or the 8-lane
// vector width.
struct MatShape {
  int64_t m, k, n;
};
const MatShape kMatShapes[] = {
    {1, 1, 1},  {2, 3, 4},    {5, 7, 11},  {6, 16, 16}, {7, 17, 33},
    {13, 1, 5}, {12, 32, 48}, {3, 129, 31}, {19, 23, 47}, {64, 64, 64},
};

TEST(KernelsTest, MatMulMatchesNaive) {
  Rng rng(42);
  for (const MatShape& s : kMatShapes) {
    std::vector<float> a = RandomVec(s.m * s.k, rng);
    std::vector<float> b = RandomVec(s.k * s.n, rng);
    std::vector<float> got(static_cast<size_t>(s.m * s.n), -99.0f);
    std::vector<float> want(static_cast<size_t>(s.m * s.n), 99.0f);
    kernels::MatMul(a.data(), b.data(), got.data(), s.m, s.k, s.n);
    kernels::naive::MatMul(a.data(), b.data(), want.data(), s.m, s.k, s.n);
    ExpectAllNear(got, want, 1e-4f);
  }
}

TEST(KernelsTest, MatMulTransposedBMatchesNaive) {
  Rng rng(43);
  for (const MatShape& s : kMatShapes) {
    std::vector<float> a = RandomVec(s.m * s.k, rng);
    std::vector<float> b = RandomVec(s.n * s.k, rng);  // [n, k]
    std::vector<float> got(static_cast<size_t>(s.m * s.n));
    std::vector<float> want(static_cast<size_t>(s.m * s.n));
    kernels::MatMulTransposedB(a.data(), b.data(), got.data(), s.m, s.k, s.n);
    kernels::naive::MatMulTransposedB(a.data(), b.data(), want.data(), s.m,
                                      s.k, s.n);
    ExpectAllNear(got, want, 1e-4f);
  }
}

TEST(KernelsTest, TransposeMatchesNaiveExactly) {
  Rng rng(44);
  const MatShape shapes[] = {
      {1, 0, 1}, {1, 0, 33}, {31, 0, 33}, {32, 0, 32}, {100, 0, 7}, {65, 0, 129}};
  for (const MatShape& s : shapes) {
    std::vector<float> a = RandomVec(s.m * s.n, rng);
    std::vector<float> got(static_cast<size_t>(s.m * s.n));
    std::vector<float> want(static_cast<size_t>(s.m * s.n));
    kernels::Transpose(a.data(), got.data(), s.m, s.n);
    kernels::naive::Transpose(a.data(), want.data(), s.m, s.n);
    ASSERT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(float)),
              0)
        << s.m << "x" << s.n;
  }
}

TEST(KernelsTest, ElementwiseMatchReference) {
  Rng rng(45);
  for (int64_t n : {1, 7, 8, 9, 64, 257}) {
    std::vector<float> a = RandomVec(n, rng);
    std::vector<float> b = RandomVec(n, rng);
    std::vector<float> out(static_cast<size_t>(n));

    kernels::Add(out.data(), a.data(), b.data(), n);
    for (int64_t i = 0; i < n; ++i) ASSERT_EQ(out[i], a[i] + b[i]);

    kernels::Mul(out.data(), a.data(), b.data(), n);
    for (int64_t i = 0; i < n; ++i) ASSERT_EQ(out[i], a[i] * b[i]);

    std::vector<float> y = b;
    kernels::Axpy(y.data(), a.data(), 0.5f, n);
    // FMA may contract the multiply-add; allow one-ulp-scale slack.
    for (int64_t i = 0; i < n; ++i)
      ASSERT_NEAR(y[i], b[i] + 0.5f * a[i], 1e-6f);

    std::vector<float> want(static_cast<size_t>(n));
    kernels::Tanh(out.data(), a.data(), n);
    kernels::naive::Tanh(want.data(), a.data(), n);
    ExpectAllNear(out, want, 1e-5f);

    kernels::Gelu(out.data(), a.data(), n);
    kernels::naive::Gelu(want.data(), a.data(), n);
    ExpectAllNear(out, want, 1e-5f);

    const float dot = kernels::Dot(a.data(), b.data(), n);
    float ref = 0.0f;
    for (int64_t i = 0; i < n; ++i) ref += a[i] * b[i];
    ASSERT_NEAR(dot, ref, 1e-4f * std::max(1.0f, std::fabs(ref)));
  }
}

TEST(KernelsTest, RowNormalizationsMatchNaive) {
  Rng rng(46);
  for (int64_t rows : {1, 3, 17}) {
    for (int64_t n : {1, 5, 8, 31, 64, 130}) {
      std::vector<float> base = RandomVec(rows * n, rng, -4.0f, 4.0f);
      std::vector<float> gamma = RandomVec(n, rng, 0.5f, 1.5f);
      std::vector<float> beta = RandomVec(n, rng, -0.5f, 0.5f);

      std::vector<float> got = base;
      std::vector<float> want = base;
      kernels::SoftmaxRows(got.data(), rows, n);
      kernels::naive::SoftmaxRows(want.data(), rows, n);
      ExpectAllNear(got, want, 1e-5f);

      got = base;
      want = base;
      kernels::LogSoftmaxRows(got.data(), rows, n);
      kernels::naive::LogSoftmaxRows(want.data(), rows, n);
      ExpectAllNear(got, want, 1e-5f);

      got = base;
      want = base;
      kernels::LayerNormRows(got.data(), gamma.data(), beta.data(), rows, n,
                             1e-5f);
      kernels::naive::LayerNormRows(want.data(), gamma.data(), beta.data(),
                                    rows, n, 1e-5f);
      ExpectAllNear(got, want, 1e-4f);
    }
  }
}

TEST(KernelsTest, FusedAttentionMatchesNaive) {
  Rng rng(47);
  struct AttnShape {
    int64_t tq, tk, dk, dv;
  };
  const AttnShape shapes[] = {
      {1, 1, 1, 1}, {3, 5, 7, 2}, {17, 13, 16, 16}, {9, 33, 24, 40}};
  for (const AttnShape& s : shapes) {
    std::vector<float> q = RandomVec(s.tq * s.dk, rng, -1.0f, 1.0f);
    std::vector<float> k = RandomVec(s.tk * s.dk, rng, -1.0f, 1.0f);
    std::vector<float> v = RandomVec(s.tk * s.dv, rng, -1.0f, 1.0f);
    std::vector<float> bias = RandomVec(s.tq * s.tk, rng, -1.0f, 0.0f);
    const float scale = 1.0f / std::sqrt(static_cast<float>(s.dk));
    for (const float* b : {static_cast<const float*>(nullptr),
                           static_cast<const float*>(bias.data())}) {
      std::vector<float> got(static_cast<size_t>(s.tq * s.dv));
      std::vector<float> want(static_cast<size_t>(s.tq * s.dv));
      std::vector<float> got_p(static_cast<size_t>(s.tq * s.tk));
      std::vector<float> want_p(static_cast<size_t>(s.tq * s.tk));
      kernels::FusedAttention(q.data(), k.data(), v.data(), b, scale, s.tq,
                              s.tk, s.dk, s.dv, got.data(), got_p.data());
      kernels::naive::FusedAttention(q.data(), k.data(), v.data(), b, scale,
                                     s.tq, s.tk, s.dk, s.dv, want.data(),
                                     want_p.data());
      ExpectAllNear(got, want, 1e-4f);
      ExpectAllNear(got_p, want_p, 1e-5f);

      // Dropping probs capture must not perturb the output bits.
      std::vector<float> got_nop(static_cast<size_t>(s.tq * s.dv));
      kernels::FusedAttention(q.data(), k.data(), v.data(), b, scale, s.tq,
                              s.tk, s.dk, s.dv, got_nop.data(), nullptr);
      ASSERT_EQ(std::memcmp(got.data(), got_nop.data(),
                            got.size() * sizeof(float)),
                0);
    }
  }
}

TEST(KernelsTest, MatMulThreadCountInvariantBitwise) {
  Rng rng(48);
  const int64_t m = 37, k = 53, n = 41;
  std::vector<float> a = RandomVec(m * k, rng);
  std::vector<float> b = RandomVec(k * n, rng);
  std::vector<float> c1(static_cast<size_t>(m * n));
  std::vector<float> c4(static_cast<size_t>(m * n));
  {
    ScopedThreads threads(1);
    kernels::MatMul(a.data(), b.data(), c1.data(), m, k, n);
  }
  {
    ScopedThreads threads(4);
    kernels::MatMul(a.data(), b.data(), c4.data(), m, k, n);
  }
  EXPECT_EQ(std::memcmp(c1.data(), c4.data(), c1.size() * sizeof(float)), 0);
}

TEST(KernelsTest, FusedAttentionThreadCountInvariantBitwise) {
  Rng rng(49);
  const int64_t tq = 29, tk = 31, dk = 24, dv = 24;
  std::vector<float> q = RandomVec(tq * dk, rng);
  std::vector<float> k = RandomVec(tk * dk, rng);
  std::vector<float> v = RandomVec(tk * dv, rng);
  const float scale = 1.0f / std::sqrt(static_cast<float>(dk));
  std::vector<float> o1(static_cast<size_t>(tq * dv));
  std::vector<float> o4(static_cast<size_t>(tq * dv));
  std::vector<float> p4(static_cast<size_t>(tq * tk));
  {
    ScopedThreads threads(1);
    kernels::FusedAttention(q.data(), k.data(), v.data(), nullptr, scale, tq,
                            tk, dk, dv, o1.data(), nullptr);
  }
  {
    // 4 threads AND probs capture on: both must leave the bits alone.
    ScopedThreads threads(4);
    kernels::FusedAttention(q.data(), k.data(), v.data(), nullptr, scale, tq,
                            tk, dk, dv, o4.data(), p4.data());
  }
  EXPECT_EQ(std::memcmp(o1.data(), o4.data(), o1.size() * sizeof(float)), 0);
}

// -- Structure-masked attention -------------------------------------------

/// One token layout for the mask rules: per-token row and column ids.
struct MaskCase {
  std::string name;
  std::vector<int32_t> row, col;
  int64_t size() const { return static_cast<int64_t>(row.size()); }
};

/// A serialized-table-like layout: a context prefix, a header row
/// ((0,c) tokens split by (0,0) pipes), data rows of multi-token cells
/// ((r,c)) split by (r,0) separators, and a (0,0) SEP after each row.
MaskCase TableLayout(Rng& rng, int64_t rows, int64_t cols) {
  MaskCase m{"table " + std::to_string(rows) + "x" + std::to_string(cols),
             {}, {}};
  auto push = [&m](int32_t r, int32_t c) {
    m.row.push_back(r);
    m.col.push_back(c);
  };
  const int64_t prefix = 1 + static_cast<int64_t>(rng.NextU64() % 6);
  for (int64_t i = 0; i < prefix; ++i) push(0, 0);
  for (int64_t r = 0; r <= rows; ++r) {
    for (int64_t c = 1; c <= cols; ++c) {
      if (c > 1) push(static_cast<int32_t>(r), 0);
      const int64_t pieces = 1 + static_cast<int64_t>(rng.NextU64() % 3);
      for (int64_t p = 0; p < pieces; ++p) {
        push(static_cast<int32_t>(r), static_cast<int32_t>(c));
      }
    }
    push(0, 0);
  }
  return m;
}

/// Layouts covering the edge cases: T = 1, all-context, one group,
/// singleton groups, group sizes that are not multiples of the 6-row
/// query block or the 16-key panel, and ids no rule groups by.
std::vector<MaskCase> MaskCases() {
  Rng rng(51);
  std::vector<MaskCase> cases;
  cases.push_back({"single context token", {0}, {0}});
  cases.push_back({"single grid token", {3}, {2}});
  cases.push_back({"all context", std::vector<int32_t>(23, 0),
                   std::vector<int32_t>(23, 0)});
  {
    MaskCase m{"one group", {}, {}};
    for (int32_t i = 0; i < 29; ++i) {
      m.row.push_back(1);
      m.col.push_back(1);
    }
    cases.push_back(m);
  }
  {
    MaskCase m{"singletons", {}, {}};
    for (int32_t i = 0; i < 31; ++i) {
      m.row.push_back(i + 1);
      m.col.push_back(i + 1);
    }
    cases.push_back(m);
  }
  {
    // Groups of 7, 13, 17, 1, 5 and 2 tokens, interleaved with context
    // and listed out of id order.
    MaskCase m{"odd group sizes", {}, {}};
    const int32_t sizes[] = {7, 13, 17, 1, 5, 2};
    for (int32_t g = 0; g < 6; ++g) {
      for (int32_t i = 0; i < sizes[g]; ++i) {
        const int32_t id = 6 - g;
        m.row.push_back(id);
        m.col.push_back(i % 3 + 1);
        if (i % 4 == 3) {
          m.row.push_back(0);
          m.col.push_back(0);
        }
      }
    }
    cases.push_back(m);
  }
  {
    // Ids no rule groups by (negative) next to large ones.
    MaskCase m{"negative and large ids", {}, {}};
    for (int32_t i = 0; i < 37; ++i) {
      m.row.push_back(i % 5 == 0 ? -1 - i : (i % 3 == 0 ? 1 << 30 : i % 4));
      m.col.push_back(i % 7 == 0 ? -2 : (i % 2 == 0 ? 0 : 1 << 29));
    }
    cases.push_back(m);
  }
  cases.push_back(TableLayout(rng, 3, 4));
  cases.push_back(TableLayout(rng, 9, 3));
  cases.push_back(TableLayout(rng, 24, 5));
  return cases;
}

constexpr kernels::MaskRule kAllRules[] = {
    kernels::MaskRule::kNone, kernels::MaskRule::kSameRow,
    kernels::MaskRule::kSameColumn, kernels::MaskRule::kRowOrColumn,
    kernels::MaskRule::kSameGroup};

std::vector<float> MaterializeMask(const kernels::MaskView& m, int64_t t) {
  std::vector<float> bias(static_cast<size_t>(t * t));
  for (int64_t i = 0; i < t; ++i) {
    for (int64_t j = 0; j < t; ++j) {
      bias[static_cast<size_t>(i * t + j)] =
          kernels::MaskVisible(m, i, j) ? 0.0f : kernels::kMaskedScore;
    }
  }
  return bias;
}

struct AttnInputs {
  int64_t t, dk, dv;
  std::vector<float> q, k, v;
  AttnInputs(int64_t t_, int64_t dk_, int64_t dv_, Rng& rng)
      : t(t_), dk(dk_), dv(dv_),
        q(RandomVec(t_ * dk_, rng, -1.0f, 1.0f)),
        k(RandomVec(t_ * dk_, rng, -1.0f, 1.0f)),
        v(RandomVec(t_ * dv_, rng, -1.0f, 1.0f)) {}
  float scale() const { return 1.0f / std::sqrt(static_cast<float>(dk)); }
};

/// Runs the dispatched masked kernel; returns out (and probs when asked).
std::vector<float> RunMasked(const AttnInputs& in, const kernels::MaskView& m,
                             std::vector<float>* probs = nullptr) {
  std::vector<float> out(static_cast<size_t>(in.t * in.dv), -7.0f);
  if (probs != nullptr) probs->assign(static_cast<size_t>(in.t * in.t), -7.0f);
  kernels::MaskedAttention(in.q.data(), in.k.data(), in.v.data(), m,
                           in.scale(), in.t, in.dk, in.dv, out.data(),
                           probs != nullptr ? probs->data() : nullptr);
  return out;
}

std::vector<float> RunDense(const AttnInputs& in, const float* bias,
                            bool naive, std::vector<float>* probs = nullptr) {
  std::vector<float> out(static_cast<size_t>(in.t * in.dv));
  if (probs != nullptr) probs->assign(static_cast<size_t>(in.t * in.t), 0.0f);
  auto fn = naive ? &kernels::naive::FusedAttention : &kernels::FusedAttention;
  fn(in.q.data(), in.k.data(), in.v.data(), bias, in.scale(), in.t, in.t,
     in.dk, in.dv, out.data(), probs != nullptr ? probs->data() : nullptr);
  return out;
}

bool Bitwise(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

const int64_t kMaskDims[][2] = {{16, 16}, {7, 5}, {24, 40}};

TEST(KernelsTest, MaskedAttentionMatchesNaiveOnMaterializedBias) {
  Rng rng(52);
  for (const MaskCase& c : MaskCases()) {
    for (const auto& dims : kMaskDims) {
      const AttnInputs in(c.size(), dims[0], dims[1], rng);
      for (kernels::MaskRule rule : kAllRules) {
        const kernels::MaskView m{rule, c.row.data(), c.col.data()};
        const std::vector<float> bias = MaterializeMask(m, in.t);
        std::vector<float> got_p, want_p;
        const std::vector<float> got = RunMasked(in, m, &got_p);
        const std::vector<float> want =
            RunDense(in, bias.data(), true, &want_p);
        SCOPED_TRACE(c.name + " rule " +
                     std::to_string(static_cast<int>(rule)) + " dk " +
                     std::to_string(in.dk));
        ExpectAllNear(got, want, 1e-4f);
        ExpectAllNear(got_p, want_p, 1e-5f);
        // Masked probabilities are exactly zero.
        for (size_t i = 0; i < bias.size(); ++i) {
          if (bias[i] != 0.0f) {
            ASSERT_EQ(got_p[i], 0.0f) << "at " << i;
          }
        }
        // The naive mask reference is the naive dense kernel, bit for bit.
        std::vector<float> naive_p;
        std::vector<float> naive(static_cast<size_t>(in.t * in.dv));
        naive_p.resize(static_cast<size_t>(in.t * in.t));
        kernels::naive::MaskedAttention(in.q.data(), in.k.data(), in.v.data(),
                                        m, in.scale(), in.t, in.dk, in.dv,
                                        naive.data(), naive_p.data());
        EXPECT_TRUE(Bitwise(naive, want));
        EXPECT_TRUE(Bitwise(naive_p, want_p));
      }
    }
  }
}

TEST(KernelsTest, MaskedAttentionUnionAndNoneRulesAreTheDenseKernel) {
  // kRowOrColumn computes the dense kernel's bias in place; kNone is
  // the dense kernel with no bias. Both must match it bit for bit in
  // the active tier, probabilities included.
  Rng rng(53);
  for (const MaskCase& c : MaskCases()) {
    for (const auto& dims : kMaskDims) {
      const AttnInputs in(c.size(), dims[0], dims[1], rng);
      SCOPED_TRACE(c.name + " dk " + std::to_string(in.dk));
      const kernels::MaskView turl{kernels::MaskRule::kRowOrColumn,
                                   c.row.data(), c.col.data()};
      const std::vector<float> bias = MaterializeMask(turl, in.t);
      std::vector<float> got_p, want_p;
      EXPECT_TRUE(Bitwise(RunMasked(in, turl, &got_p),
                          RunDense(in, bias.data(), false, &want_p)));
      EXPECT_TRUE(Bitwise(got_p, want_p));
      const kernels::MaskView none{};
      EXPECT_TRUE(Bitwise(RunMasked(in, none, &got_p),
                          RunDense(in, nullptr, false, &want_p)));
      EXPECT_TRUE(Bitwise(got_p, want_p));
    }
  }
}

TEST(KernelsTest, MaskedAttentionThreadCountAndCaptureInvariantBitwise) {
  Rng rng(54);
  for (const MaskCase& c : MaskCases()) {
    const AttnInputs in(c.size(), 16, 24, rng);
    for (kernels::MaskRule rule : kAllRules) {
      SCOPED_TRACE(c.name + " rule " + std::to_string(static_cast<int>(rule)));
      const kernels::MaskView m{rule, c.row.data(), c.col.data()};
      std::vector<float> base, base_p;
      {
        ScopedThreads threads(1);
        base = RunMasked(in, m);
        RunMasked(in, m, &base_p);
      }
      for (int n : {2, 4}) {
        ScopedThreads threads(n);
        std::vector<float> probs;
        // Capture off and on, at every thread count: same output bits.
        EXPECT_TRUE(Bitwise(RunMasked(in, m), base)) << n << " threads";
        EXPECT_TRUE(Bitwise(RunMasked(in, m, &probs), base)) << n;
        EXPECT_TRUE(Bitwise(probs, base_p)) << n << " threads";
      }
    }
  }
}

TEST(KernelsTest, TensorStorageIsCacheLineAligned) {
  for (auto shape : {std::vector<int64_t>{1}, {3, 5}, {33, 7}, {128, 128}}) {
    Tensor t = Tensor::Zeros(shape);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(t.data()) %
                  AlignedBuffer::kAlignment,
              0u);
  }
}

TEST(KernelsTest, GrainTracksFlopsBudget) {
  EXPECT_EQ(kernels::GrainForFlopsPerRow(0), 1 << 15);
  EXPECT_EQ(kernels::GrainForFlopsPerRow(1 << 14), 2);
  EXPECT_EQ(kernels::GrainForFlopsPerRow(1 << 20), 1);
}

TEST(KernelsTest, SimdLevelIsResolvedAndNamed) {
  const kernels::SimdLevel level = kernels::ActiveSimdLevel();
  EXPECT_EQ(level, kernels::ActiveSimdLevel());  // stable across calls
  const char* name = kernels::SimdLevelName(level);
  EXPECT_TRUE(std::string(name) == "naive" || std::string(name) == "scalar" ||
              std::string(name) == "avx2");
  if (level == kernels::SimdLevel::kAvx2) {
    EXPECT_TRUE(kernels::Avx2CompiledIn());
  }
}

// -- Dispatch registry ----------------------------------------------------

TEST(KernelsTest, VariantTableEnumeratesOpsAndPinsActive) {
  const std::vector<kernels::OpVariants> table = kernels::ActiveVariantTable();
  std::map<std::string, kernels::OpVariants> by_op;
  for (const kernels::OpVariants& op : table) by_op[op.op] = op;
  // Core f32 ops plus the int8 translation unit's ops must all be
  // registered — the cross-TU provider hook is load-bearing here.
  for (const char* op : {"matmul", "matmul_tb", "matmul_ta", "dot",
                         "softmax_rows", "attention", "masked_attention",
                         "tied_softmax_forward", "tied_softmax_backward",
                         "quantize_u8", "matmul_int8"}) {
    ASSERT_EQ(by_op.count(op), 1u) << op;
  }
  const std::string active_level =
      kernels::SimdLevelName(kernels::ActiveSimdLevel());
  for (const kernels::OpVariants& op : table) {
    ASSERT_FALSE(op.available.empty()) << op.op;
    // The dispatched variant is always one of the compiled-in ones.
    EXPECT_NE(std::find(op.available.begin(), op.available.end(), op.active),
              op.available.end())
        << op.op << " active=" << op.active;
    // No op may dispatch above the resolved level.
    if (op.active == "avx2") EXPECT_EQ(active_level, "avx2") << op.op;
    if (active_level == "naive") EXPECT_NE(op.active, "avx2") << op.op;
  }
}

TEST(KernelsTest, VariantTableJsonMentionsEveryOp) {
  const std::string json = kernels::VariantTableJson();
  for (const kernels::OpVariants& op : kernels::ActiveVariantTable()) {
    EXPECT_NE(json.find("\"" + op.op + "\":{\"active\":\"" + op.active + "\""),
              std::string::npos)
        << op.op;
  }
}

// -- Int8 quantization properties (randomized, seeded) --------------------

TEST(KernelsTest, PackWeightsPerChannelScaleIsAbsmaxOverRange) {
  Rng rng(50);
  for (const MatShape& s : kMatShapes) {
    std::vector<float> w = RandomVec(s.k * s.n, rng, -3.0f, 3.0f);
    kernels::QuantizedMatrix q = kernels::PackWeightsInt8(w.data(), s.k, s.n);
    ASSERT_EQ(q.k, s.k);
    ASSERT_EQ(q.n, s.n);
    ASSERT_EQ(q.scale.size(), static_cast<size_t>(s.n));
    for (int64_t j = 0; j < s.n; ++j) {
      float absmax = 0.0f;
      for (int64_t i = 0; i < s.k; ++i)
        absmax = std::max(absmax, std::fabs(w[i * s.n + j]));
      EXPECT_FLOAT_EQ(q.scale[j],
                      absmax / static_cast<float>(kernels::kWeightQuantMax))
          << "col " << j;
    }
  }
}

TEST(KernelsTest, WeightRoundTripErrorBoundedByHalfStep) {
  Rng rng(51);
  for (const MatShape& s : kMatShapes) {
    std::vector<float> w = RandomVec(s.k * s.n, rng, -2.0f, 2.0f);
    kernels::QuantizedMatrix q = kernels::PackWeightsInt8(w.data(), s.k, s.n);
    std::vector<float> back(static_cast<size_t>(s.k * s.n), -99.0f);
    kernels::DequantizeWeights(q, back.data());
    for (int64_t i = 0; i < s.k; ++i) {
      for (int64_t j = 0; j < s.n; ++j) {
        // Round-nearest within the symmetric range: error is at most
        // half a quantization step of channel j.
        const float err = std::fabs(back[i * s.n + j] - w[i * s.n + j]);
        ASSERT_LE(err, 0.5f * q.scale[j] + 1e-6f)
            << "(" << i << "," << j << ")";
      }
    }
  }
}

TEST(KernelsTest, ActivationRoundTripBoundedAndSaturates) {
  Rng rng(52);
  const int64_t n = 513;
  const float absmax = 2.5f;
  std::vector<float> x = RandomVec(n, rng, -absmax, absmax);
  // Out-of-range and boundary probes: quantization must saturate, not
  // wrap, and zero must land exactly on the zero point.
  x[0] = 10.0f;
  x[1] = -10.0f;
  x[2] = absmax;
  x[3] = -absmax;
  x[4] = 0.0f;
  std::vector<uint8_t> q(static_cast<size_t>(n));
  std::vector<float> back(static_cast<size_t>(n));
  kernels::QuantizeU8(x.data(), q.data(), n, absmax);
  kernels::DequantizeU8(q.data(), back.data(), n, absmax);
  EXPECT_EQ(q[0], kernels::kActZeroPoint + kernels::kActQuantMax);  // 255
  EXPECT_EQ(q[1], kernels::kActZeroPoint - kernels::kActQuantMax);  // 1
  EXPECT_EQ(q[4], kernels::kActZeroPoint);
  const float step = absmax / static_cast<float>(kernels::kActQuantMax);
  for (int64_t i = 0; i < n; ++i) {
    const float clamped = std::min(absmax, std::max(-absmax, x[i]));
    ASSERT_NEAR(back[i], clamped, 0.5f * step + 1e-6f) << i;
  }
}

TEST(KernelsTest, ZeroAbsmaxQuantizesToZeroPoint) {
  const float x[3] = {-1.0f, 0.0f, 5.0f};
  uint8_t q[3] = {0, 0, 0};
  float back[3] = {-99.0f, -99.0f, -99.0f};
  kernels::QuantizeU8(x, q, 3, 0.0f);
  kernels::DequantizeU8(q, back, 3, 0.0f);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(q[i], kernels::kActZeroPoint) << i;
    EXPECT_EQ(back[i], 0.0f) << i;
  }
}

TEST(KernelsTest, ZeroChannelContributesExactlyBias) {
  Rng rng(53);
  const int64_t m = 5, k = 37, n = 19;
  std::vector<float> w = RandomVec(k * n, rng);
  for (int64_t i = 0; i < k; ++i) w[i * n + 7] = 0.0f;  // dead channel
  std::vector<float> x = RandomVec(m * k, rng);
  std::vector<float> bias = RandomVec(n, rng, -0.5f, 0.5f);
  kernels::QuantizedMatrix q = kernels::PackWeightsInt8(w.data(), k, n);
  EXPECT_EQ(q.scale[7], 0.0f);
  std::vector<float> out(static_cast<size_t>(m * n));
  kernels::MatMulInt8(x.data(), m, q, bias.data(), 2.0f, out.data());
  // scale 0 zeroes the dequantize multiply, so the dead channel's
  // output is bitwise the bias — no accumulated quantization noise.
  for (int64_t i = 0; i < m; ++i) EXPECT_EQ(out[i * n + 7], bias[7]) << i;
}

TEST(KernelsTest, MatMulInt8MatchesDequantizedReference) {
  Rng rng(54);
  for (const MatShape& s : kMatShapes) {
    std::vector<float> x = RandomVec(s.m * s.k, rng, -1.0f, 1.0f);
    std::vector<float> w = RandomVec(s.k * s.n, rng, -1.0f, 1.0f);
    std::vector<float> bias = RandomVec(s.n, rng, -0.5f, 0.5f);
    float act_absmax = 0.0f;
    for (float v : x) act_absmax = std::max(act_absmax, std::fabs(v));
    kernels::QuantizedMatrix q = kernels::PackWeightsInt8(w.data(), s.k, s.n);
    std::vector<float> got(static_cast<size_t>(s.m * s.n), -99.0f);
    kernels::MatMulInt8(x.data(), s.m, q, bias.data(), act_absmax, got.data());

    // Reference over the *dequantized* operands in double: isolates the
    // integer pipeline (which must be exact up to the float epilogue)
    // from the quantization error itself.
    std::vector<float> wd(static_cast<size_t>(s.k * s.n));
    kernels::DequantizeWeights(q, wd.data());
    std::vector<uint8_t> xq(static_cast<size_t>(s.k));
    std::vector<float> xd(static_cast<size_t>(s.k));
    std::vector<float> want(static_cast<size_t>(s.m * s.n));
    for (int64_t i = 0; i < s.m; ++i) {
      kernels::QuantizeU8(x.data() + i * s.k, xq.data(), s.k, act_absmax);
      kernels::DequantizeU8(xq.data(), xd.data(), s.k, act_absmax);
      for (int64_t j = 0; j < s.n; ++j) {
        double acc = 0.0;
        for (int64_t kk = 0; kk < s.k; ++kk)
          acc += static_cast<double>(xd[kk]) *
                 static_cast<double>(wd[kk * s.n + j]);
        want[i * s.n + j] = static_cast<float>(acc) + bias[j];
      }
    }
    ExpectAllNear(got, want, 1e-4f);
  }
}

TEST(KernelsTest, MatMulInt8ThreadCountInvariantBitwise) {
  Rng rng(55);
  const int64_t m = 33, k = 70, n = 45;
  std::vector<float> x = RandomVec(m * k, rng);
  std::vector<float> w = RandomVec(k * n, rng);
  std::vector<float> bias = RandomVec(n, rng);
  kernels::QuantizedMatrix q = kernels::PackWeightsInt8(w.data(), k, n);
  std::vector<float> o1(static_cast<size_t>(m * n));
  std::vector<float> o4(static_cast<size_t>(m * n));
  {
    ScopedThreads threads(1);
    kernels::MatMulInt8(x.data(), m, q, bias.data(), 1.5f, o1.data());
  }
  {
    ScopedThreads threads(4);
    kernels::MatMulInt8(x.data(), m, q, bias.data(), 1.5f, o4.data());
  }
  EXPECT_EQ(std::memcmp(o1.data(), o4.data(), o1.size() * sizeof(float)), 0);
}

}  // namespace
}  // namespace tabrep

#include "simd_pin_main.h"
