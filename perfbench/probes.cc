// Kernel, runtime and model probes. They run in the benchmark process
// after the workload, so every layer is reported against this
// machine's measured GEMM peak rather than against an earlier run.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "runtime/runtime.h"
#include "tensor/kernels.h"
#include "tensor/kernels_int8.h"
#include "workloads.h"

namespace perfbench {

using namespace tabrep;

namespace {

std::vector<float> RandomBuffer(int64_t n, Rng& rng) {
  std::vector<float> out(static_cast<size_t>(n));
  for (float& v : out) v = rng.NextUniform(-1.0f, 1.0f);
  return out;
}

/// Seconds per call of `fn`: calls are grouped into batches of about
/// 20 ms; the fastest batch wins (the roofline question is what the
/// kernel can reach, not what a descheduled batch got).
double SecondsPerCall(const std::function<void()>& fn, double total_s) {
  fn();  // warm caches and packed panels
  const int64_t t0 = NowNs();
  fn();
  const double once = std::max(1e-7, Seconds(t0, NowNs()));
  const int64_t per_batch =
      std::max<int64_t>(1, static_cast<int64_t>(0.02 / once));
  const int batches = std::max(3, static_cast<int>(total_s / 0.02));
  double best = 1e30;
  for (int b = 0; b < batches; ++b) {
    const int64_t s = NowNs();
    for (int64_t i = 0; i < per_batch; ++i) fn();
    best = std::min(best, Seconds(s, NowNs()) / static_cast<double>(per_batch));
  }
  return best;
}

struct Gemm {
  int64_t m, k, n;
  std::vector<float> a, b, c;
  Gemm(int64_t m_, int64_t k_, int64_t n_, Rng& rng)
      : m(m_), k(k_), n(n_), a(RandomBuffer(m * k, rng)),
        b(RandomBuffer(k * n, rng)), c(static_cast<size_t>(m * n)) {}
  void Run() {
    ScopedSpan span("kernels.MatMul");
    kernels::MatMul(a.data(), b.data(), c.data(), m, k, n);
  }
  double Gflops(double total_s) {
    const double s = SecondsPerCall([this] { Run(); }, total_s);
    return 2.0 * static_cast<double>(m * k * n) / s / 1e9;
  }
};

/// GFLOP/s of multi-head fused attention at sequence length t (4 heads
/// of 12), counting the two [t,t]x[t,12] products per head.
double AttentionGflops(int64_t t, bool dense_bias, Rng& rng) {
  const int64_t heads = 4, dh = 12;
  std::vector<float> q = RandomBuffer(t * dh, rng);
  std::vector<float> k = RandomBuffer(t * dh, rng);
  std::vector<float> v = RandomBuffer(t * dh, rng);
  std::vector<float> bias;
  if (dense_bias) bias.assign(static_cast<size_t>(t * t), 0.0f);
  std::vector<float> out(static_cast<size_t>(t * dh));
  const double s = SecondsPerCall(
      [&] {
        for (int64_t h = 0; h < heads; ++h) {
          ScopedSpan span("kernels.FusedAttention");
          kernels::FusedAttention(q.data(), k.data(), v.data(),
                                  dense_bias ? bias.data() : nullptr, 0.288f,
                                  t, t, dh, dh, out.data(), nullptr);
        }
      },
      0.25);
  return 4.0 * static_cast<double>(heads * t * t * dh) / s / 1e9;
}

}  // namespace

void RunKernelProbes(int64_t tokens, Result* result) {
  Rng rng(0x5eed);
  Gemm peak(512, 512, 512, rng);
  const double peak_gflops = peak.Gflops(0.4);
  Gemm proj(tokens, kModelDim, kModelDim, rng);
  const double proj_gflops = proj.Gflops(0.1);
  Gemm ffn(tokens, kModelDim, kModelFfn, rng);
  const double ffn_gflops = ffn.Gflops(0.1);
  const double attn96 = AttentionGflops(96, false, rng);
  const double attn512 = AttentionGflops(512, true, rng);

  // f32 vs int8 at one square shape, interleaved so both see the same
  // machine state.
  const int64_t n8 = 192;
  Gemm f32(n8, n8, n8, rng);
  std::vector<float> w = RandomBuffer(n8 * n8, rng);
  const kernels::QuantizedMatrix packed = kernels::PackWeightsInt8(w.data(), n8, n8);
  std::vector<float> out(static_cast<size_t>(n8 * n8));
  double f32_s = 1e30, int8_s = 1e30;
  for (int round = 0; round < 3; ++round) {
    f32_s = std::min(f32_s, SecondsPerCall([&] { f32.Run(); }, 0.05));
    int8_s = std::min(int8_s, SecondsPerCall(
                                  [&] {
                                    kernels::MatMulInt8(f32.a.data(), n8,
                                                        packed, nullptr, 1.0f,
                                                        out.data());
                                  },
                                  0.05));
  }
  const double gemm_flops = 2.0 * static_cast<double>(n8 * n8 * n8);

  // Small GEMM at serving shape, 4 threads vs 1, interleaved.
  Gemm small(96, 64, 64, rng);
  std::vector<double> t1, t4;
  for (int round = 0; round < 5; ++round) {
    runtime::Configure({.num_threads = 1});
    t1.push_back(SecondsPerCall([&] { small.Run(); }, 0.04));
    runtime::Configure({.num_threads = 4});
    t4.push_back(SecondsPerCall([&] { small.Run(); }, 0.04));
  }
  runtime::Configure({});  // back to the default thread count

  std::printf("kernel probes (FLOPs computed from shapes, not counted):\n");
  std::printf("  gemm 512^3 %.2f GFLOP/s; proj [%lld,%lld]x[%lld,%lld] %.2f; "
              "ffn x[%lld,%lld] %.2f; attn T=96 %.2f, T=512 (dense bias) %.2f; "
              "f32 n=192 %.2f GFLOP/s vs int8 %.2f GOP/s\n",
              peak_gflops, static_cast<long long>(tokens),
              static_cast<long long>(kModelDim),
              static_cast<long long>(kModelDim),
              static_cast<long long>(kModelDim), proj_gflops,
              static_cast<long long>(kModelDim),
              static_cast<long long>(kModelFfn), ffn_gflops, attn96, attn512,
              gemm_flops / f32_s / 1e9, gemm_flops / int8_s / 1e9);
  result->Set("tensor.gemm_peak_gflops", peak_gflops, "GFLOP/s");
  result->Set("tensor.proj_gemm_gflops", proj_gflops, "GFLOP/s");
  result->Set("tensor.ffn_gemm_gflops", ffn_gflops, "GFLOP/s");
  result->Set("tensor.attn_gflops_t96", attn96, "GFLOP/s");
  result->Set("tensor.attn_gflops_t512", attn512, "GFLOP/s");
  result->Set("tensor.attn_frac_of_peak", attn512 / peak_gflops, "ratio");
  result->Set("tensor.int8_gemm_gops", gemm_flops / int8_s / 1e9, "GOP/s");
  result->Set("tensor.int8_over_f32", f32_s / int8_s, "ratio");
  result->Set("runtime.small_gemm_4t_over_1t", Quantile(t4, 0.5) / Quantile(t1, 0.5),
              "ratio");
}

int64_t MeanTokens(const std::vector<TokenizedTable>& inputs) {
  int64_t tokens = 0;
  for (const TokenizedTable& t : inputs) tokens += t.size();
  return tokens / std::max<int64_t>(1, static_cast<int64_t>(inputs.size()));
}

void RunModelProbe(TableEncoderModel* model,
                   const std::vector<TokenizedTable>& inputs, Result* result) {
  constexpr double kSeconds = 0.5;
  model->SetTraining(false);
  Rng rng(1);
  models::EncodeOptions opts;
  opts.need_cells = false;
  opts.inference = true;
  std::vector<double> us;
  int64_t tokens = 0;
  const int64_t t0 = NowNs();
  for (size_t i = 0; Seconds(t0, NowNs()) < kSeconds || i < inputs.size();
       ++i) {
    const TokenizedTable& in = inputs[i % inputs.size()];
    const int64_t s = NowNs();
    {
      ScopedSpan span("models.Encode");
      models::Encoded enc = model->Encode(in, rng, opts);
    }
    us.push_back(static_cast<double>(NowNs() - s) / 1e3);
    tokens += in.size();
  }
  double total_s = 0.0;
  for (double u : us) total_s += u / 1e6;
  result->Set("models.encode_us_p50", Quantile(us, 0.5), "us");
  result->Set("models.encode_us_p99", Quantile(us, 0.99), "us");
  result->Set("models.tokens_per_s", static_cast<double>(tokens) / total_s,
              "tokens/s");
}

}  // namespace perfbench
