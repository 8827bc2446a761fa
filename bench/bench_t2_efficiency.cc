// T2 — Attention efficiency: dense bias vs structure mask (§2.4 / MATE).
//
// The survey's efficiency discussion (and MATE [15] specifically)
// motivates sparse row/column attention: restricting each head to one
// axis of the grid makes work proportional to the visible pairs rather
// than T^2. This bench runs the production fused-attention kernel two
// ways on the same q/k/v, as table size grows:
//   - dense: the head's mask materialized as a [T,T] additive bias
//     (kernels::FusedAttention scores every pair),
//   - mask: the structure itself (kernels::MaskedAttention skips the
//     key panels the mask hides),
// for MATE's row and column heads and TURL's union rule, plus the
// visible-pair fraction, the bias memory a head no longer needs, and an
// agreement check against the dense result.
//
// Gate (exit 1 on failure): for the MATE row head, dense/mask time is
// >= 1.0 at every size and larger at 128 rows than at 4. Both sides run
// on one lane, timed in thread-CPU seconds, in interleaved blocks with
// best-of per side, so the ratio is a property of the kernels rather
// than of the machine's load.

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "eval/metrics.h"
#include "models/visibility.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "tensor/kernels.h"

using namespace tabrep;
using namespace tabrep::bench;

namespace {

/// A rows x 4 numeric table serialization.
TokenizedTable MakeTable(const World& w, int64_t rows) {
  SyntheticCorpusOptions opts;
  opts.num_tables = 1;
  opts.min_rows = rows;
  opts.max_rows = rows;
  // Numeric (census/sensor-style) tables can grow to any row count;
  // entity tables are bounded by the fact-base sizes.
  opts.numeric_table_fraction = 1.0;
  opts.seed = 1234 + static_cast<uint64_t>(rows);
  TableCorpus one = GenerateSyntheticCorpus(opts);
  SerializerOptions sopts = w.serializer->options();
  sopts.max_tokens = 4096;
  sopts.max_rows = rows;
  TableSerializer serializer(w.tokenizer.get(), sopts);
  return serializer.Serialize(one.tables[0]);
}

double ThreadSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Timing {
  double dense_ms = 0.0;
  double mask_ms = 0.0;
  double ratio() const { return dense_ms / mask_ms; }
};

/// Best-of-`blocks` per-call time of each side, blocks interleaved.
template <typename Dense, typename Masked>
Timing TimeInterleaved(Dense&& dense, Masked&& masked, int64_t t, int blocks) {
  const int iters = static_cast<int>(
      std::max<int64_t>(1, 4'000'000 / std::max<int64_t>(1, t * t)));
  auto block = [iters](auto&& body) {
    const double t0 = ThreadSeconds();
    for (int i = 0; i < iters; ++i) body();
    return (ThreadSeconds() - t0) / iters * 1e3;
  };
  dense();  // warm up
  masked();
  Timing best{1e30, 1e30};
  for (int b = 0; b < blocks; ++b) {
    best.dense_ms = std::min(best.dense_ms, block(dense));
    best.mask_ms = std::min(best.mask_ms, block(masked));
  }
  return best;
}

double MaxRelDiff(const std::vector<float>& got,
                  const std::vector<float>& want) {
  double worst = 0.0;
  for (size_t i = 0; i < got.size(); ++i) {
    const double bound = std::max(1.0, std::fabs(static_cast<double>(want[i])));
    worst = std::max(worst, std::fabs(got[i] - want[i]) / bound);
  }
  return worst;
}

}  // namespace

int main() {
  PrintHeader("T2", "Dense bias vs structure-mask attention efficiency (§2.4)");
  EnableBenchObs();
  World w = MakeWorld();
  const int64_t d = 64;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  const int blocks = static_cast<int>(BenchSteps(7, 5));
  Rng rng(9);
  // One lane: the ratio is a kernel property (see the header comment).
  runtime::Configure({1});

  std::printf("\nOne attention head (dim %lld), single lane; ms per call, "
              "best of %d interleaved blocks. Visible pair fraction in "
              "parentheses.\n",
              static_cast<long long>(d), blocks);
  std::vector<std::vector<std::string>> rows_out;
  std::vector<double> row_ratios;
  double worst_diff = 0.0;
  const std::vector<int64_t> sizes = {4, 8, 16, 32, 64, 128};
  for (int64_t rows : sizes) {
    const TokenizedTable serialized = MakeTable(w, rows);
    const int64_t t = serialized.size();
    const nn::AttentionMask mate = MateMask(serialized, 2);
    const nn::AttentionMask turl = TurlMask(serialized);
    Tensor q = Tensor::Randn({t, d}, rng);
    Tensor k = Tensor::Randn({t, d}, rng);
    Tensor v = Tensor::Randn({t, d}, rng);
    std::vector<float> dense_out(static_cast<size_t>(t * d));
    std::vector<float> mask_out(static_cast<size_t>(t * d));

    std::vector<std::string> line = {std::to_string(rows), std::to_string(t)};
    struct Case {
      const nn::AttentionMask* mask;
      int64_t head;
    };
    for (const Case& c : {Case{&mate, 0}, Case{&mate, 1}, Case{&turl, 0}}) {
      const Tensor bias = c.mask->Materialize(c.head);
      const kernels::MaskView view = c.mask->view(c.head);
      auto dense = [&] {
        kernels::FusedAttention(q.data(), k.data(), v.data(), bias.data(),
                                scale, t, t, d, d, dense_out.data(), nullptr);
      };
      auto masked = [&] {
        kernels::MaskedAttention(q.data(), k.data(), v.data(), view, scale, t,
                                 d, d, mask_out.data(), nullptr);
      };
      const Timing timing = TimeInterleaved(dense, masked, t, blocks);
      worst_diff = std::max(worst_diff, MaxRelDiff(mask_out, dense_out));
      if (c.mask == &mate && c.head == 0) {
        line.push_back(Fmt(timing.dense_ms, 3));
        row_ratios.push_back(timing.ratio());
      }
      line.push_back(Fmt(timing.mask_ms, 3) + " (" +
                     Fmt(c.mask->VisibleFraction(c.head), 2) + ")");
      line.push_back(Fmt(timing.ratio(), 2) + "x");
    }
    line.push_back(Fmt(static_cast<double>(t * t * 4) / 1e6, 1));
    rows_out.push_back(line);
    obs::Registry::Get()
        .gauge("tabrep.bench.t2.mate_row_ratio_rows" + std::to_string(rows))
        .Set(row_ratios.back());
  }
  runtime::Configure({0});  // back to the env-resolved pool
  std::printf("%s",
              RenderTextTable({"table rows", "seq len", "dense ms",
                               "mate row mask ms", "row ratio",
                               "mate col mask ms", "col ratio",
                               "turl mask ms", "turl ratio",
                               "bias MB/head"},
                              rows_out)
                  .c_str());
  std::printf("\nbias MB/head is the dense [T,T] float bias the mask "
              "replaces; the mask itself holds 8 bytes per token.\n");

  // Correctness: the mask path agrees with the dense-bias path within
  // the kernel suite's attention tolerance (TURL's union rule is
  // bitwise equal; the partition rules re-associate the softmax sum).
  const bool agree = worst_diff <= 1e-4;
  std::printf("\nKernel agreement (mask vs dense bias, max rel diff %.2e): "
              "%s\n",
              worst_diff, agree ? "MATCH" : "MISMATCH");

  bool gate = agree;
  for (size_t i = 0; i < sizes.size(); ++i) {
    if (!(row_ratios[i] >= 1.0)) {
      std::printf("T2 gate: mate row mask slower than dense at %lld rows "
                  "(%.2fx)\n",
                  static_cast<long long>(sizes[i]), row_ratios[i]);
      gate = false;
    }
  }
  if (!(row_ratios.back() > row_ratios.front())) {
    std::printf("T2 gate: ratio at %lld rows (%.2fx) is not above %lld rows "
                "(%.2fx)\n",
                static_cast<long long>(sizes.back()), row_ratios.back(),
                static_cast<long long>(sizes.front()), row_ratios.front());
    gate = false;
  }
  std::printf("\nT2 gate (mate row ratio >= 1.0 at every size, larger at "
              "%lld rows than at %lld): %s\n",
              static_cast<long long>(sizes.back()),
              static_cast<long long>(sizes.front()), gate ? "PASS" : "FAIL");
  WriteBenchObsReport("t2");
  if (!gate) return 1;
  std::printf("\nbench_t2: OK\n");
  return 0;
}
