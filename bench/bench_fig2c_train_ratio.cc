// Fig. 2c companion — what one pretraining example costs.
//
// Times one TURL MLM + MER training example (forward + backward)
// against one graph-free forward of the same example, at the model and
// corpus shape of bench_fig2c_pretraining, and records the ratio as the
// gauge tabrep.bench.fig2c.train_over_forward in BENCH_fig2c_train_ratio.json
// (gated by the bench_fig2c_train_ratio_gate ctest). It is a binary of
// its own so that the fig2c pretraining run, whose counters
// bench_baseline_gate_fig2c compares against a baseline, starts cold.

#include <algorithm>
#include <cstdio>
#include <ctime>

#include "bench_util.h"
#include "obs/metrics.h"
#include "pretrain/trainer.h"
#include "runtime/runtime.h"
#include "tensor/autograd.h"

using namespace tabrep;
using namespace tabrep::bench;

namespace {

double ThreadSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

int main() {
  PrintHeader("Fig. 2c (training step)",
              "One training example over one forward, TURL MLM + MER");
  EnableBenchObs();
  // The corpus, model and objectives of bench_fig2c_pretraining.
  WorldOptions wopts;
  wopts.num_tables = 80;
  wopts.numeric_fraction = 0.1;
  World w = MakeWorld(wopts);
  const ModelConfig config = BenchModelConfig(ModelFamily::kTurl, w);
  PretrainConfig pconfig;
  pconfig.batch_size = 2;
  pconfig.use_mer = true;

  // One lane, thread-CPU time: the two sides alternate in blocks and
  // each keeps its best block, so machine speed and load cancel in the
  // ratio.
  runtime::Configure({1});
  TableEncoderModel model(config);
  PretrainTrainer trainer(&model, w.serializer.get(), pconfig);
  constexpr uint64_t kMaskSeed = 11;
  auto forward = [&](const TokenizedTable& example) {
    ag::NoGradScope no_grad;
    Rng rng(kMaskSeed);
    return trainer.RunExample(example, /*train=*/false, rng);
  };
  auto train = [&](const TokenizedTable& example) {
    ag::GradTable grads;  // a fresh table per example, as in Train()
    ag::ScopedGradRedirect redirect(&grads);
    Rng rng(kMaskSeed);
    trainer.RunExample(example, /*train=*/true, rng);
  };
  // The first training table whose masks give both objectives targets.
  TokenizedTable example;
  for (const Table& t : w.train.tables) {
    example = w.serializer->Serialize(t);
    const PretrainTrainer::StepStats stats = forward(example);
    if (stats.mlm_counted > 0 && stats.mer_counted > 0) break;
  }
  const int iters = SmokeMode() ? 16 : 20;
  const int blocks = SmokeMode() ? 20 : 40;
  auto block = [&](auto&& body) {
    const double t0 = ThreadSeconds();
    for (int i = 0; i < iters; ++i) body(example);
    return (ThreadSeconds() - t0) / iters * 1e3;
  };
  train(example);  // warm up pools and scratch
  double forward_ms = 1e30, train_ms = 1e30;
  for (int b = 0; b < blocks; ++b) {
    forward_ms = std::min(forward_ms, block(forward));
    train_ms = std::min(train_ms, block(train));
  }
  const double ratio = train_ms / forward_ms;
  std::printf("\nTraining-example cost (T=%lld, one lane, best of %d "
              "interleaved blocks of %d): forward %.3f ms, forward + "
              "backward %.3f ms, ratio %.2f\n",
              static_cast<long long>(example.size()), blocks, iters,
              forward_ms, train_ms, ratio);
  obs::Registry::Get()
      .gauge("tabrep.bench.fig2c.train_over_forward")
      .Set(ratio);
  std::printf("\nbench_fig2c_train_ratio: OK\n");
  WriteBenchObsReport("fig2c_train_ratio");
  return 0;
}
