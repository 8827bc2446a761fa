// pretrain_turl: PretrainTrainer::Train on a TURL model with MLM + MER,
// batch 4, in-training eval off. The only workload that runs the
// autograd graph, backward, nn::ParallelBatch and Adam.
//
// The run is a series of rounds; each round builds a fresh model and
// trainer and calls Train() for a fixed number of steps. A sink records
// when each step's record is emitted, so step times and the example
// rate are measured inside Train() without wrapping its internals.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "obs/sink.h"
#include "obs/trace.h"
#include "pretrain/trainer.h"
#include "workloads.h"

namespace perfbench {

using namespace tabrep;

namespace {

constexpr int64_t kSteps = 100;
constexpr int64_t kBatch = 4;
/// Loss windows compared by the learning check.
constexpr int64_t kWindow = 10;

class StepClock : public obs::MetricsSink {
 public:
  void Record(const obs::StepRecord& record) override {
    if (record.kind == "train") times_ns.push_back(NowNs());
  }
  std::vector<int64_t> times_ns;
};

struct PretrainEnv {
  World world;
  ModelConfig config;
};

std::unique_ptr<PretrainEnv> SetUp(uint64_t seed) {
  auto env = std::make_unique<PretrainEnv>();
  // Tables of 14-18 rows serialize past the 96-token cap, so every
  // example has T = 96: a step's cost, and the tensor pool's size
  // classes (hence peak RSS), do not depend on which tables the seed
  // drew.
  WorldOptions wopts;
  wopts.num_tables = 80;
  wopts.min_rows = 14;
  wopts.max_rows = 18;
  wopts.numeric_fraction = 0.1;  // entity-rich, so MER has targets
  wopts.seed = seed;
  env->world = MakeWorld(wopts);
  env->config = BenchModelConfig(ModelFamily::kTurl, env->world, 160, 64);
  return env;
}

PretrainConfig TrainConfig(obs::MetricsSink* sink) {
  PretrainConfig p;
  p.steps = kSteps;
  p.batch_size = kBatch;
  p.peak_lr = 2e-3f;
  p.warmup_steps = 10;
  p.use_mer = true;
  p.eval_every = 0;
  p.sink = sink;
  return p;
}

struct Rounds {
  int64_t rounds = 0;
  std::vector<double> examples_per_s;  // one per round
  std::vector<double> step_us;         // every step after the first
  std::vector<int64_t> round_of;       // latency window: the step's round
  std::vector<std::vector<PretrainLogEntry>> curves;
};

double Loss(const PretrainLogEntry& e) { return e.mlm_loss + e.mer_loss; }

Rounds RunRounds(PretrainEnv& env, double seconds) {
  Rounds out;
  const int64_t t0 = NowNs();
  while (out.rounds == 0 || Seconds(t0, NowNs()) < seconds) {
    TableEncoderModel model(env.config);
    StepClock clock;
    PretrainTrainer trainer(&model, env.world.serializer.get(),
                            TrainConfig(&clock));
    const uint64_t root = SpanRecorder::Get().Reserve();
    const int64_t start = NowNs();
    out.curves.push_back(trainer.Train(env.world.corpus));
    const int64_t end = NowNs();
    ++out.rounds;
    const std::vector<int64_t>& t = clock.times_ns;
    out.examples_per_s.push_back(static_cast<double>((t.size() - 1) * kBatch) /
                                 Seconds(t.front(), t.back()));
    for (size_t i = 1; i < t.size(); ++i) {
      out.step_us.push_back(static_cast<double>(t[i] - t[i - 1]) / 1e3);
      out.round_of.push_back(out.rounds);
      SpanRecorder::Get().Add("pretrain.step", t[i - 1], t[i], root);
    }
    SpanRecorder::Get().Finish(root, "pretrain.Train", start, end);
  }
  return out;
}

void Check(const Rounds& r, Result* result) {
  result->Attempt(r.rounds * kSteps);
  for (const std::vector<PretrainLogEntry>& curve : r.curves) {
    int64_t bad = 0;
    double first = 0.0, last = 0.0;
    for (size_t i = 0; i < curve.size(); ++i) {
      if (!std::isfinite(Loss(curve[i]))) ++bad;
      if (i < kWindow) first += Loss(curve[i]);
      if (i + kWindow >= curve.size()) last += Loss(curve[i]);
    }
    result->Fail("pretrain: non-finite loss", bad);
    if (!(last < first)) {
      result->Fail("pretrain: mean loss of the last steps is not below the "
                   "first steps'");
    }
    // Every round starts from the same seed, so its curve must repeat
    // the first round's bit for bit.
    int64_t diverged = 0;
    for (size_t i = 0; i < curve.size(); ++i) {
      if (Loss(curve[i]) != Loss(r.curves.front()[i])) ++diverged;
    }
    result->Fail("pretrain: a round's loss curve differs from round 1's",
                 diverged);
  }
}

}  // namespace

void RunPretrainTurl(const Args& args, Result* result) {
  double setup_s = 0.0;
  std::unique_ptr<PretrainEnv> env = RepeatSetup<std::unique_ptr<PretrainEnv>>(
      3, [&] { return SetUp(args.seed); }, &setup_s);
  SpanRecorder::Get().Enable(false);  // the baseline rounds run untraced
  int64_t min_t = 1 << 30;
  for (const TokenizedTable& t : env->world.inputs) {
    min_t = std::min(min_t, t.size());
  }
  const int64_t mean_t = MeanTokens(env->world.inputs);
  std::printf("pretrain_turl: %lld tables (T mean %lld, min %lld), TURL dim "
              "48, MLM+MER, batch %lld, %lld steps per round, eval off; "
              "entities %d vocab %d; peak RSS after set-up %.1f MB\n",
              static_cast<long long>(env->world.corpus.size()),
              static_cast<long long>(mean_t), static_cast<long long>(min_t),
              static_cast<long long>(kBatch), static_cast<long long>(kSteps),
              env->world.corpus.entities.size(),
              env->world.tokenizer->vocab().size(), PeakRssMb());

  const Rounds plain =
      RunRounds(*env, args.trace ? args.seconds / 3.0 : args.seconds);
  Check(plain, result);
  const double rate = Quantile(plain.examples_per_s, 0.75);
  const WindowedLatency windowed =
      SummarizeWindows(plain.step_us, plain.round_of);
  std::printf("  %lld rounds: train_examples_per_s %.2f (upper quartile), "
              "step p50 %.1f us, p95 %.1f us (lower quartile) over rounds; "
              "pooled p99 %.1f us (n=%zu); loss %.3f -> %.3f\n",
              static_cast<long long>(plain.rounds), rate, windowed.p50,
              windowed.p95, Quantile(plain.step_us, 0.99),
              plain.step_us.size(), Loss(plain.curves[0].front()),
              Loss(plain.curves[0].back()));
  PrintWindows(windowed);
  if (!args.trace) {
    result->Set("latency_p50_us", windowed.p50, "us");
    result->Set("throughput_per_s", rate, "1/s");
    result->Set("setup_s", setup_s, "s");
    result->Set("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  // Traced rounds: benchmark spans plus the program's own compiled-in
  // op spans (read back through obs::ProfileTable).
  SpanRecorder::Get().Enable(true);
  obs::ClearTrace();
  obs::SetTracingEnabled(true);
  const Rounds traced = RunRounds(*env, args.seconds * 2.0 / 3.0);
  obs::SetTracingEnabled(false);
  Check(traced, result);
  std::vector<LayerRow> extra;
  double chunk_total = 0.0, chunk_self = 0.0;
  for (const obs::OpProfile& op : obs::ProfileTable()) {
    if (op.name == "nn.parallel_batch" || op.name == "nn.optimizer.step") {
      extra.push_back({"program:" + op.name, "pretrain.step", op.count,
                       op.total_ms * 1e3});
    }
    if (op.name == "runtime.chunk") {
      chunk_total = op.total_ms;
      chunk_self = op.self_ms;
    }
  }

  TableEncoderModel model(env->config);
  PretrainTrainer trainer(&model, env->world.serializer.get(),
                          TrainConfig(nullptr));
  const int64_t eval_tables = env->world.corpus.size();
  const int64_t e0 = NowNs();
  {
    ScopedSpan span("pretrain.Evaluate");
    trainer.Evaluate(env->world.corpus, eval_tables);
  }
  const double forward_ms =
      Seconds(e0, NowNs()) * 1e3 / static_cast<double>(eval_tables);

  const double step_ms = Quantile(traced.step_us, 0.5) / 1e3;
  const double traced_rate = Quantile(traced.examples_per_s, 0.75);
  result->Set("pretrain.step_ms_p50", step_ms, "ms");
  result->Set("pretrain.forward_ms_per_example", forward_ms, "ms");
  // Derived, not measured: step time per example minus the forward.
  result->Set("pretrain.backward_opt_ms_per_example_derived",
              step_ms / static_cast<double>(kBatch) - forward_ms, "ms");
  result->Set("pretrain.unattributed_frac",
              chunk_total > 0.0 ? chunk_self / chunk_total : 0.0, "ratio");
  result->Set("obs.trace_overhead_frac", rate / traced_rate - 1.0, "ratio");
  std::printf("  tracing overhead: %.2f examples/s traced vs %.2f untraced\n",
              traced_rate, rate);

  result->Set("serialize.us_per_table", env->world.serialize_us_per_table, "us");
  result->Set("text.vocab_build_s", env->world.vocab_build_s, "s");
  TableEncoderModel probe_model(env->config);
  RunModelProbe(&probe_model, env->world.inputs, result);
  RunKernelProbes(mean_t, result);
  FinishTrace(args, extra, result);
}

}  // namespace perfbench
