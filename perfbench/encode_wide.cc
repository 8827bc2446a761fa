// encode_wide: offline batch encoding of wide MATE tables, in process.
// One submitter keeps max_batch futures outstanding on a BatchedEncoder
// with the cache off (closed loop): attention over ~500 tokens and
// MATE's dense per-head [T,T] bias dominate, the network is absent and
// batching barely matters.

#include <cstdio>
#include <deque>
#include <future>
#include <map>
#include <memory>

#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "serve/serve.h"
#include "workloads.h"

namespace perfbench {

using namespace tabrep;

namespace {

constexpr int64_t kMaxBatch = 8;
constexpr int64_t kNumTables = 64;
constexpr int64_t kMaxTokens = 1024;
constexpr int64_t kRows = 128;
constexpr int64_t kMinTokens = 128;
constexpr int64_t kMaxTarget = 896;
/// Tables whose index is a multiple of this are checked bitwise against
/// a solo Encode.
constexpr size_t kCheckEvery = 8;

struct WideEnv {
  World world;
  std::unique_ptr<TableEncoderModel> model;
  std::vector<Tensor> reference;  // empty for unchecked tables
  std::unique_ptr<serve::BatchedEncoder> encoder;
};

std::unique_ptr<WideEnv> SetUp(uint64_t seed) {
  auto env = std::make_unique<WideEnv>();
  // Census and sensor tables of 128 rows, cut to lengths spread evenly
  // over [128, 896] tokens (mean 512): the seed picks the contents, never
  // the size distribution, which sets the attention cost.
  WorldOptions wopts;
  wopts.num_tables = kNumTables;
  wopts.min_rows = kRows;
  wopts.max_rows = kRows;
  wopts.numeric_fraction = 1.0;
  wopts.max_tokens = kMaxTokens;
  wopts.seed = seed;
  for (int64_t i = 0; i < kNumTables; ++i) {
    wopts.token_targets.push_back(kMinTokens + i * (kMaxTarget - kMinTokens) /
                                                   (kNumTables - 1));
  }
  env->world = MakeWorld(wopts);
  env->model = std::make_unique<TableEncoderModel>(BenchModelConfig(
      ModelFamily::kMate, env->world, kMaxTokens, kRows + 1));
  env->model->SetTraining(false);
  models::EncodeOptions opts;
  opts.need_cells = false;
  opts.inference = true;
  Rng rng(1);
  env->reference.resize(env->world.inputs.size());
  for (size_t i = 0; i < env->world.inputs.size(); i += kCheckEvery) {
    ScopedSpan span("models.Encode");
    env->reference[i] =
        env->model->Encode(env->world.inputs[i], rng, opts).hidden.value();
  }
  serve::BatchedEncoderOptions eopts;
  eopts.max_batch = kMaxBatch;
  eopts.cache_capacity = 0;
  env->encoder = std::make_unique<serve::BatchedEncoder>(env->model.get(), eopts);
  return env;
}

struct Outstanding {
  uint64_t seq = 0;
  size_t table = 0;
  int64_t submit_ns = 0;
  std::unique_ptr<obs::RequestContext> trace;
  std::future<StatusOr<serve::EncodedTablePtr>> future;
};

/// Latency and rate windows: one second of completions.
constexpr int64_t kWindowNs = 1'000'000'000;

struct LoopStats {
  int64_t done = 0, failed = 0, wrong = 0;
  double seconds = 0.0;
  std::vector<double> latency_us;
  std::vector<int64_t> window_of;
  std::vector<double> queue_us, batch_us, inference_us;
  double rate() const { return static_cast<double>(done) / seconds; }
  /// Upper quartile over full windows of completions per second (the
  /// last window is cut short by the end of the loop and left out).
  double window_rate() const {
    std::map<int64_t, double> per_window;
    for (int64_t w : window_of) per_window[w] += 1e9 / kWindowNs;
    if (per_window.size() > 1) per_window.erase(std::prev(per_window.end()));
    std::vector<double> rates;
    for (const auto& [w, r] : per_window) rates.push_back(r);
    return Quantile(rates, 0.75);
  }
};

int64_t Ns(obs::RequestContext::TimePoint t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

LoopStats RunLoop(WideEnv& env, double seconds, uint64_t* next_table) {
  LoopStats out;
  std::deque<Outstanding> inflight;
  const size_t n = env.world.inputs.size();
  const int64_t t0 = NowNs();
  const int64_t stop = t0 + static_cast<int64_t>(seconds * 1e9);
  auto submit = [&] {
    Outstanding o;
    o.seq = (*next_table)++;
    o.table = o.seq % n;
    o.trace = std::make_unique<obs::RequestContext>();
    o.submit_ns = NowNs();
    o.future = env.encoder->Submit(env.world.inputs[o.table], o.trace.get());
    inflight.push_back(std::move(o));
  };
  while (static_cast<int64_t>(inflight.size()) < kMaxBatch) submit();
  while (!inflight.empty()) {
    Outstanding o = std::move(inflight.front());
    inflight.pop_front();
    StatusOr<serve::EncodedTablePtr> r = o.future.get();
    const int64_t ready = NowNs();
    if (ready < stop) submit();
    if (!r.ok()) {
      ++out.failed;
      continue;
    }
    const Tensor& ref = env.reference[o.table];
    if (ref.numel() > 0 && !BitwiseEqual((*r)->hidden, ref)) {
      ++out.wrong;
      continue;
    }
    ++out.done;
    out.latency_us.push_back(static_cast<double>(ready - o.submit_ns) / 1e3);
    out.window_of.push_back((ready - t0) / kWindowNs);
    const obs::RequestContext& c = *o.trace;
    out.queue_us.push_back(static_cast<double>(Ns(c.dequeued) - o.submit_ns) / 1e3);
    out.batch_us.push_back(static_cast<double>(Ns(c.encode_start) - Ns(c.dequeued)) / 1e3);
    out.inference_us.push_back(static_cast<double>(Ns(c.encode_end) - Ns(c.encode_start)) / 1e3);
    SpanRecorder& rec = SpanRecorder::Get();
    if (rec.enabled()) {
      const uint64_t trace = o.seq;
      const uint64_t root = rec.Add("serve.BatchedEncoder.Submit", o.submit_ns,
                                    ready, 0, trace);
      rec.Add("serve.queue", o.submit_ns, Ns(c.dequeued), root, trace);
      rec.Add("serve.batch", Ns(c.dequeued), Ns(c.encode_start), root, trace);
      rec.Add("serve.inference", Ns(c.encode_start), Ns(c.encode_end), root,
              trace);
    }
  }
  out.seconds = Seconds(t0, NowNs());
  return out;
}

void Account(const char* label, const LoopStats& s, Result* result) {
  result->Attempt(s.done + s.failed + s.wrong);
  result->Fail(std::string(label) + ": failed encodes", s.failed);
  result->Fail(std::string(label) +
                   ": batched encodings not bitwise equal to a solo Encode",
               s.wrong);
}

}  // namespace

void RunEncodeWide(const Args& args, Result* result) {
  double setup_s = 0.0;
  std::unique_ptr<WideEnv> env = RepeatSetup<std::unique_ptr<WideEnv>>(
      3, [&] { return SetUp(args.seed); }, &setup_s);
  SpanRecorder::Get().Enable(false);  // warm-up and baseline run untraced
  int64_t min_t = kMaxTokens, max_t = 0;
  for (const TokenizedTable& t : env->world.inputs) {
    min_t = std::min(min_t, t.size());
    max_t = std::max(max_t, t.size());
  }
  const int64_t mean_t = MeanTokens(env->world.inputs);
  std::printf("encode_wide: %zu MATE tables of %lld rows, T mean %lld "
              "(min %lld, max %lld, max_tokens %lld), closed loop with %lld "
              "outstanding, cache off\n",
              env->world.inputs.size(), static_cast<long long>(kRows),
              static_cast<long long>(mean_t),
              static_cast<long long>(min_t), static_cast<long long>(max_t),
              static_cast<long long>(kMaxTokens),
              static_cast<long long>(kMaxBatch));

  uint64_t next_table = 0;
  RunLoop(*env, 0.3, &next_table);  // warm-up, not measured
  const LoopStats plain =
      RunLoop(*env, args.trace ? args.seconds / 3.0 : args.seconds, &next_table);
  Account("encode loop", plain, result);
  const WindowedLatency windowed =
      SummarizeWindows(plain.latency_us, plain.window_of);
  std::printf("  %lld tables in %.3f s (%.2f/s overall): tables_per_s %.2f "
              "(upper quartile), table latency p50 %.1f us, p95 %.1f us "
              "(lower quartile) over %zu windows of 1 s; pooled p99 %.1f us "
              "(n=%zu)\n",
              static_cast<long long>(plain.done), plain.seconds, plain.rate(),
              plain.window_rate(),
              windowed.p50, windowed.p95, windowed.window_p50.size(),
              Quantile(plain.latency_us, 0.99), plain.latency_us.size());
  PrintWindows(windowed);
  if (!args.trace) {
    result->Set("latency_p50_us", windowed.p50, "us");
    result->Set("throughput_per_s", plain.window_rate(), "1/s");
    result->Set("setup_s", setup_s, "s");
    result->Set("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  obs::Registry::Get().ResetAll();
  SpanRecorder::Get().Enable(true);
  const LoopStats traced = RunLoop(*env, args.seconds * 2.0 / 3.0, &next_table);
  Account("traced encode loop", traced, result);

  obs::Registry& reg = obs::Registry::Get();
  result->Set("serve.queue_us", Mean(traced.queue_us), "us");
  result->Set("serve.queue_us_p99", Quantile(traced.queue_us, 0.99), "us");
  result->Set("serve.batch_us", Mean(traced.batch_us), "us");
  result->Set("serve.batch_us_p99", Quantile(traced.batch_us, 0.99), "us");
  result->Set("serve.inference_us", Mean(traced.inference_us), "us");
  result->Set("serve.inference_us_p99", Quantile(traced.inference_us, 0.99), "us");
  result->Set("serve.batch_size_mean",
              reg.histogram("tabrep.serve.batch.size").Stats().mean, "tables");
  result->Set("serve.encoded",
              static_cast<double>(reg.counter("tabrep.serve.encoded").value()),
              "count");
  result->Set("obs.trace_overhead_frac", plain.rate() / traced.rate() - 1.0,
              "ratio");
  std::printf("  tracing overhead: %.2f tables/s traced vs %.2f untraced\n",
              traced.rate(), plain.rate());

  env->encoder.reset();
  result->Set("serialize.us_per_table", env->world.serialize_us_per_table, "us");
  result->Set("text.vocab_build_s", env->world.vocab_build_s, "s");
  RunModelProbe(env->model.get(), env->world.inputs, result);
  RunKernelProbes(mean_t, result);
  FinishTrace(args, {}, result);
}

}  // namespace perfbench
