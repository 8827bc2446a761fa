// serve_cold and serve_skew: a loopback net::Server in front of one
// BatchedEncoder (cold) or a two-shard serve::Cluster (skew), driven by
// an open-loop Poisson generator from a seeded schedule.
//
// Generator: two connections, each with one sender and one reader
// thread (four generator threads). Request i goes to connection i % 2;
// its sender sleeps until the scheduled time and sends, its reader
// times the response from the *scheduled* send time, so a stall also
// charges the requests queued behind it. Sequence numbers are unique
// across the run, so a response maps back to its schedule slot.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/cluster.h"
#include "serve/serve.h"
#include "workloads.h"

namespace perfbench {

using namespace tabrep;

namespace {

constexpr int kConns = 2;
/// Published weights alternate between two checkpoints; version v
/// carries checkpoint (v + 1) % 2, so v = 1 is the initial weights.
int WeightsIndexOf(uint64_t version) { return version % 2 == 1 ? 0 : 1; }

struct ServeSpec {
  const char* name;
  bool cluster;
  int64_t num_tables;
  double zipf_alpha;       // 0: every table once per shuffled cycle
  int64_t cache_capacity;  // per encoder; 0 disables the cache
  int64_t publish_every;   // requests between publishes; 0 = never
  double fixed_rps;
  double slo_p95_us;
  double ladder_base_rps;  // rung k offers base * kLadderRatio^k
  int ladder_rungs;
};

// Rates and limits were fixed once, when the benchmark was added, on a
// 4-vCPU x86 VM shared with other tenants: the fixed rates sit at about
// a quarter (cold) and a third (skew) of the measured knee, where p95
// repeats from run to run, and the p95 limit is about ten times the p95
// at the fixed rate. The ladders span the knee with room on both sides.
constexpr ServeSpec kServeCold = {
    .name = "serve_cold", .cluster = false, .num_tables = 256,
    .zipf_alpha = 0.0, .cache_capacity = 0, .publish_every = 0,
    .fixed_rps = 1000.0, .slo_p95_us = 25000.0,
    .ladder_base_rps = 1500.0, .ladder_rungs = 64};
constexpr ServeSpec kServeSkew = {
    .name = "serve_skew", .cluster = true, .num_tables = 512,
    .zipf_alpha = 1.0, .cache_capacity = 64, .publish_every = 2000,
    .fixed_rps = 3000.0, .slo_p95_us = 25000.0,
    .ladder_base_rps = 4000.0, .ladder_rungs = 64};
constexpr double kLadderRatio = 1.03;
/// Ladder probes share half of --seconds; a search takes at most
/// log2(rungs) + 1 probes plus one repeat per failing rung.
constexpr int kMaxProbes = 10;
constexpr double kLagLimitUs = 10000.0;
/// Latency windows of the fixed-rate phase, by scheduled send time.
constexpr int64_t kWindowNs = 500'000'000;
/// Responses of tables whose index is a multiple of this are compared
/// with the reference encodings.
constexpr int kCheckEvery = 4;

struct ServeEnv {
  World world;
  std::unique_ptr<TableEncoderModel> model;    // weights A, shard 0
  std::unique_ptr<TableEncoderModel> model_b;  // weights B
  TensorMap checkpoint[2];
  // [weights][table]; empty tensors for unchecked tables.
  std::vector<Tensor> reference[2];
  std::unique_ptr<serve::EncodeService> service;
  serve::Cluster* cluster = nullptr;
  std::unique_ptr<net::Server> server;
  std::vector<double> key_cdf;  // zipf
  uint64_t publishes = 0;       // completed PublishWeights calls
  uint32_t next_seq = 1;
};

std::unique_ptr<ServeEnv> SetUp(const ServeSpec& spec, uint64_t seed) {
  auto env = std::make_unique<ServeEnv>();
  WorldOptions wopts;
  wopts.num_tables = spec.num_tables;
  wopts.seed = seed;
  env->world = MakeWorld(wopts);

  ModelConfig config =
      BenchModelConfig(ModelFamily::kTabert, env->world, 160, 64);
  env->model = std::make_unique<TableEncoderModel>(config);
  env->model->SetTraining(false);
  env->checkpoint[0] = env->model->ExportStateDict();
  if (spec.publish_every > 0) {
    config.seed += 1;
    env->model_b = std::make_unique<TableEncoderModel>(config);
    env->model_b->SetTraining(false);
    env->checkpoint[1] = env->model_b->ExportStateDict();
  }

  models::EncodeOptions opts;
  opts.need_cells = false;
  opts.inference = true;
  Rng rng(1);
  const size_t n = env->world.inputs.size();
  for (int w = 0; w < 2; ++w) {
    TableEncoderModel* m = w == 0 ? env->model.get() : env->model_b.get();
    env->reference[w].resize(n);
    if (m == nullptr) continue;
    for (size_t i = 0; i < n; i += kCheckEvery) {
      ScopedSpan span("models.Encode");
      env->reference[w][i] = m->Encode(env->world.inputs[i], rng, opts)
                                 .hidden.value();
    }
  }

  if (spec.zipf_alpha > 0.0) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), spec.zipf_alpha);
      env->key_cdf.push_back(sum);
    }
    for (double& c : env->key_cdf) c /= sum;
  }

  serve::BatchedEncoderOptions eopts;
  eopts.cache_capacity = spec.cache_capacity;
  if (spec.cluster) {
    serve::ClusterOptions copts;
    copts.shards = 2;
    copts.encoder = eopts;
    auto cluster = std::make_unique<serve::Cluster>(env->model.get(), copts);
    env->cluster = cluster.get();
    env->service = std::move(cluster);
  } else {
    env->service =
        std::make_unique<serve::BatchedEncoder>(env->model.get(), eopts);
  }
  net::ServerOptions sopts;
  sopts.watchdog = false;
  // Each generator connection carries the traffic of many users, so
  // the per-connection cap is raised to the global queue bound.
  sopts.max_inflight_per_conn = sopts.max_queue;
  env->server = std::make_unique<net::Server>(env->service.get(), sopts);
  const Status started = env->server->Start();
  TABREP_CHECK(started.ok()) << started.ToString();
  return env;
}

/// One open-loop phase: request i is due at offset_ns[i] after the
/// phase start and asks for table[i].
struct Plan {
  std::vector<int64_t> offset_ns;
  std::vector<int32_t> table;
};

Plan MakePlan(const ServeSpec& spec, const ServeEnv& env, double rps,
              int64_t count, Rng& rng) {
  Plan plan;
  const int32_t n = static_cast<int32_t>(env.world.inputs.size());
  std::vector<int32_t> cycle(static_cast<size_t>(n));
  std::iota(cycle.begin(), cycle.end(), 0);
  double t = 0.0;
  for (int64_t i = 0; i < count; ++i) {
    t += -std::log(1.0 - rng.NextDouble()) / rps;
    plan.offset_ns.push_back(static_cast<int64_t>(t * 1e9));
    if (spec.zipf_alpha > 0.0) {
      const double u = rng.NextDouble();
      const auto it =
          std::lower_bound(env.key_cdf.begin(), env.key_cdf.end(), u);
      plan.table.push_back(static_cast<int32_t>(
          std::min<ptrdiff_t>(it - env.key_cdf.begin(), n - 1)));
    } else {
      // A shuffled cycle: no table repeats within n requests, so the
      // coalescer never merges two in-flight copies.
      const int64_t pos = i % n;
      if (pos == 0) {
        for (int32_t j = n - 1; j > 0; --j) {
          std::swap(cycle[static_cast<size_t>(j)],
                    cycle[rng.NextBelow(static_cast<uint64_t>(j) + 1)]);
        }
      }
      plan.table.push_back(cycle[static_cast<size_t>(pos)]);
    }
  }
  return plan;
}

struct PhaseStats {
  int64_t sent = 0, ok = 0, shed = 0, failed = 0, wrong = 0;
  std::vector<double> latency_us;  // every attempted request; inf if not OK
  std::vector<double> lag_us;
  std::vector<double> publish_ms;
  std::vector<double> miss_after_publish;
  double p50() const { return Quantile(latency_us, 0.50); }
  double p95() const { return Quantile(latency_us, 0.95); }
  double p99() const { return Quantile(latency_us, 0.99); }
  int64_t bad() const { return shed + failed + wrong; }
};

PhaseStats RunPhase(const ServeSpec& spec, ServeEnv& env, const Plan& plan) {
  const int64_t n = static_cast<int64_t>(plan.offset_ns.size());
  const uint32_t base = env.next_seq;
  env.next_seq += static_cast<uint32_t>(n);
  std::vector<std::atomic<int64_t>> send_ns(static_cast<size_t>(n));
  std::vector<double> latency(static_cast<size_t>(n), INFINITY);
  std::vector<double> lag(static_cast<size_t>(n), 0.0);
  std::atomic<int64_t> ok{0}, shed{0}, failed{0}, wrong{0};
  std::atomic<int64_t> sent{0};
  std::vector<double> publish_ms, miss_after_publish;
  obs::Counter& misses = obs::Registry::Get().counter("tabrep.serve.cache.miss");
  int64_t pending_miss_window_end = -1;
  uint64_t miss_at_publish = 0;
  constexpr int64_t kMissWindow = 256;

  std::vector<net::Client> clients;
  for (int c = 0; c < kConns; ++c) {
    StatusOr<net::Client> client =
        net::Client::Connect("127.0.0.1", env.server->port());
    TABREP_CHECK(client.ok()) << client.status().ToString();
    clients.push_back(std::move(*client));
  }

  const int64_t t0 = NowNs() + 2'000'000;
  auto sender = [&](int c) {
    net::Client& client = clients[static_cast<size_t>(c)];
    for (int64_t i = c; i < n; i += kConns) {
      const int64_t due = t0 + plan.offset_ns[static_cast<size_t>(i)];
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      // Publishes happen at fixed request indices, never on a timer.
      // publish_every is a multiple of kConns, so they all fall on
      // connection 0 and stay ordered.
      if (spec.publish_every > 0 && c == 0) {
        if (i >= pending_miss_window_end && pending_miss_window_end >= 0) {
          miss_after_publish.push_back(
              static_cast<double>(misses.value() - miss_at_publish));
          pending_miss_window_end = -1;
        }
        if (i > 0 && i % spec.publish_every == 0) {
          const uint64_t j = env.publishes + 1;
          miss_at_publish = misses.value();
          const int64_t p0 = NowNs();
          StatusOr<uint64_t> v = [&] {
            ScopedSpan span("serve.Cluster.PublishWeights");
            return env.cluster->PublishWeights(env.checkpoint[j % 2]);
          }();
          publish_ms.push_back(static_cast<double>(NowNs() - p0) / 1e6);
          TABREP_CHECK(v.ok() && *v == j + 1)
              << "publish returned unexpected version";
          env.publishes = j;
          pending_miss_window_end = i + kMissWindow;
        }
      }
      const int64_t s = NowNs();
      lag[static_cast<size_t>(i)] = static_cast<double>(s - due) / 1e3;
      send_ns[static_cast<size_t>(i)].store(s, std::memory_order_relaxed);
      const Status st = client.SendEncodeRequest(
          env.world.inputs[static_cast<size_t>(
              plan.table[static_cast<size_t>(i)])],
          base + static_cast<uint32_t>(i));
      if (!st.ok()) {
        client.ShutdownWrite();
        return;
      }
      sent.fetch_add(1, std::memory_order_relaxed);
    }
  };
  auto reader = [&](int c) {
    net::Client& client = clients[static_cast<size_t>(c)];
    const int64_t expected = (n - c + kConns - 1) / kConns;
    uint64_t last_version = 0;
    for (int64_t k = 0; k < expected; ++k) {
      StatusOr<net::EncodeResult> r = client.ReadResponse();
      const int64_t now = NowNs();
      if (!r.ok()) {
        failed.fetch_add(expected - k);
        return;
      }
      const int64_t i = static_cast<int64_t>(r->seq) - base;
      if (i < 0 || i >= n || i % kConns != c) {
        failed.fetch_add(1);
        continue;
      }
      if (r->status.code() == StatusCode::kOverloaded) {
        shed.fetch_add(1);
        continue;
      }
      if (!r->status.ok()) {
        failed.fetch_add(1);
        continue;
      }
      const size_t slot = static_cast<size_t>(i);
      const int64_t due = t0 + plan.offset_ns[slot];
      const int64_t s = send_ns[slot].load(std::memory_order_relaxed);
      const uint64_t version = r->encoded.weights_version;
      const int32_t table = plan.table[slot];
      const Tensor& ref =
          env.reference[WeightsIndexOf(version)][static_cast<size_t>(table)];
      const bool version_ok = version >= last_version && version >= 1;
      last_version = std::max(last_version, version);
      if (!version_ok || (ref.numel() > 0 &&
                          !BitwiseEqual(r->encoded.hidden, ref))) {
        wrong.fetch_add(1);
        continue;
      }
      latency[slot] = static_cast<double>(now - due) / 1e3;
      ok.fetch_add(1);
      SpanRecorder& rec = SpanRecorder::Get();
      if (rec.enabled()) {
        const uint64_t trace = base + static_cast<uint64_t>(i);
        const uint64_t root = rec.Add("loadgen.request", due, now, 0, trace);
        rec.Add("net.Client", s, now, root, trace);
      }
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < kConns; ++c) {
    threads.emplace_back(reader, c);
    threads.emplace_back(sender, c);
  }
  for (std::thread& t : threads) t.join();

  PhaseStats out;
  out.sent = sent.load();
  out.ok = ok.load();
  out.shed = shed.load();
  out.wrong = wrong.load();
  out.failed = failed.load();
  out.latency_us = std::move(latency);
  out.lag_us = std::move(lag);
  out.publish_ms = std::move(publish_ms);
  out.miss_after_publish = std::move(miss_after_publish);
  return out;
}

void PrintPhase(const char* label, double rps, const PhaseStats& s) {
  std::printf("  %-15s %7.0f req/s: sent %6lld ok %6lld shed %lld failed "
              "%lld wrong %lld; p50 %7.0f p95 %7.0f p99 %7.0f us (n=%zu); "
              "lag p95 %6.0f us\n",
              label, rps, static_cast<long long>(s.sent),
              static_cast<long long>(s.ok), static_cast<long long>(s.shed),
              static_cast<long long>(s.failed),
              static_cast<long long>(s.wrong), s.p50(), s.p95(), s.p99(),
              s.latency_us.size(), Quantile(s.lag_us, 0.95));
}

/// Counts a phase whose requests must all succeed into the result.
void Account(const char* label, const PhaseStats& s, Result* result) {
  result->Attempt(static_cast<int64_t>(s.latency_us.size()));
  const int64_t missing = static_cast<int64_t>(s.latency_us.size()) - s.ok -
                          s.shed - s.wrong - s.failed;
  result->Fail(std::string(label) + ": shed requests", s.shed);
  result->Fail(std::string(label) + ": failed requests", s.failed + missing);
  result->Fail(std::string(label) +
                   ": responses not bitwise equal to the reference Encode "
                   "under their weights version (or version went back)",
               s.wrong);
}

double HistMean(const char* name) {
  return obs::Registry::Get().histogram(name).Stats().mean;
}
double HistP99(const char* name) {
  return obs::Registry::Get().histogram(name).Stats().p99;
}

void RunServe(const ServeSpec& spec, const Args& args, Result* result) {
  double setup_s = 0.0;
  std::unique_ptr<ServeEnv> env = RepeatSetup<std::unique_ptr<ServeEnv>>(
      3, [&] { return SetUp(spec, args.seed); }, &setup_s);
  SpanRecorder::Get().Enable(false);  // warm-up and baseline run untraced
  Rng rng(args.seed * 7919 + 17);
  std::printf("%s: %zu distinct tables, TaBERT dim 48, %s, cache %lld, "
              "fixed rate %.0f req/s, p95 limit %.0f us\n",
              spec.name, env->world.inputs.size(),
              spec.cluster ? "2-shard cluster" : "one BatchedEncoder",
              static_cast<long long>(spec.cache_capacity), spec.fixed_rps,
              spec.slo_p95_us);

  // Warm connections, arenas and (skew) caches; not measured, but its
  // outputs are checked like every other phase's.
  const PhaseStats warm = RunPhase(
      spec, *env,
      MakePlan(spec, *env, spec.fixed_rps,
               static_cast<int64_t>(spec.fixed_rps * 0.3), rng));
  result->Attempt(static_cast<int64_t>(warm.latency_us.size()));
  result->Fail("warm-up: wrong responses", warm.wrong);

  // Untraced runs split their time between the fixed-rate phase and the
  // ladder; traced runs spend a third untraced (the overhead baseline)
  // and the rest traced.
  const double fixed_s = args.trace ? args.seconds / 3.0 : args.seconds / 2.0;
  const Plan fixed_plan = MakePlan(
      spec, *env, spec.fixed_rps,
      static_cast<int64_t>(spec.fixed_rps * fixed_s), rng);
  const PhaseStats fixed = RunPhase(spec, *env, fixed_plan);
  PrintPhase("fixed", spec.fixed_rps, fixed);
  Account("fixed-rate phase", fixed, result);
  std::vector<int64_t> window_of;
  for (int64_t offset : fixed_plan.offset_ns) {
    window_of.push_back(offset / kWindowNs);
  }
  const WindowedLatency windowed = SummarizeWindows(fixed.latency_us, window_of);
  std::printf("  req_p50_us %.1f, req_p95_us %.1f (lower quartile over %zu "
              "windows of %.1f s); pooled req_p99_us %.1f (n=%zu)\n",
              windowed.p50, windowed.p95, windowed.window_p50.size(), kWindowNs / 1e9,
              fixed.p99(), fixed.latency_us.size());
  PrintWindows(windowed);

  if (!args.trace) {
    // max_rps_under_slo: the highest rung of the fixed geometric ladder
    // whose probe meets the p95 limit with nothing shed or failed and
    // the generator on time. Binary search, assuming pass/fail is
    // monotone in the rate; a failing probe is repeated once, so one
    // burst of host noise cannot end the search early.
    const int64_t probe_ns =
        static_cast<int64_t>(args.seconds / 2.0 / kMaxProbes * 1e9);
    int lo = -1, hi = spec.ladder_rungs;
    int64_t probe_bad = 0;
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      const double rps = spec.ladder_base_rps * std::pow(kLadderRatio, mid);
      bool pass = false;
      for (int attempt = 0; attempt < 2 && !pass; ++attempt) {
        const PhaseStats probe = RunPhase(
            spec, *env,
            MakePlan(spec, *env, rps,
                     static_cast<int64_t>(rps * static_cast<double>(probe_ns) / 1e9),
                     rng));
        PrintPhase("ladder", rps, probe);
        probe_bad += probe.bad();
        pass = probe.bad() == 0 && probe.p95() <= spec.slo_p95_us &&
               Quantile(probe.lag_us, 0.95) <= kLagLimitUs;
      }
      (pass ? lo : hi) = mid;
    }
    const double max_rps = spec.ladder_base_rps * std::pow(kLadderRatio, lo);
    std::printf("  max_rps_under_slo %.1f req/s (rung %d of 0..%d%s; %lld "
                "ladder requests shed or failed above the knee, not counted)\n",
                max_rps, lo, spec.ladder_rungs - 1,
                lo == spec.ladder_rungs - 1 ? ", CAPPED: the top rung passed"
                                            : "",
                static_cast<long long>(probe_bad));
    result->Set("latency_p50_us", windowed.p50, "us");
    result->Set("throughput_per_s", max_rps, "1/s");
    result->Set("setup_s", setup_s, "s");
    result->Set("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  // Traced run: the untraced phase above is the baseline for the
  // tracing overhead; the registry is zeroed so its histograms
  // describe the traced phase alone.
  obs::Registry::Get().ResetAll();
  SpanRecorder::Get().Enable(true);
  const uint64_t steal0 = env->cluster ? env->cluster->steal_count() : 0;
  const uint64_t routed0 = env->cluster ? env->cluster->routed_count() : 0;
  const PhaseStats traced = RunPhase(
      spec, *env,
      MakePlan(spec, *env, spec.fixed_rps,
               static_cast<int64_t>(spec.fixed_rps * (args.seconds - fixed_s)),
               rng));
  PrintPhase("fixed (traced)", spec.fixed_rps, traced);
  Account("traced fixed-rate phase", traced, result);

  obs::Registry& reg = obs::Registry::Get();
  const double hits = static_cast<double>(reg.counter("tabrep.serve.cache.hit").value());
  const double misses = static_cast<double>(reg.counter("tabrep.serve.cache.miss").value());
  const double requests = static_cast<double>(reg.counter("tabrep.serve.requests").value());
  const obs::Histogram& request_us = reg.histogram("tabrep.net.request.us");
  std::vector<LayerRow> extra;
  extra.push_back({"net.server.request", "net.Client", request_us.count(),
                   request_us.sum()});
  // tabrep.net.request.us ends when the response is queued, so the
  // write stage (queued -> on the socket) is its sibling, not its child.
  for (const char* stage : {"admission", "decode", "queue", "batch",
                            "inference", "serialize", "write"}) {
    const std::string hist = std::string("tabrep.serve.stage.") + stage + ".us";
    const obs::Histogram& h = reg.histogram(hist);
    extra.push_back({std::string("stage.") + stage,
                     std::string(stage) == "write" ? "net.Client"
                                                   : "net.server.request",
                     h.count(), h.sum()});
  }
  result->Set("net.admission_us", HistMean("tabrep.serve.stage.admission.us"), "us");
  result->Set("net.admission_us_p99", HistP99("tabrep.serve.stage.admission.us"), "us");
  result->Set("net.decode_us", HistMean("tabrep.serve.stage.decode.us"), "us");
  result->Set("net.decode_us_p99", HistP99("tabrep.serve.stage.decode.us"), "us");
  result->Set("net.serialize_us", HistMean("tabrep.serve.stage.serialize.us"), "us");
  result->Set("net.serialize_us_p99", HistP99("tabrep.serve.stage.serialize.us"), "us");
  result->Set("net.write_us", HistMean("tabrep.serve.stage.write.us"), "us");
  result->Set("net.write_us_p99", HistP99("tabrep.serve.stage.write.us"), "us");
  result->Set("net.shed", static_cast<double>(reg.counter("tabrep.net.shed").value()), "count");
  result->Set("net.errors", static_cast<double>(reg.counter("tabrep.net.errors").value()), "count");
  result->Set("serve.queue_us", HistMean("tabrep.serve.stage.queue.us"), "us");
  result->Set("serve.queue_us_p99", HistP99("tabrep.serve.stage.queue.us"), "us");
  result->Set("serve.batch_us", HistMean("tabrep.serve.stage.batch.us"), "us");
  result->Set("serve.batch_us_p99", HistP99("tabrep.serve.stage.batch.us"), "us");
  result->Set("serve.inference_us", HistMean("tabrep.serve.stage.inference.us"), "us");
  result->Set("serve.inference_us_p99", HistP99("tabrep.serve.stage.inference.us"), "us");
  result->Set("serve.batch_size_mean", HistMean("tabrep.serve.batch.size"), "tables");
  result->Set("serve.cache_hit_ratio",
              hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio");
  result->Set("serve.coalesced_ratio",
              requests > 0.0
                  ? static_cast<double>(reg.counter("tabrep.serve.coalesced").value()) / requests
                  : 0.0,
              "ratio");
  result->Set("serve.encoded", static_cast<double>(reg.counter("tabrep.serve.encoded").value()), "count");
  if (env->cluster != nullptr) {
    const double routed = static_cast<double>(env->cluster->routed_count() - routed0);
    result->Set("serve.cluster.steal_ratio",
                routed > 0.0 ? static_cast<double>(env->cluster->steal_count() - steal0) / routed : 0.0,
                "ratio");
    result->Set("serve.cluster.publish_ms", Mean(traced.publish_ms), "ms");
    result->Set("serve.cluster.miss_after_publish", Mean(traced.miss_after_publish), "count");
  }
  result->Set("loadgen.sent", static_cast<double>(traced.sent), "count");
  result->Set("loadgen.ok", static_cast<double>(traced.ok), "count");
  result->Set("loadgen.shed", static_cast<double>(traced.shed), "count");
  result->Set("loadgen.failed", static_cast<double>(traced.failed + traced.wrong), "count");
  result->Set("loadgen.lag_p99_us", Quantile(traced.lag_us, 0.99), "us");
  result->Set("obs.trace_overhead_frac", traced.p50() / fixed.p50() - 1.0,
              "ratio");
  std::printf("  tracing overhead: p50 %.1f us traced vs %.1f us untraced\n",
              traced.p50(), fixed.p50());

  env->server->Stop();
  result->Set("serialize.us_per_table", env->world.serialize_us_per_table, "us");
  result->Set("text.vocab_build_s", env->world.vocab_build_s, "s");
  RunModelProbe(env->model.get(), env->world.inputs, result);
  RunKernelProbes(MeanTokens(env->world.inputs), result);
  const std::vector<LayerRow> rows = FinishTrace(args, extra, result);
  result->Set("net.unattributed_frac",
              UnattributedFrac(rows, "net.Client"), "ratio");
}

}  // namespace

void RunServeCold(const Args& args, Result* result) {
  RunServe(kServeCold, args, result);
}

void RunServeSkew(const Args& args, Result* result) {
  RunServe(kServeSkew, args, result);
}

}  // namespace perfbench
