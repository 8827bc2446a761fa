#ifndef TABREP_BENCH_BENCH_UTIL_H_
#define TABREP_BENCH_BENCH_UTIL_H_

// Shared setup for the table/figure reproduction benches. Each bench
// binary builds a "world" (synthetic corpus + tokenizer + serializer)
// with a fixed seed so every table printed is reproducible run-to-run.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "models/table_encoder.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "serialize/serializer.h"
#include "serialize/vocab_builder.h"
#include "table/synth.h"

namespace tabrep::bench {

struct World {
  TableCorpus corpus;
  TableCorpus train;
  TableCorpus test;
  std::unique_ptr<WordPieceTokenizer> tokenizer;
  std::unique_ptr<TableSerializer> serializer;
};

struct WorldOptions {
  int64_t num_tables = 60;
  double numeric_fraction = 0.15;
  double headerless_fraction = 0.0;
  int64_t max_tokens = 96;
  int32_t vocab_size = 2000;
  double holdout = 0.25;
  uint64_t seed = 42;
  SerializerOptions serializer;  // strategy/context; max_tokens overridden
};

inline World MakeWorld(const WorldOptions& options = {}) {
  World w;
  SyntheticCorpusOptions copts;
  copts.num_tables = options.num_tables;
  copts.numeric_table_fraction = options.numeric_fraction;
  copts.headerless_fraction = options.headerless_fraction;
  copts.seed = options.seed;
  w.corpus = GenerateSyntheticCorpus(copts);
  Rng split_rng(options.seed + 1);
  auto [train, test] = w.corpus.Split(options.holdout, split_rng);
  w.train = std::move(train);
  w.test = std::move(test);
  WordPieceTrainerOptions vopts;
  vopts.vocab_size = options.vocab_size;
  w.tokenizer = std::make_unique<WordPieceTokenizer>(
      BuildCorpusTokenizer(w.corpus, vopts));
  SerializerOptions sopts = options.serializer;
  sopts.max_tokens = options.max_tokens;
  w.serializer = std::make_unique<TableSerializer>(w.tokenizer.get(), sopts);
  return w;
}

/// A small model config shared by the benches (laptop-scale stand-in
/// for the published checkpoints).
inline ModelConfig BenchModelConfig(ModelFamily family, const World& w,
                                    int64_t dim = 48, int64_t layers = 2) {
  ModelConfig config;
  config.family = family;
  config.vocab_size = w.tokenizer->vocab().size();
  config.entity_vocab_size = w.corpus.entities.size();
  config.transformer.dim = dim;
  config.transformer.num_layers = layers;
  config.transformer.num_heads = 4;
  config.transformer.ffn_dim = dim * 2;
  config.transformer.dropout = 0.0f;
  config.max_position = 160;
  return config;
}

/// TABREP_SMOKE=1 shrinks a bench to CI scale (seconds, not minutes);
/// the numbers stop being meaningful but every code path still runs.
inline bool SmokeMode() {
  const char* env = std::getenv("TABREP_SMOKE");
  return env != nullptr && std::string(env) != "0";
}

/// TABREP_SMOKE_SCALE multiplies smoke-mode step counts. The ctest
/// regression gate runs the same bench at scale 1 and scale 2 to
/// manufacture a genuine workload regression bench_diff must flag.
inline int64_t SmokeScale() {
  const char* env = std::getenv("TABREP_SMOKE_SCALE");
  if (env == nullptr) return 1;
  const long v = std::strtol(env, nullptr, 10);
  return v > 0 ? static_cast<int64_t>(v) : 1;
}

/// `full` steps normally; `smoke` (times TABREP_SMOKE_SCALE) in smoke
/// mode.
inline int64_t BenchSteps(int64_t full, int64_t smoke) {
  return SmokeMode() ? smoke * SmokeScale() : full;
}

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::string Fmt(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

/// Names the higher of two scores, or "tie" when they print the same
/// at `precision` (so a 0.000 vs 0.000 result is never called a win).
inline std::string Winner(double a, const std::string& a_name, double b,
                          const std::string& b_name, int precision = 3) {
  if (Fmt(a, precision) == Fmt(b, precision)) return "tie";
  return a > b ? a_name : b_name;
}

inline void PrintHeader(const char* id, const char* title) {
  std::printf("\n==============================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("==============================================================\n");
}

/// Turns tracing on for a bench run (when compiled in), honoring an
/// explicit TABREP_TRACE=0/off opt-out. Tracing only observes, so the
/// numbers a bench prints are identical either way.
inline void EnableBenchObs() {
  if (!obs::TracingCompiledIn()) return;
  const char* env = std::getenv("TABREP_TRACE");
  if (env != nullptr) {
    const std::string v(env);
    if (v == "0" || v == "false" || v == "off") return;
  }
  obs::SetTracingEnabled(true);
}

/// Dumps the machine-readable observability artifacts for a bench:
///   BENCH_<id>.json       — metrics registry + per-op profile
///   BENCH_<id>.trace.json — chrome://tracing timeline (if tracing ran)
/// and prints the aggregated per-op profile table. A non-empty
/// `window_json` (obs::WindowedRegistry::ToJson()) lands as the
/// report's trailing "window" section (bench_s2_net passes its
/// steady-load window so bench_stage_gate can pin windowed p99s).
inline void WriteBenchObsReport(const char* id,
                                const std::string& window_json = "") {
  const std::string profile = obs::ProfileTableText();
  if (!profile.empty()) {
    std::printf("\nPer-op profile (self = excluding nested spans):\n%s",
                profile.c_str());
  }
  const std::string report_path = std::string("BENCH_") + id + ".json";
  Status s = obs::WriteReport(id, report_path, window_json);
  if (s.ok()) {
    std::printf("\nobs report: %s\n", report_path.c_str());
  } else {
    std::printf("\nobs report failed: %s\n", s.ToString().c_str());
  }
  if (obs::TracingCompiledIn() && obs::TracingEnabled()) {
    const std::string trace_path = std::string("BENCH_") + id + ".trace.json";
    s = obs::WriteChromeTrace(trace_path);
    if (s.ok()) {
      std::printf("chrome trace: %s (load via chrome://tracing)\n",
                  trace_path.c_str());
    } else {
      std::printf("chrome trace failed: %s\n", s.ToString().c_str());
    }
  }
}

}  // namespace tabrep::bench

#endif  // TABREP_BENCH_BENCH_UTIL_H_
