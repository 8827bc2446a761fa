#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_set>

#include "serialize/vocab_builder.h"
#include "serve/serve.h"
#include "table/synth.h"

namespace perfbench {

using namespace tabrep;

void Result::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Result::Fail(const std::string& what, int64_t count) {
  if (count <= 0) return;
  std::printf("CHECK FAILED: %s (x%lld)\n", what.c_str(),
              static_cast<long long>(count));
  failed_ += count;
}

std::string Result::Json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    char buf[64];
    // NaN/inf are not JSON; a metric that came out non-finite is a
    // broken measurement and is reported as such by run.py.
    if (std::isfinite(m.value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

void Result::PrintTable() const {
  for (const Metric& m : metrics_) {
    std::printf("  %-36s %16.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void PrintWindows(const WindowedLatency& w) {
  std::printf("  per-window p50 (us):");
  for (double v : w.window_p50) std::printf(" %.0f", v);
  std::printf("\n");
}

double Seconds(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double ProcessCpuSeconds() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

WindowedLatency SummarizeWindows(const std::vector<double>& values,
                                 const std::vector<int64_t>& window_of) {
  std::map<int64_t, std::vector<double>> windows;
  for (size_t i = 0; i < values.size(); ++i) {
    windows[window_of[i]].push_back(values[i]);
  }
  std::vector<double> p50s, p95s;
  for (const auto& [w, v] : windows) {
    p50s.push_back(Quantile(v, 0.50));
    p95s.push_back(Quantile(v, 0.95));
  }
  WindowedLatency out;
  out.p50 = Quantile(p50s, 0.25);
  out.p95 = Quantile(p95s, 0.25);
  out.window_p50 = std::move(p50s);
  return out;
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

World MakeWorld(const WorldOptions& options) {
  World w;
  SyntheticCorpusOptions copts;
  copts.num_tables = options.num_tables;
  copts.min_rows = options.min_rows;
  copts.max_rows = options.max_rows;
  copts.numeric_table_fraction = options.numeric_fraction;
  copts.seed = options.seed;
  w.corpus = GenerateSyntheticCorpus(copts);

  const int64_t v0 = NowNs();
  WordPieceTrainerOptions vopts;
  vopts.vocab_size = 2000;
  w.tokenizer = std::make_unique<WordPieceTokenizer>(
      BuildCorpusTokenizer(w.corpus, vopts));
  w.vocab_build_s = Seconds(v0, NowNs());

  SerializerOptions sopts;
  sopts.max_tokens = options.max_tokens;
  sopts.max_rows = options.max_rows;
  w.serializer = std::make_unique<TableSerializer>(w.tokenizer.get(), sopts);

  std::unordered_set<uint64_t> seen;
  TableCorpus kept;
  kept.entities = w.corpus.entities;
  int64_t serialize_ns = 0;
  for (size_t i = 0; i < w.corpus.tables.size(); ++i) {
    Table& t = w.corpus.tables[i];
    std::unique_ptr<TableSerializer> cut;
    if (i < options.token_targets.size()) {
      SerializerOptions copts = sopts;
      copts.max_tokens = options.token_targets[i];
      cut = std::make_unique<TableSerializer>(w.tokenizer.get(), copts);
    }
    TokenizedTable input;
    const int64_t s0 = NowNs();
    {
      ScopedSpan span("serialize.Serialize");
      input = (cut ? *cut : *w.serializer).Serialize(t);
    }
    serialize_ns += NowNs() - s0;
    if (!seen.insert(serve::HashTokenizedTable(input)).second) continue;
    w.inputs.push_back(std::move(input));
    kept.tables.push_back(std::move(t));
  }
  w.serialize_us_per_table =
      static_cast<double>(serialize_ns) / 1e3 /
      static_cast<double>(std::max<size_t>(1, w.corpus.tables.size()));
  w.corpus = std::move(kept);
  return w;
}

ModelConfig BenchModelConfig(ModelFamily family, const World& world,
                             int64_t max_position, int64_t max_rows) {
  ModelConfig config;
  config.family = family;
  config.vocab_size = world.tokenizer->vocab().size();
  config.entity_vocab_size = world.corpus.entities.size();
  config.transformer.dim = kModelDim;
  config.transformer.num_layers = 2;
  config.transformer.num_heads = 4;
  config.transformer.ffn_dim = kModelFfn;
  config.transformer.dropout = 0.0f;
  config.max_position = max_position;
  config.max_rows = max_rows;
  return config;
}

}  // namespace perfbench
