#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared pieces of the benchmark binary: arguments, the result that
// main() prints, order statistics, the seeded synthetic world each
// workload starts from, and the model configuration.

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "models/table_encoder.h"
#include "serialize/serializer.h"
#include "spans.h"
#include "table/corpus.h"
#include "text/wordpiece.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the span file of a traced run.
  std::string out_dir = ".";
};

/// What one run reports. Metrics keep insertion order; main() prints
/// them as the final JSON line, which perfbench/run.py filters down to
/// the names BENCHMARK.json declares.
class Result {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// A wrong output or failed operation: counted, reported, and turns
  /// the exit code nonzero.
  void Fail(const std::string& what, int64_t count = 1);
  void Attempt(int64_t count) { attempted_ += count; }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0; }
  std::string Json() const;
  /// Prints one aligned "name value unit" line per metric.
  void PrintTable() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

double Seconds(int64_t start_ns, int64_t end_ns);

/// Exact nearest-rank quantile, q in [0, 1]. 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// getrusage max resident set size, in MB.
double PeakRssMb();

/// Latency summary that bursts of host noise cannot dominate: samples
/// are grouped into windows (sample i belongs to window window_of[i]),
/// each window gets its own p50 and p95, and the run reports the lower
/// quartile over windows of each. Other tenants' load on a shared host
/// only ever adds delay and comes in bursts; a slowdown of the program
/// moves every window. The quartile rather than the best window, so
/// that one window with an unusual mix of work (no publish in it, say)
/// does not decide the result.
struct WindowedLatency {
  double p50 = 0.0;
  double p95 = 0.0;
  std::vector<double> window_p50;  // in window order, for the report
};
WindowedLatency SummarizeWindows(const std::vector<double>& values,
                                 const std::vector<int64_t>& window_of);
/// Prints every window's p50, so a reader can see how bursty a run was.
void PrintWindows(const WindowedLatency& w);

bool BitwiseEqual(const tabrep::Tensor& a, const tabrep::Tensor& b);

/// The seeded synthetic inputs of one workload: tables, the tokenizer
/// trained on them, and their serialized forms.
struct World {
  tabrep::TableCorpus corpus;
  std::unique_ptr<tabrep::WordPieceTokenizer> tokenizer;
  std::unique_ptr<tabrep::TableSerializer> serializer;
  std::vector<tabrep::TokenizedTable> inputs;  // one per corpus table
  double vocab_build_s = 0.0;
  double serialize_us_per_table = 0.0;
};

struct WorldOptions {
  int64_t num_tables = 256;
  int64_t min_rows = 4;
  int64_t max_rows = 10;
  int64_t max_tokens = 96;
  double numeric_fraction = 0.15;
  uint64_t seed = 1;
  /// When non-empty, table i is serialized with max_tokens =
  /// token_targets[i] instead of max_tokens (long tables are cut to an
  /// exact length, so the size distribution does not depend on the seed).
  std::vector<int64_t> token_targets;
};

/// Generates the corpus, trains the tokenizer and serializes every
/// table (each Serialize call is a span in a traced run). Tables whose
/// serialized form hashes equal to an earlier one are dropped, so every
/// input is distinct to the encode cache and the coalescer.
World MakeWorld(const WorldOptions& options);

/// Width and feed-forward size of the model every workload uses.
inline constexpr int64_t kModelDim = 48;
inline constexpr int64_t kModelFfn = 96;

/// The laptop-scale model every workload uses (kModelDim, 2 layers, 4
/// heads, kModelFfn), sized to the world's vocabulary and tables.
tabrep::ModelConfig BenchModelConfig(tabrep::ModelFamily family,
                                     const World& world,
                                     int64_t max_position, int64_t max_rows);

/// User + system CPU seconds of the whole process so far.
double ProcessCpuSeconds();

/// Runs `setup` `repeats` times and keeps the last built object.
/// `*median_s` is the median over repetitions of the process CPU time
/// one set-up took. CPU time, not wall time: work moved into set-up
/// shows in it, but other tenants' load on a shared host does not
/// (stolen time is not charged to the process).
template <typename T, typename Fn>
T RepeatSetup(int repeats, Fn setup, double* median_s) {
  std::vector<double> cpu, wall;
  T value{};
  for (int i = 0; i < repeats; ++i) {
    value = T{};  // the previous repetition is torn down outside the timing
    const double c0 = ProcessCpuSeconds();
    const int64_t t0 = NowNs();
    value = setup();
    wall.push_back(Seconds(t0, NowNs()));
    cpu.push_back(ProcessCpuSeconds() - c0);
  }
  *median_s = Quantile(cpu, 0.5);
  std::printf("set-up x%d: median %.3f s CPU, %.3f s wall\n", repeats,
              *median_s, Quantile(wall, 0.5));
  return value;
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
