#include "runtime/runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "pretrain/trainer.h"
#include "serialize/vocab_builder.h"
#include "table/synth.h"
#include "tensor/ops.h"

namespace tabrep {
namespace {

/// Restores the default runtime configuration when a test exits, so
/// thread-count changes never leak into other test cases.
class ScopedRuntimeConfig {
 public:
  explicit ScopedRuntimeConfig(int num_threads) {
    runtime::Configure({num_threads});
  }
  ~ScopedRuntimeConfig() { runtime::Configure({}); }
};

TEST(ThreadPoolTest, StartsAndStopsAtEverySize) {
  for (int n : {1, 2, 4, 7}) {
    runtime::ThreadPool pool(n);
    EXPECT_EQ(pool.size(), n);
  }
  // Sub-one requests clamp to a single lane (the caller).
  runtime::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
}

TEST(ThreadPoolTest, SubmitRunsTasksOnWorkers) {
  runtime::ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::mutex mu;
  std::condition_variable cv;
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&] {
      if (ran.fetch_add(1) + 1 == 64) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return ran.load() == 64; });
  EXPECT_EQ(ran.load(), 64);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ScopedRuntimeConfig threads(4);
  for (int64_t grain : {1, 3, 17, 1000}) {
    std::vector<std::atomic<int>> visits(100);
    runtime::ParallelFor(0, 100, grain, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) visits[static_cast<size_t>(i)]++;
    });
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
  }
}

TEST(ParallelForTest, EmptyAndSingleChunkRanges) {
  ScopedRuntimeConfig threads(4);
  int calls = 0;
  runtime::ParallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  runtime::ParallelFor(0, 3, 8, [&](int64_t lo, int64_t hi) {
    ++calls;
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 3);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, PropagatesExceptionsAndStaysUsable) {
  ScopedRuntimeConfig threads(4);
  EXPECT_THROW(
      runtime::ParallelFor(0, 32, 1,
                           [&](int64_t lo, int64_t) {
                             if (lo == 7) throw std::runtime_error("chunk 7");
                           }),
      std::runtime_error);
  // The pool survives a throwing region and keeps scheduling work.
  std::atomic<int64_t> sum{0};
  runtime::ParallelFor(0, 32, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 32 * 31 / 2);
}

TEST(ParallelForTest, NestedCallsRunInline) {
  ScopedRuntimeConfig threads(4);
  std::vector<std::atomic<int>> visits(64);
  runtime::ParallelFor(0, 8, 1, [&](int64_t outer_lo, int64_t outer_hi) {
    for (int64_t outer = outer_lo; outer < outer_hi; ++outer) {
      EXPECT_TRUE(runtime::InParallelRegion());
      runtime::ParallelFor(0, 8, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          visits[static_cast<size_t>(outer * 8 + i)]++;
        }
      });
    }
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
  EXPECT_FALSE(runtime::InParallelRegion());
}

TEST(RuntimeConfigTest, ConfigureControlsNumThreads) {
  runtime::Configure({3});
  EXPECT_EQ(runtime::NumThreads(), 3);
  EXPECT_EQ(runtime::GlobalPool().size(), 3);
  runtime::Configure({});
  EXPECT_GE(runtime::NumThreads(), 1);
}

Tensor MatMulAt(int threads, const Tensor& a, const Tensor& b) {
  ScopedRuntimeConfig config(threads);
  return ops::MatMul(a, b);
}

TEST(DeterminismTest, MatMulIsBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(11);
  Tensor a = Tensor::Randn({37, 29}, rng);
  Tensor b = Tensor::Randn({29, 41}, rng);
  Tensor serial = MatMulAt(1, a, b);
  for (int threads : {2, 4, 8}) {
    Tensor parallel = MatMulAt(threads, a, b);
    ASSERT_EQ(parallel.numel(), serial.numel());
    EXPECT_EQ(std::memcmp(parallel.data(), serial.data(),
                          static_cast<size_t>(serial.numel()) * sizeof(float)),
              0)
        << "MatMul differs at " << threads << " threads";
  }
}

/// Parameters and loss curve after two pretraining steps.
struct PretrainRun {
  TensorMap params;
  std::vector<PretrainLogEntry> curve;
};

PretrainRun PretrainStepAt(int threads,
                           ModelFamily family = ModelFamily::kTapas,
                           bool use_mer = false, float dropout = 0.1f) {
  ScopedRuntimeConfig config(threads);
  SyntheticCorpusOptions opts;
  opts.num_tables = 8;
  opts.max_rows = 5;
  opts.seed = 42;
  TableCorpus corpus = GenerateSyntheticCorpus(opts);
  WordPieceTrainerOptions topts;
  topts.vocab_size = 400;
  WordPieceTokenizer tokenizer = BuildCorpusTokenizer(corpus, topts);
  SerializerOptions sopts;
  sopts.max_tokens = 48;
  TableSerializer serializer(&tokenizer, sopts);

  ModelConfig mconfig;
  mconfig.family = family;
  mconfig.vocab_size = tokenizer.vocab().size();
  mconfig.entity_vocab_size = corpus.entities.size();
  mconfig.transformer.dim = 16;
  mconfig.transformer.num_layers = 1;
  mconfig.transformer.num_heads = 2;
  mconfig.transformer.ffn_dim = 32;
  mconfig.transformer.dropout = dropout;  // > 0 exercises per-head seeds
  mconfig.max_position = 64;
  mconfig.seed = 5;
  TableEncoderModel model(mconfig);

  PretrainConfig pconfig;
  pconfig.steps = 2;
  pconfig.batch_size = 4;
  pconfig.seed = 9;
  pconfig.use_mer = use_mer;
  PretrainTrainer trainer(&model, &serializer, pconfig);
  PretrainRun run;
  run.curve = trainer.Train(corpus);
  run.params = model.ExportStateDict();
  return run;
}

void ExpectSameParams(const TensorMap& serial, const TensorMap& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (const auto& [name, tensor] : serial) {
    auto it = parallel.find(name);
    ASSERT_NE(it, parallel.end()) << name;
    ASSERT_EQ(it->second.numel(), tensor.numel()) << name;
    EXPECT_EQ(std::memcmp(it->second.data(), tensor.data(),
                          static_cast<size_t>(tensor.numel()) * sizeof(float)),
              0)
        << "parameter " << name << " differs across thread counts";
  }
}

TEST(DeterminismTest, PretrainStepIsBitwiseIdenticalAcrossThreadCounts) {
  ExpectSameParams(PretrainStepAt(1).params, PretrainStepAt(4).params);
}

// The benchmark's path: TURL with MLM + masked entity recovery through
// the tied-softmax loss, with and without attention dropout.
TEST(DeterminismTest, TurlMerPretrainStepIsBitwiseIdenticalAcrossThreadCounts) {
  for (float dropout : {0.0f, 0.1f}) {
    SCOPED_TRACE(dropout);
    const PretrainRun serial =
        PretrainStepAt(1, ModelFamily::kTurl, /*use_mer=*/true, dropout);
    const PretrainRun parallel =
        PretrainStepAt(4, ModelFamily::kTurl, /*use_mer=*/true, dropout);
    ExpectSameParams(serial.params, parallel.params);
    ASSERT_EQ(serial.curve.size(), parallel.curve.size());
    for (size_t i = 0; i < serial.curve.size(); ++i) {
      EXPECT_EQ(serial.curve[i].mlm_loss, parallel.curve[i].mlm_loss);
      EXPECT_EQ(serial.curve[i].mer_loss, parallel.curve[i].mer_loss);
      EXPECT_EQ(serial.curve[i].mer_accuracy, parallel.curve[i].mer_accuracy);
    }
    EXPECT_GT(serial.curve.back().mer_loss, 0.0f) << "MER never ran";
  }
}

}  // namespace
}  // namespace tabrep
