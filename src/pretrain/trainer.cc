#include "pretrain/trainer.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "nn/data_parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tabrep {

obs::StepRecord PretrainStepRecord(const PretrainLogEntry& entry,
                                   bool include_mer) {
  obs::StepRecord record("pretrain", entry.step);
  record.Add("mlm_loss", entry.mlm_loss)
      .Add("mlm_acc", entry.mlm_accuracy)
      .Add("lr", entry.lr, /*precision=*/6);
  if (include_mer) {
    record.Add("mer_loss", entry.mer_loss).Add("mer_acc", entry.mer_accuracy);
  }
  return record;
}

obs::StepRecord PretrainEvalRecord(int64_t step, const PretrainEval& eval,
                                   bool include_mer) {
  obs::StepRecord record("pretrain.eval", "eval", step);
  record.Add("mlm_loss", eval.mlm_loss)
      .Add("mlm_acc", eval.mlm_accuracy)
      .Add("mlm_ppl", eval.mlm_perplexity, /*precision=*/2);
  if (include_mer) {
    record.Add("mer_loss", eval.mer_loss).Add("mer_acc", eval.mer_accuracy);
  }
  return record;
}

PretrainTrainer::PretrainTrainer(TableEncoderModel* model,
                                 const TableSerializer* serializer,
                                 PretrainConfig config)
    : model_(model),
      serializer_(serializer),
      config_(config),
      rng_(config.seed),
      mlm_head_(model, rng_) {
  TABREP_CHECK(model_ != nullptr && serializer_ != nullptr);
  config_.mlm.vocab_size =
      static_cast<int32_t>(model_->config().vocab_size);
  if (config_.use_mer) {
    TABREP_CHECK(model_->config().family == ModelFamily::kTurl)
        << "MER requires a kTurl model";
    mer_head_ = std::make_unique<models::EntityRecoveryHead>(model_, rng_);
  }
  std::vector<ag::Variable*> params = model_->Parameters();
  for (ag::Variable* p : mlm_head_.Parameters()) params.push_back(p);
  if (mer_head_) {
    for (ag::Variable* p : mer_head_->Parameters()) params.push_back(p);
  }
  optimizer_ = std::make_unique<nn::Adam>(std::move(params), config_.peak_lr);
}

PretrainTrainer::StepStats PretrainTrainer::RunExample(
    const TokenizedTable& serialized, bool train, Rng& rng) {
  StepStats stats;

  // MLM pass.
  {
    MlmExample ex = ApplyMlmMasking(serialized, config_.mlm, rng);
    if (ex.num_masked > 0) {
      models::Encoded enc = model_->Encode(ex.input, rng, {.need_cells = false});
      const models::HeadLoss mlm =
          mlm_head_.Loss(enc.hidden, ex.targets, kIgnoreTarget);
      stats.mlm_loss = mlm.loss.value()[0];
      stats.mlm_correct = mlm.correct;
      stats.mlm_counted = mlm.counted;
      if (train) ag::Backward(mlm.loss);
    }
  }

  // MER pass (TURL's second objective).
  if (mer_head_) {
    MerExample ex = ApplyMerMasking(serialized, config_.mer, rng);
    if (ex.num_masked > 0) {
      models::Encoded enc = model_->Encode(ex.input, rng);
      if (enc.has_cells) {
        const models::HeadLoss mer =
            mer_head_->Loss(enc.cells, ex.cell_targets, kIgnoreTarget);
        ag::Variable loss = mer.loss;
        if (config_.mer_weight != 1.0f) {
          loss = ag::MulScalar(loss, config_.mer_weight);
        }
        stats.mer_loss = loss.value()[0];
        stats.mer_correct = mer.correct;
        stats.mer_counted = mer.counted;
        if (train) ag::Backward(loss);
      }
    }
  }
  return stats;
}

std::vector<PretrainLogEntry> PretrainTrainer::Train(
    const TableCorpus& corpus, const TableCorpus* heldout) {
  TABREP_CHECK(corpus.size() > 0) << "empty corpus";

  // All telemetry flows through one sink: the caller's, or a stdout
  // sink decimated by log_every (replacing the old printf path).
  obs::StdoutSink default_sink(std::max<int64_t>(1, config_.log_every));
  obs::MetricsSink* sink = config_.sink;
  if (sink == nullptr && config_.log_every > 0) sink = &default_sink;

  model_->SetTraining(true);
  mlm_head_.SetTraining(true);
  if (mer_head_) mer_head_->SetTraining(true);

  // Serialize every table once up front.
  std::vector<TokenizedTable> serialized;
  serialized.reserve(static_cast<size_t>(corpus.size()));
  for (const Table& t : corpus.tables) {
    serialized.push_back(serializer_->Serialize(t));
  }

  nn::WarmupLinearSchedule schedule(config_.peak_lr, config_.warmup_steps,
                                    config_.steps);
  std::vector<ag::Variable*> params = model_->Parameters();
  for (ag::Variable* p : mlm_head_.Parameters()) params.push_back(p);
  if (mer_head_) {
    for (ag::Variable* p : mer_head_->Parameters()) params.push_back(p);
  }

  std::vector<PretrainLogEntry> log;
  log.reserve(static_cast<size_t>(config_.steps));
  for (int64_t step = 0; step < config_.steps; ++step) {
    TABREP_TRACE_SPAN("pretrain.step");
    optimizer_->set_lr(schedule.LrAt(step));
    optimizer_->ZeroGrad();
    // Batch example indices (and, inside ParallelBatch, per-example
    // seeds) are drawn sequentially, so the schedule of rng draws does
    // not depend on the thread count.
    std::vector<const TokenizedTable*> batch(
        static_cast<size_t>(config_.batch_size));
    for (auto& ex : batch) ex = &serialized[rng_.NextBelow(serialized.size())];
    std::vector<StepStats> stats(batch.size());
    nn::ParallelBatch(config_.batch_size, params, rng_,
                      [&](int64_t b, Rng& rng) {
                        stats[static_cast<size_t>(b)] = RunExample(
                            *batch[static_cast<size_t>(b)], /*train=*/true,
                            rng);
                      });
    StepStats acc;
    for (const StepStats& s : stats) {
      acc.mlm_loss += s.mlm_loss;
      acc.mlm_correct += s.mlm_correct;
      acc.mlm_counted += s.mlm_counted;
      acc.mer_loss += s.mer_loss;
      acc.mer_correct += s.mer_correct;
      acc.mer_counted += s.mer_counted;
    }
    nn::ClipGradNorm(params, config_.grad_clip);
    optimizer_->Step();

    PretrainLogEntry entry;
    entry.step = step;
    entry.lr = optimizer_->lr();
    entry.mlm_loss =
        static_cast<float>(acc.mlm_loss / config_.batch_size);
    entry.mlm_accuracy =
        acc.mlm_counted > 0
            ? static_cast<float>(acc.mlm_correct) / acc.mlm_counted
            : 0.0f;
    entry.mer_loss = static_cast<float>(acc.mer_loss / config_.batch_size);
    entry.mer_accuracy =
        acc.mer_counted > 0
            ? static_cast<float>(acc.mer_correct) / acc.mer_counted
            : 0.0f;
    if (sink) sink->Record(PretrainStepRecord(entry, mer_head_ != nullptr));
    log.push_back(entry);

    // Held-out eval: fixed-seed, read-only w.r.t. the training rng, so
    // the training curve is bitwise-identical with or without it.
    if (heldout != nullptr && config_.eval_every > 0 &&
        (step + 1) % config_.eval_every == 0) {
      const PretrainEval eval = Evaluate(*heldout, config_.eval_max_tables);
      if (sink) {
        sink->Record(PretrainEvalRecord(step, eval, mer_head_ != nullptr));
      }
    }
  }
  if (sink) sink->Flush();
  return log;
}

PretrainEval PretrainTrainer::Evaluate(const TableCorpus& corpus,
                                       int64_t max_tables) {
  model_->SetTraining(false);
  mlm_head_.SetTraining(false);
  if (mer_head_) mer_head_->SetTraining(false);

  Rng eval_rng(config_.seed + 1000);
  const int64_t n = std::min<int64_t>(
      max_tables, static_cast<int64_t>(corpus.tables.size()));
  std::vector<StepStats> stats(static_cast<size_t>(n));
  nn::ParallelExamples(n, eval_rng, [&](int64_t i, Rng& rng) {
    ag::NoGradScope no_grad;  // eval: graph-free encode
    TokenizedTable serialized =
        serializer_->Serialize(corpus.tables[static_cast<size_t>(i)]);
    stats[static_cast<size_t>(i)] =
        RunExample(serialized, /*train=*/false, rng);
  });
  StepStats acc;
  double mlm_loss_sum = 0.0, mer_loss_sum = 0.0;
  int64_t mlm_batches = 0, mer_batches = 0;
  for (const StepStats& s : stats) {
    if (s.mlm_counted > 0) {
      mlm_loss_sum += s.mlm_loss;
      ++mlm_batches;
      acc.mlm_correct += s.mlm_correct;
      acc.mlm_counted += s.mlm_counted;
    }
    if (s.mer_counted > 0) {
      mer_loss_sum += s.mer_loss;
      ++mer_batches;
      acc.mer_correct += s.mer_correct;
      acc.mer_counted += s.mer_counted;
    }
  }
  model_->SetTraining(true);
  mlm_head_.SetTraining(true);
  if (mer_head_) mer_head_->SetTraining(true);

  PretrainEval eval;
  eval.mlm_loss =
      mlm_batches > 0 ? static_cast<float>(mlm_loss_sum / mlm_batches) : 0.0f;
  eval.mlm_accuracy =
      acc.mlm_counted > 0
          ? static_cast<float>(acc.mlm_correct) / acc.mlm_counted
          : 0.0f;
  eval.mlm_perplexity = std::exp(eval.mlm_loss);
  eval.mer_loss =
      mer_batches > 0 ? static_cast<float>(mer_loss_sum / mer_batches) : 0.0f;
  eval.mer_accuracy =
      acc.mer_counted > 0
          ? static_cast<float>(acc.mer_correct) / acc.mer_counted
          : 0.0f;
  return eval;
}

}  // namespace tabrep
