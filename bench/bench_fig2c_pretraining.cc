// Fig. 2c — "Pretraining and output encoding" (§3.3).
//
// Reproduces the third hands-on exercise: pretrain with TURL's two
// objectives (masked language modeling + masked entity recovery) over
// an unlabeled table corpus, print the loss/accuracy curves, compare
// against a random-init model on held-out tables, and analyze the
// attention weights — the structure-aware model concentrates attention
// mass on same-row/same-column tokens, the vanilla model does not.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "eval/metrics.h"
#include "models/visibility.h"
#include "pretrain/trainer.h"

using namespace tabrep;
using namespace tabrep::bench;

namespace {

/// Attention mass from grid (cell) tokens onto same-row / same-column /
/// elsewhere, averaged over layers and query tokens.
struct AttentionBreakdown {
  double same_row = 0;
  double same_col = 0;
  double elsewhere = 0;
};

AttentionBreakdown AnalyzeAttention(TableEncoderModel& model,
                                    const TokenizedTable& serialized,
                                    Rng& rng) {
  models::Encoded enc = model.Encode(
      serialized, rng, {.need_cells = false, .capture_attention = true});
  AttentionBreakdown out;
  double norm = 0;
  for (const Tensor& probs : enc.attention) {
    for (int64_t i = 0; i < probs.rows(); ++i) {
      const TokenInfo& a = serialized.tokens[static_cast<size_t>(i)];
      if (a.row == 0 && a.column == 0) continue;  // only grid queries
      for (int64_t j = 0; j < probs.cols(); ++j) {
        const TokenInfo& b = serialized.tokens[static_cast<size_t>(j)];
        const double p = probs.at(i, j);
        if (a.row > 0 && a.row == b.row) {
          out.same_row += p;
        } else if (a.column > 0 && a.column == b.column) {
          out.same_col += p;
        } else {
          out.elsewhere += p;
        }
      }
      norm += 1.0;
    }
  }
  if (norm > 0) {
    out.same_row /= norm;
    out.same_col /= norm;
    out.elsewhere /= norm;
  }
  return out;
}

}  // namespace

int main() {
  PrintHeader("Fig. 2c", "Pretraining and output encoding (§3.3)");
  EnableBenchObs();
  WorldOptions wopts;
  wopts.num_tables = 80;
  wopts.numeric_fraction = 0.1;  // entity-rich corpus for MER
  World w = MakeWorld(wopts);
  std::printf("\nCorpus: %lld tables (%lld train / %lld held-out), "
              "%d entities, vocab %d\n",
              static_cast<long long>(w.corpus.size()),
              static_cast<long long>(w.train.size()),
              static_cast<long long>(w.test.size()), w.corpus.entities.size(),
              w.tokenizer->vocab().size());

  // -- Pretrain with both objectives. ------------------------------------
  ModelConfig config = BenchModelConfig(ModelFamily::kTurl, w);
  TableEncoderModel model(config);
  PretrainConfig pconfig;
  pconfig.steps = BenchSteps(1000, 30);
  pconfig.batch_size = 2;
  pconfig.peak_lr = 2e-3f;
  pconfig.warmup_steps = 30;
  pconfig.use_mer = true;
  // The live curve below and the one in examples/quickstart.cpp are
  // rendered by the same trainer-internal StdoutSink code path.
  pconfig.log_every = 100;
  pconfig.eval_every = 250;
  PretrainTrainer trainer(&model, w.serializer.get(), pconfig);
  const double t0 = NowSeconds();
  std::printf("\nLive curve (every %lld steps, eval every %lld):\n",
              static_cast<long long>(pconfig.log_every),
              static_cast<long long>(pconfig.eval_every));
  std::vector<PretrainLogEntry> curve = trainer.Train(w.train, &w.test);
  const double train_time = NowSeconds() - t0;

  std::printf("\nTraining curve (TURL objectives: MLM + MER):\n");
  std::vector<std::vector<std::string>> rows;
  const size_t stride = curve.size() / 10;
  for (size_t i = 0; i < curve.size(); i += stride) {
    // Smooth over a window for readability.
    double mlm = 0, mer = 0, mlm_acc = 0, mer_acc = 0;
    size_t n = 0;
    for (size_t j = i; j < curve.size() && j < i + stride; ++j, ++n) {
      mlm += curve[j].mlm_loss;
      mer += curve[j].mer_loss;
      mlm_acc += curve[j].mlm_accuracy;
      mer_acc += curve[j].mer_accuracy;
    }
    rows.push_back({std::to_string(curve[i].step), Fmt(mlm / n),
                    Fmt(mlm_acc / n), Fmt(mer / n), Fmt(mer_acc / n),
                    Fmt(curve[i].lr, 5)});
  }
  std::printf("%s", RenderTextTable({"step", "mlm loss", "mlm acc", "mer loss",
                                     "mer acc", "lr"},
                                    rows)
                        .c_str());
  std::printf("(%lld steps in %.1fs, %.1f steps/s)\n",
              static_cast<long long>(pconfig.steps), train_time,
              pconfig.steps / train_time);

  // -- Held-out: pretrained vs random init. -------------------------------
  PretrainEval pretrained = trainer.Evaluate(w.test, 20);
  ModelConfig rand_config = config;
  rand_config.seed = 777;
  TableEncoderModel random_model(rand_config);
  PretrainConfig zero = pconfig;
  zero.steps = 0;
  PretrainTrainer untrained(&random_model, w.serializer.get(), zero);
  PretrainEval random_eval = untrained.Evaluate(w.test, 20);
  std::printf("\nHeld-out masked prediction (the value of pretraining):\n");
  std::printf("%s",
              RenderTextTable(
                  {"model", "mlm loss", "mlm acc", "ppl", "mer acc"},
                  {{"random init", Fmt(random_eval.mlm_loss),
                    Fmt(random_eval.mlm_accuracy),
                    Fmt(random_eval.mlm_perplexity, 1),
                    Fmt(random_eval.mer_accuracy)},
                   {"pretrained", Fmt(pretrained.mlm_loss),
                    Fmt(pretrained.mlm_accuracy),
                    Fmt(pretrained.mlm_perplexity, 1),
                    Fmt(pretrained.mer_accuracy)}})
                  .c_str());

  // -- Attention analysis. -------------------------------------------------
  std::printf("\nAttention mass from cell tokens (averaged over layers and "
              "held-out tables):\n");
  Rng rng(5);
  AttentionBreakdown turl_attn, vanilla_attn;
  ModelConfig vconfig = BenchModelConfig(ModelFamily::kVanilla, w);
  TableEncoderModel vanilla(vconfig);
  vanilla.SetTraining(false);
  model.SetTraining(false);
  int64_t n_tables = 0;
  for (const Table& t : w.test.tables) {
    if (n_tables++ >= 8) break;
    TokenizedTable serialized = w.serializer->Serialize(t);
    AttentionBreakdown a = AnalyzeAttention(model, serialized, rng);
    AttentionBreakdown b = AnalyzeAttention(vanilla, serialized, rng);
    turl_attn.same_row += a.same_row / 8;
    turl_attn.same_col += a.same_col / 8;
    turl_attn.elsewhere += a.elsewhere / 8;
    vanilla_attn.same_row += b.same_row / 8;
    vanilla_attn.same_col += b.same_col / 8;
    vanilla_attn.elsewhere += b.elsewhere / 8;
  }
  std::printf(
      "%s",
      RenderTextTable(
          {"model", "same row", "same column", "elsewhere"},
          {{"turl (pretrained, visibility matrix)", Fmt(turl_attn.same_row),
            Fmt(turl_attn.same_col), Fmt(turl_attn.elsewhere)},
           {"vanilla (random, dense attention)", Fmt(vanilla_attn.same_row),
            Fmt(vanilla_attn.same_col), Fmt(vanilla_attn.elsewhere)}})
          .c_str());

  // Visibility-density statistics (what the matrix masks away).
  double visible = 0;
  int64_t counted = 0;
  for (const Table& t : w.test.tables) {
    if (counted++ >= 8) break;
    visible += TurlMask(w.serializer->Serialize(t)).VisibleFraction();
  }
  std::printf("\nMean visible fraction of the TURL visibility matrix over "
              "held-out tables: %.3f (1.0 = dense)\n",
              visible / 8);
  std::printf("\nbench_fig2c: OK\n");
  WriteBenchObsReport("fig2c");
  return 0;
}
