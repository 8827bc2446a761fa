// Fig. 2d — "Fine-tuning and analysis" (§3.4).
//
// Reproduces the fourth hands-on exercise: fine-tune for data
// imputation, report F1 on held-out tables, and run the paper's
// failure analysis — numeric tables and tables without descriptive
// headers degrade markedly. Also quantifies the value of pretraining
// by fine-tuning the same architecture from random init under an
// identical budget.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "eval/failure_analysis.h"
#include "eval/metrics.h"
#include "pretrain/trainer.h"
#include "tasks/imputation.h"

using namespace tabrep;
using namespace tabrep::bench;

namespace {

struct EvalRow {
  std::string condition;
  ClassificationReport report;
};

void PrintReports(const std::vector<EvalRow>& rows) {
  std::vector<std::vector<std::string>> table;
  for (const EvalRow& r : rows) {
    table.push_back({r.condition, Fmt(r.report.accuracy),
                     Fmt(r.report.micro.f1), Fmt(r.report.macro.f1),
                     std::to_string(r.report.total)});
  }
  std::printf("%s", RenderTextTable({"condition", "accuracy", "micro F1",
                                     "macro F1", "cells"},
                                    table)
                        .c_str());
}

}  // namespace

int main() {
  PrintHeader("Fig. 2d", "Fine-tuning for data imputation + analysis (§3.4)");
  EnableBenchObs();
  WorldOptions wopts;
  wopts.num_tables = SmokeMode() ? 24 : 80;
  wopts.numeric_fraction = 0.15;
  World w = MakeWorld(wopts);
  const int64_t eval_n = SmokeMode() ? 40 : 150;

  // Degraded variants of the held-out corpus for the failure analysis.
  TableCorpus test_headerless;
  test_headerless.entities = w.test.entities;
  for (const Table& t : w.test.tables) {
    Table h = t.WithoutHeader();
    h.set_title("");
    h.set_caption("");
    test_headerless.tables.push_back(std::move(h));
  }
  // Numeric-only corpus (GitTables-like CSV tables, Fig. 2d right).
  SyntheticCorpusOptions numeric_opts;
  numeric_opts.num_tables = SmokeMode() ? 8 : 20;
  numeric_opts.numeric_table_fraction = 1.0;
  numeric_opts.seed = 999;
  TableCorpus numeric_test = GenerateSyntheticCorpus(numeric_opts);

  // Per-example records for the error-slicing table below; only the
  // full-budget pretrained model writes into it.
  eval::ExampleLog example_log;

  FineTuneConfig fconfig;
  fconfig.steps = 2000;
  fconfig.batch_size = 4;
  fconfig.lr = 1e-3f;
  ImputationOptions iopts;
  iopts.include_numeric_columns = true;  // so the numeric failure case
                                         // is measured, not skipped

  // --- (a) Pretrain once; keep the weights for re-use. ------------------
  ModelConfig config = BenchModelConfig(ModelFamily::kTurl, w);
  TensorMap pretrained_state;
  {
    TableEncoderModel pretrain_model(config);
    PretrainConfig pconfig;
    pconfig.steps = BenchSteps(600, 12);
    pconfig.batch_size = 2;
    pconfig.use_mer = true;
    PretrainTrainer pretrainer(&pretrain_model, w.serializer.get(), pconfig);
    pretrainer.Train(w.train);
    pretrained_state = pretrain_model.ExportStateDict();
  }

  // --- (b) Fine-tune for imputation: pretrained vs random init, at a
  // low-resource and a full budget (the pretraining advantage is a
  // low-resource effect; with enough fine-tuning both converge).
  auto run_condition = [&](bool use_pretrained, int64_t steps, bool freeze,
                           ImputationTask** task_out)
      -> std::vector<EvalRow> {
    ModelConfig c = config;
    c.seed = use_pretrained ? config.seed : 321;
    auto model = std::make_unique<TableEncoderModel>(c);
    if (use_pretrained) {
      TABREP_CHECK(model->ImportStateDict(pretrained_state).ok());
    }
    FineTuneConfig fc = fconfig;
    fc.steps = steps;
    fc.freeze_encoder = freeze;
    fc.example_log = task_out ? &example_log : nullptr;
    auto* task = new ImputationTask(model.get(), w.serializer.get(), fc,
                                    w.train, iopts);
    task->Train(w.train);
    std::vector<EvalRow> out;
    out.push_back({"held-out, categorical cells",
                   task->Evaluate(w.test, eval_n,
                                  CellCategory::kCategorical)});
    if (task_out) {
      *task_out = task;
      // Keep the model alive alongside the returned task.
      model.release();
    } else {
      delete task;
    }
    return out;
  };

  std::printf("\nValue of pretraining (held-out categorical accuracy).\n"
              "Frozen-encoder rows probe raw representation quality; the\n"
              "full fine-tune rows show the gap closing with budget:\n");
  std::vector<std::vector<std::string>> sweep;
  struct Cond { const char* name; bool freeze; int64_t steps; };
  ImputationTask* task_ptr = nullptr;
  for (const Cond& cond :
       {Cond{"frozen encoder, 800 head steps", true, BenchSteps(800, 30)},
        Cond{"full fine-tune, 2000 steps", false, BenchSteps(2000, 60)}}) {
    // The full-budget pretrained model doubles as the failure-analysis
    // model below.
    auto pre = run_condition(true, cond.steps, cond.freeze,
                             cond.freeze ? nullptr : &task_ptr);
    auto rnd = run_condition(false, cond.steps, cond.freeze, nullptr);
    sweep.push_back({cond.name, Fmt(pre[0].report.accuracy),
                     Fmt(rnd[0].report.accuracy),
                     Winner(pre[0].report.accuracy, "pretrained",
                            rnd[0].report.accuracy, "random")});
  }
  std::printf("%s", RenderTextTable({"regime", "pretrained init",
                                     "random init", "winner"},
                                    sweep)
                        .c_str());

  // --- Full-budget pretrained model: the §3.4 failure analysis. ---------
  ImputationTask& task = *task_ptr;
  std::printf("value vocabulary: %lld values\n\n",
              static_cast<long long>(task.value_vocab_size()));

  // Reset the log so the slicing table below covers exactly these
  // held-out evaluations, not the training batches.
  example_log.Clear();
  std::vector<EvalRow> rows;
  rows.push_back({"held-out, categorical cells",
                  task.Evaluate(w.test, eval_n, CellCategory::kCategorical)});
  rows.push_back({"held-out, numeric cells",
                  task.Evaluate(w.test, eval_n, CellCategory::kNumeric)});
  rows.push_back({"held-out, headers removed (categorical)",
                  task.Evaluate(test_headerless, eval_n,
                                CellCategory::kCategorical)});
  rows.push_back({"numeric CSV, categorical cells",
                  task.Evaluate(numeric_test, eval_n,
                                CellCategory::kCategorical)});
  rows.push_back({"numeric CSV, numeric cells",
                  task.Evaluate(numeric_test, eval_n, CellCategory::kNumeric)});
  std::printf("Failure analysis of §3.4 (pretrained, full budget):\n");
  PrintReports(rows);

  // --- Error slicing over the per-example records the evaluations
  // just emitted: the same failure modes, now grouped by the corpus
  // generator's provenance tags instead of hand-built eval corpora.
  const std::vector<eval::ExampleRecord> records = example_log.records();
  std::printf("\nError slices (%lld eval records, grouped by table tag):\n%s",
              static_cast<long long>(records.size()),
              eval::RenderSliceTable(eval::SliceByTag(records, "eval"))
                  .c_str());
  Status slice_status =
      eval::WriteExampleRecordsJsonl(records, "BENCH_fig2d.examples.jsonl");
  if (slice_status.ok()) {
    std::printf("example records: BENCH_fig2d.examples.jsonl\n");
  }

  // Hit@k on held-out categorical cells (TURL reports imputation as
  // Hit@k over candidate lists).
  std::printf("\nHeld-out Hit@k (candidate lists, categorical + numeric "
              "cells):\n");
  std::vector<std::vector<std::string>> hit_rows;
  const int64_t hit_n = SmokeMode() ? 16 : 80;
  for (int64_t k : {1, 3, 10}) {
    hit_rows.push_back({"Hit@" + std::to_string(k),
                        Fmt(task.EvaluateHitAtK(w.test, k, hit_n))});
  }
  std::printf("%s", RenderTextTable({"metric", "value"}, hit_rows).c_str());

  // --- (c) Case study: the paper's two demo tables. ----------------------
  std::printf("\nCase study — filling the NULL cells of the Fig. 2d tables:\n");
  Table awards = MakeAwardsDemoTable();
  std::printf("%s", awards.ToString(5).c_str());
  std::printf("  (row 0, Language)  -> %s   [paper's answer: Bengali]\n",
              task.PredictCell(awards, 0, 3).c_str());
  std::printf("  (row 1, Recipient) -> %s   [paper's answer: Satyajit Ray]\n",
              task.PredictCell(awards, 1, 1).c_str());
  Table census = MakeCensusDemoTable();
  std::printf("%s", census.ToString(5).c_str());
  std::printf("  (row 1, workclass) -> %s   [paper's answer: Private]\n",
              task.PredictCell(census, 1, 1).c_str());
  std::printf("  (row 2, income)    -> %s   [paper's answer: >50K]\n",
              task.PredictCell(census, 2, 4).c_str());

  std::printf("\nExpected shape: pretrained wins at low fine-tuning budget; "
              "categorical cells beat non-recurring numeric cells; headerless "
              "tables degrade.\n");
  std::printf("\nbench_fig2d: OK\n");
  WriteBenchObsReport("fig2d");
  return 0;
}
