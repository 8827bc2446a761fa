// T1 — Model-family comparison across downstream tasks (§2.3).
//
// The survey's central comparative claim: extensions that make the
// transformer "data structure aware" (TAPAS/TaBERT/TURL/MATE-style)
// outperform the vanilla serialize-as-text baseline on structured
// tasks. Every family gets the identical budget: same corpus, same
// tokenizer, same transformer size, same pretraining steps, same
// fine-tuning steps — only the structural extension differs.

#include <cstdio>
#include <map>
#include <vector>

#include "bench_util.h"
#include "eval/metrics.h"
#include "pretrain/trainer.h"
#include "tasks/column_annotation.h"
#include "tasks/fact_verification.h"
#include "tasks/imputation.h"
#include "tasks/qa.h"

using namespace tabrep;
using namespace tabrep::bench;

namespace {

constexpr ModelFamily kFamilies[] = {ModelFamily::kVanilla,
                                     ModelFamily::kTapas,
                                     ModelFamily::kTabert, ModelFamily::kTurl,
                                     ModelFamily::kMate};

struct TaskScores {
  double imputation = 0;
  double qa = 0;
  double fact = 0;
  double columns = 0;
};

}  // namespace

int main() {
  PrintHeader("T1", "Model family x downstream task comparison (§2.3)");
  EnableBenchObs();
  WorldOptions wopts;
  wopts.num_tables = 48;
  wopts.numeric_fraction = 0.1;
  wopts.max_tokens = 80;
  World w = MakeWorld(wopts);

  // QA and fact-verification evaluate on *fresh* questions/claims over
  // the training tables (question-level generalization); imputation and
  // column annotation evaluate on held-out tables (table-level
  // generalization, learnable here because the synthetic corpus obeys
  // global functional dependencies).
  Rng gen_rng(11);
  Rng eval_rng(99);
  std::vector<QaExample> qa_train = GenerateQaExamples(w.train, 4, gen_rng);
  std::vector<QaExample> qa_test = GenerateQaExamples(w.train, 2, eval_rng);
  std::vector<FactExample> fact_train =
      GenerateFactExamples(w.train, 6, gen_rng);
  std::vector<FactExample> fact_test =
      GenerateFactExamples(w.train, 3, eval_rng);
  std::printf("\nBudget per family: 300 pretrain steps, 1000 fine-tune steps "
              "per task, dim 40, 1 layer.\n");
  std::printf("Tasks: imputation (acc), QA cell selection (acc), fact "
              "verification (acc), column annotation (acc).\n");

  std::map<ModelFamily, TaskScores> scores;
  for (ModelFamily family : kFamilies) {
    const double t0 = NowSeconds();
    FineTuneConfig fconfig;
    fconfig.steps = 1000;
    fconfig.batch_size = 2;
    fconfig.lr = 1.5e-3f;

    auto fresh_model = [&](uint64_t seed_offset) {
      ModelConfig config = BenchModelConfig(family, w, 40, 1);
      config.seed = 1 + seed_offset;
      auto model = std::make_unique<TableEncoderModel>(config);
      PretrainConfig pconfig;
      pconfig.steps = 300;
      pconfig.batch_size = 2;
      pconfig.use_mer = family == ModelFamily::kTurl;
      PretrainTrainer trainer(model.get(), w.serializer.get(), pconfig);
      trainer.Train(w.train);
      return model;
    };

    TaskScores s;
    {
      auto model = fresh_model(0);
      ImputationTask task(model.get(), w.serializer.get(), fconfig, w.train);
      task.Train(w.train);
      s.imputation = task.Evaluate(w.test, 120).accuracy;
    }
    {
      auto model = fresh_model(1);
      QaTask task(model.get(), w.serializer.get(), fconfig);
      task.Train(w.train, qa_train);
      s.qa = task.Evaluate(w.train, qa_test);
    }
    {
      auto model = fresh_model(2);
      FactVerificationTask task(model.get(), w.serializer.get(), fconfig);
      task.Train(w.train, fact_train);
      s.fact = task.Evaluate(w.train, fact_test).accuracy;
    }
    {
      auto model = fresh_model(3);
      ColumnAnnotationTask task(model.get(), w.serializer.get(), fconfig,
                                w.train);
      task.Train(w.train);
      s.columns = task.Evaluate(w.test, 120).accuracy;
    }
    scores[family] = s;
    std::printf("  %s done in %.0fs\n", ModelFamilyName(family).data(),
                NowSeconds() - t0);
  }

  std::vector<std::vector<std::string>> rows;
  double best_structured = 0;
  for (ModelFamily family : kFamilies) {
    const TaskScores& s = scores[family];
    const double mean = (s.imputation + s.qa + s.fact + s.columns) / 4.0;
    if (family != ModelFamily::kVanilla) {
      best_structured = std::max(best_structured, mean);
    }
    rows.push_back({std::string(ModelFamilyName(family)), Fmt(s.imputation),
                    Fmt(s.qa), Fmt(s.fact), Fmt(s.columns), Fmt(mean)});
  }
  std::printf("\nHeld-out accuracy per family and task:\n%s",
              RenderTextTable({"model", "imputation", "qa", "fact-verif",
                               "col-annot", "mean"},
                              rows)
                  .c_str());
  const TaskScores& vanilla = scores[ModelFamily::kVanilla];
  const double vanilla_mean =
      (vanilla.imputation + vanilla.qa + vanilla.fact + vanilla.columns) / 4.0;
  const std::string winner =
      Winner(best_structured, "structure-aware wins (the survey's claim)",
             vanilla_mean, "vanilla wins (unexpected at paper scale)");
  std::printf("\nBest structure-aware mean %.3f vs vanilla mean %.3f -> %s\n",
              best_structured, vanilla_mean, winner.c_str());
  std::printf("\nbench_t1: OK\n");
  WriteBenchObsReport("t1");
  return 0;
}
