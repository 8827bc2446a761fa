// perfbench: runs one workload against the tabrep libraries and
// prints its metrics. Usually started through perfbench/run.py, which
// builds it and validates the output against BENCHMARK.json:
//
//   perfbench --workload serve_cold --seed 1 --seconds 10 --trace 0
//             [--out-dir DIR]
//
// The last stdout line is "PERFBENCH_RESULT {json}". The exit code is
// 0 when every output check passed, 1 when one failed, 2 on bad usage.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "workloads.h"

namespace perfbench {

std::vector<LayerRow> FinishTrace(const Args& args,
                                  const std::vector<LayerRow>& extra,
                                  Result* result) {
  const std::vector<SpanRecord> spans = SpanRecorder::Get().Snapshot();
  const std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                           std::to_string(args.seed) + ".txt";
  std::string error;
  std::vector<SpanRecord> read;
  if (!WriteSpans(path, spans, &error) || !ReadSpans(path, &read, &error)) {
    result->Fail("span file: " + error);
    return {};
  }
  if (read != spans) result->Fail("span file did not round-trip: " + path);
  std::vector<LayerRow> rows = AggregateSpans(read);
  rows.insert(rows.end(), extra.begin(), extra.end());
  std::printf("\nlayer table (%zu spans from %s; registry and program-span "
              "rows are aggregates):\n%s",
              read.size(), path.c_str(), RenderLayerTable(rows).c_str());
  return rows;
}

}  // namespace perfbench

namespace {

/// Steal and total jiffies summed over all CPUs, from /proc/stat; both
/// 0 where the file is unreadable.
std::pair<uint64_t, uint64_t> HostCpuJiffies() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  uint64_t v[8] = {};
  const int n = std::fscanf(
      f, "cpu %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
         " %" SCNu64 " %" SCNu64 " %" SCNu64,
      &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n != 8) return {0, 0};
  uint64_t total = 0;
  for (uint64_t x : v) total += x;
  return {v[7], total};
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_cold|serve_skew|encode_wide|pretrain_turl --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0 && args.seconds <= 60.0)) {
        return Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("bad --trace");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");

  const auto [steal0, total0] = HostCpuJiffies();
  perfbench::Result result;
  // A traced run records its set-up too; each workload switches the
  // recorder off for its untraced baseline phase.
  perfbench::SpanRecorder::Get().Enable(args.trace);
  if (args.workload == "serve_cold") {
    perfbench::RunServeCold(args, &result);
  } else if (args.workload == "serve_skew") {
    perfbench::RunServeSkew(args, &result);
  } else if (args.workload == "encode_wide") {
    perfbench::RunEncodeWide(args, &result);
  } else if (args.workload == "pretrain_turl") {
    perfbench::RunPretrainTurl(args, &result);
  } else {
    return Usage("unknown --workload");
  }
  std::printf("\n%s seed %llu (%s): attempted %lld, failed %lld "
              "(failed_frac %.6f)\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "untraced",
              static_cast<long long>(result.attempted()),
              static_cast<long long>(result.failed()),
              result.attempted() > 0
                  ? static_cast<double>(result.failed()) /
                        static_cast<double>(result.attempted())
                  : 0.0);
  // On a shared VM, time the hypervisor gave to other tenants explains
  // most run-to-run variance; print it so a reader can discount a run.
  const auto [steal1, total1] = HostCpuJiffies();
  if (total1 > total0) {
    std::printf("host: %.1f%% of vCPU time stolen during the run "
                "(/proc/stat)\n",
                100.0 * static_cast<double>(steal1 - steal0) /
                    static_cast<double>(total1 - total0));
  }
  result.PrintTable();
  std::printf("PERFBENCH_RESULT %s\n", result.Json().c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
