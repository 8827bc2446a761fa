#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <vector>

#include "common.h"

namespace perfbench {

/// Each workload runs from a fresh process: set-up (repeated, median
/// reported as setup_s), then `args.seconds` of measured work, then
/// its output checks. With args.trace the run records spans, reads the
/// program's registry, runs the probes and prints the layer table.
void RunServeCold(const Args& args, Result* result);
void RunServeSkew(const Args& args, Result* result);
void RunEncodeWide(const Args& args, Result* result);
void RunPretrainTurl(const Args& args, Result* result);

/// Kernel and runtime probes (tensor.*, runtime.*): GEMM peak, the
/// model's projection GEMMs at [T,d]x[d,d] and [T,d]x[d,ffn] for the
/// workload's mean table length T = `tokens`, fused attention at T=96
/// and T=512, f32 vs int8 GEMM, and the 1- vs 4-thread small-GEMM time
/// ratio. FLOPs are computed from the shapes. Reconfigures the runtime
/// pool; call only when nothing else runs.
void RunKernelProbes(int64_t tokens, Result* result);

/// Mean serialized length of `inputs`.
int64_t MeanTokens(const std::vector<tabrep::TokenizedTable>& inputs);

/// models.*: direct graph-free Encode of each input in turn (one
/// caller), for at least 0.5 s and one pass; p50/p99 per table and
/// tokens/s.
void RunModelProbe(tabrep::TableEncoderModel* model,
                   const std::vector<tabrep::TokenizedTable>& inputs,
                   Result* result);

/// Writes the run's spans once, reads the file back, and prints the
/// layer table built from what was read plus `extra` rows (registry
/// aggregates of layers the benchmark cannot wrap from outside).
/// Returns the rows so callers can derive shares.
std::vector<LayerRow> FinishTrace(const Args& args,
                                  const std::vector<LayerRow>& extra,
                                  Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
