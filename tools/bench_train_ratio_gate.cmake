# Training-step cost gate:
#   cmake -DBENCH_BIN=.../bench_fig2c_train_ratio -DWORK_DIR=...
#         -P bench_train_ratio_gate.cmake
#
# Runs the bench in smoke mode and reads the gauge
# tabrep.bench.fig2c.train_over_forward from its report: one TURL
# MLM + MER training example (forward + backward) over one graph-free
# forward of the same example, timed interleaved on one lane in
# thread-CPU time, best block per side. Both sides come from the same
# process, so the ratio is a property of the code, not of the machine;
# it fails when backward grows relative to forward. The ceiling leaves
# headroom over what the masked-row tied-softmax loss measures on a
# 4-core x86 VM: 3.0-3.3 over ten runs, 2.8-3.8 with six copies running
# at once. The full-row logits path it replaced read 4.4-4.7.

foreach(var BENCH_BIN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_train_ratio_gate: missing -D${var}=...")
  endif()
endforeach()
set(MAX_RATIO 4.2)

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env TABREP_SMOKE=1 TABREP_TRACE=0 ${BENCH_BIN}
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "bench_train_ratio_gate: bench failed (rc=${rc}):\n${out}")
endif()
set(report ${WORK_DIR}/BENCH_fig2c_train_ratio.json)
if(NOT EXISTS ${report})
  message(FATAL_ERROR "bench_train_ratio_gate: ${report} not written")
endif()
file(READ ${report} report_json)

string(REGEX MATCH
       "\"tabrep\\.bench\\.fig2c\\.train_over_forward\":([0-9]*\\.?[0-9]*)"
       _ "${report_json}")
set(ratio ${CMAKE_MATCH_1})
if(ratio STREQUAL "")
  message(FATAL_ERROR
          "bench_train_ratio_gate: no tabrep.bench.fig2c.train_over_forward "
          "gauge in ${report}")
endif()
if(ratio GREATER ${MAX_RATIO})
  message(FATAL_ERROR
          "bench_train_ratio_gate: a training example costs ${ratio}x a "
          "forward, above the ${MAX_RATIO}x ceiling")
endif()
message(STATUS
        "bench_train_ratio_gate: train/forward ${ratio}x <= ${MAX_RATIO}x OK")
