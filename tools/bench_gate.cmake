# ctest regression gate driven by tools/CMakeLists.txt:
#   cmake -DBENCH_BIN=... -DDIFF_BIN=... -DWORK_DIR=... -P bench_gate.cmake
#
# 1. Runs the fig2d bench twice in smoke mode: identical workloads, so
#    every counter matches exactly and bench_diff must exit 0. This step
#    compares counters only: its timing thresholds sit beyond any real
#    value (as in bench_baseline.cmake), because under CPU load a
#    histogram p95 of the same workload moved +750% between two runs.
# 2. Re-runs with TABREP_SMOKE_SCALE=2 (double the training steps): a
#    genuine workload regression that bench_diff must flag (exit 1).

foreach(var BENCH_BIN DIFF_BIN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_gate: missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})

function(run_bench dir scale)
  file(MAKE_DIRECTORY ${dir})
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env TABREP_SMOKE=1 TABREP_SMOKE_SCALE=${scale}
            TABREP_TRACE=0 ${BENCH_BIN}
    WORKING_DIRECTORY ${dir}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_gate: bench failed in ${dir} (rc=${rc}):\n${out}")
  endif()
  if(NOT EXISTS ${dir}/BENCH_fig2d.json)
    message(FATAL_ERROR "bench_gate: ${dir}/BENCH_fig2d.json not written")
  endif()
endfunction()

run_bench(${WORK_DIR}/run1 1)
run_bench(${WORK_DIR}/run2 1)
run_bench(${WORK_DIR}/run2x 2)

# Identical workloads must pass the gate.
execute_process(
  COMMAND ${DIFF_BIN} --max-p95-regress=1000000 --max-total-regress=1000000
          ${WORK_DIR}/run1/BENCH_fig2d.json ${WORK_DIR}/run2/BENCH_fig2d.json
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)
message(STATUS "identical pair:\n${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "bench_gate: bench_diff flagged identical runs (rc=${rc})")
endif()

# A doubled workload must be flagged (counters double: +100% >> 1%).
execute_process(
  COMMAND ${DIFF_BIN}
          ${WORK_DIR}/run1/BENCH_fig2d.json ${WORK_DIR}/run2x/BENCH_fig2d.json
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)
message(STATUS "doubled workload:\n${out}")
if(NOT rc EQUAL 1)
  message(FATAL_ERROR
          "bench_gate: bench_diff missed a 2x workload regression (rc=${rc})")
endif()

message(STATUS "bench_gate: OK")
