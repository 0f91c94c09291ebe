# Selftest for compare_bench_report.cmake, run as a ctest:
#   cmake -DCOMPARE=<script> -DFAKE_BENCH=<fake_bench.cmake>
#         -DWORK_DIR=<dir> -P test_compare_script.cmake
#
# Uses fake_bench.cmake as the "bench" (cmake -P tolerates the trailing
# `--out <path>` the compare script appends) and checks both directions:
#   1. a report matching the golden passes,
#   2. a mismatching report fails AND the failure message pinpoints the
#      first diverging line (the unified-diff/fallback path),
#   3. in STDOUT mode (`cmake -E cat` as the program) a matching printed
#      report passes and a diverged one fails.
if(NOT COMPARE OR NOT FAKE_BENCH OR NOT WORK_DIR)
  message(FATAL_ERROR "COMPARE, FAKE_BENCH and WORK_DIR are all required")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
file(WRITE ${WORK_DIR}/golden.json
     "{\n  \"seed\": 7,\n  \"admitted\": 12\n}")
file(WRITE ${WORK_DIR}/matching.json
     "{\n  \"seed\": 7,\n  \"admitted\": 12\n}")
file(WRITE ${WORK_DIR}/diverged.json
     "{\n  \"seed\": 7,\n  \"admitted\": 13\n}")

function(run_compare src out result_var output_var)
  execute_process(
    COMMAND ${CMAKE_COMMAND}
      -DBENCH=${CMAKE_COMMAND}
      "-DARGS=-DSRC=${src} -P ${FAKE_BENCH}"
      -DGOLDEN=${WORK_DIR}/golden.json
      -DOUT=${out}
      -P ${COMPARE}
    RESULT_VARIABLE result
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  set(${result_var} ${result} PARENT_SCOPE)
  set(${output_var} "${stdout}${stderr}" PARENT_SCOPE)
endfunction()

# 1. Matching report: the compare must pass and write OUT.
run_compare(${WORK_DIR}/matching.json ${WORK_DIR}/out_match.json
            match_result match_output)
if(NOT match_result EQUAL 0)
  message(FATAL_ERROR
          "compare script rejected a matching report:\n${match_output}")
endif()
if(NOT EXISTS ${WORK_DIR}/out_match.json)
  message(FATAL_ERROR "compare script did not produce the report file")
endif()

# 2. Diverged report: the compare must fail and the message must show the
#    first mismatching line, not just "the files differ".
run_compare(${WORK_DIR}/diverged.json ${WORK_DIR}/out_diverge.json
            diverge_result diverge_output)
if(diverge_result EQUAL 0)
  message(FATAL_ERROR "compare script accepted a diverged report")
endif()
# CMake wraps long FATAL_ERROR messages, so match single words only.
if(NOT diverge_output MATCHES "differs")
  message(FATAL_ERROR
          "mismatch failure lacks the diagnosis preamble:\n${diverge_output}")
endif()
if(NOT diverge_output MATCHES "\"admitted\": 13")
  message(FATAL_ERROR
          "mismatch failure does not show the diverging line:\n"
          "${diverge_output}")
endif()
if(NOT diverge_output MATCHES "\"admitted\": 12")
  message(FATAL_ERROR
          "mismatch failure does not show the golden side:\n"
          "${diverge_output}")
endif()

# 3. STDOUT mode: the program prints its report and gets no --out.
function(run_compare_stdout src out result_var)
  execute_process(
    COMMAND ${CMAKE_COMMAND}
      -DBENCH=${CMAKE_COMMAND}
      "-DARGS=-E cat ${src}"
      -DGOLDEN=${WORK_DIR}/golden.json
      -DOUT=${out}
      -DSTDOUT=ON
      -P ${COMPARE}
    RESULT_VARIABLE result
    OUTPUT_QUIET
    ERROR_QUIET)
  set(${result_var} ${result} PARENT_SCOPE)
endfunction()

run_compare_stdout(${WORK_DIR}/matching.json ${WORK_DIR}/out_stdout.txt
                   stdout_match_result)
if(NOT stdout_match_result EQUAL 0)
  message(FATAL_ERROR "STDOUT mode rejected a matching printed report")
endif()
run_compare_stdout(${WORK_DIR}/diverged.json ${WORK_DIR}/out_stdout_bad.txt
                   stdout_diverge_result)
if(stdout_diverge_result EQUAL 0)
  message(FATAL_ERROR "STDOUT mode accepted a diverged printed report")
endif()

message(STATUS "compare_bench_report selftest passed")
