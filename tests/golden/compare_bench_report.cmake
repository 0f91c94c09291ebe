# Runs a bench binary with a pinned seed and byte-compares its JSON report
# against a checked-in golden. This is the determinism contract as a ctest:
# any thread count, and (for the cluster bench) serial vs parallel cost
# probes, must reproduce the committed report exactly.
#
# Invoked by add_test as:
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DOUT=<file>
#         [-DTHREADS=<n>] [-DARGS=<extra cli args>] [-DTRACE=<file>]
#         [-DSTDOUT=ON] -P compare_bench_report.cmake
#
# An empty THREADS unsets ODN_THREADS so the bench uses every core.
# STDOUT captures the program's standard output into OUT instead of
# passing `--out OUT`, for programs that print their report (the examples,
# which reject --out).
# TRACE runs the bench with ODN_TRACE pointing at <file> and additionally
# checks the emitted trace is a Chrome trace_event JSON — the report bytes
# must not change with tracing on (DESIGN.md §6).
if(NOT BENCH OR NOT GOLDEN OR NOT OUT)
  message(FATAL_ERROR "BENCH, GOLDEN and OUT are all required")
endif()

separate_arguments(bench_args NATIVE_COMMAND "${ARGS}")
if(THREADS)
  set(bench_env ODN_THREADS=${THREADS})
else()
  set(bench_env --unset=ODN_THREADS)
endif()
# Hermetic observability: only a TRACE run traces; nothing inherits
# ODN_TRACE/ODN_METRICS from the invoking environment.
if(TRACE)
  list(APPEND bench_env ODN_TRACE=${TRACE})
else()
  list(APPEND bench_env --unset=ODN_TRACE)
endif()
list(APPEND bench_env --unset=ODN_METRICS)
# And no inherited fault schedule: ODN_FAULTS would silently turn a
# golden run into a chaos run.
list(APPEND bench_env --unset=ODN_FAULTS)

if(STDOUT)
  set(out_args "")
  set(capture OUTPUT_FILE ${OUT})
else()
  set(out_args --out ${OUT})
  set(capture OUTPUT_QUIET)
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env ${bench_env}
          ${BENCH} ${bench_args} ${out_args}
  RESULT_VARIABLE run_result
  ${capture})
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with '${run_result}'")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE diff_result)
if(NOT diff_result EQUAL 0)
  # Show the actual divergence: a unified diff when a diff tool exists,
  # otherwise the first mismatching lines — "the files differ" alone is
  # useless for debugging a broken determinism contract.
  find_program(DIFF_TOOL NAMES diff)
  if(DIFF_TOOL)
    execute_process(
      COMMAND ${DIFF_TOOL} -u ${GOLDEN} ${OUT}
      OUTPUT_VARIABLE diff_text
      ERROR_QUIET)
  else()
    file(STRINGS ${GOLDEN} golden_lines)
    file(STRINGS ${OUT} out_lines)
    list(LENGTH golden_lines golden_count)
    list(LENGTH out_lines out_count)
    set(diff_text "")
    set(line 0)
    while(line LESS golden_count AND line LESS out_count)
      list(GET golden_lines ${line} golden_line)
      list(GET out_lines ${line} out_line)
      if(NOT golden_line STREQUAL out_line)
        math(EXPR human_line "${line} + 1")
        string(APPEND diff_text
               "line ${human_line}:\n-${golden_line}\n+${out_line}\n")
        break()
      endif()
      math(EXPR line "${line} + 1")
    endwhile()
    if(diff_text STREQUAL "" AND NOT golden_count EQUAL out_count)
      set(diff_text
          "line counts differ: golden ${golden_count}, report ${out_count}\n")
    endif()
  endif()
  # Keep the failure readable: the full report can be thousands of lines.
  string(REGEX MATCH "^([^\n]*\n){1,60}" diff_head "${diff_text}")
  if(NOT diff_head)
    set(diff_head "${diff_text}")
  endif()
  message(FATAL_ERROR
          "report ${OUT} differs from golden ${GOLDEN} — if the change is "
          "intentional, regenerate the golden with the command above and "
          "commit it; otherwise the determinism contract is broken.\n"
          "First mismatching lines (golden vs report):\n${diff_head}")
endif()

if(TRACE)
  if(NOT EXISTS ${TRACE})
    message(FATAL_ERROR "trace file ${TRACE} was not written")
  endif()
  file(READ ${TRACE} trace_head LIMIT 16)
  if(NOT trace_head MATCHES "^{\"traceEvents\"")
    message(FATAL_ERROR
            "trace file ${TRACE} is not trace_event JSON (starts with "
            "'${trace_head}')")
  endif()
endif()
